package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	sim := New()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		atFunc(sim, at, func(s *Simulator) {
			order = append(order, at)
			if s.Now() != at {
				t.Errorf("clock %g, want %g", s.Now(), at)
			}
		})
	}
	end := sim.Run()
	if end != 5 {
		t.Fatalf("final clock %g, want 5", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	sim := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		atFunc(sim, 7, func(*Simulator) { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	sim := New()
	var at float64
	sim.AfterFunc(3, func(s *Simulator) {
		s.AfterFunc(4, func(s2 *Simulator) { at = s2.Now() })
	})
	sim.Run()
	if at != 7 {
		t.Fatalf("nested After landed at %g, want 7", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	sim := New()
	atFunc(sim, 5, func(s *Simulator) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when scheduling in the past")
			}
		}()
		atFunc(s, 1, func(*Simulator) {})
	})
	sim.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	New().AfterFunc(-1, func(*Simulator) {})
}

func TestCancelPreventsFiring(t *testing.T) {
	sim := New()
	fired := false
	h := atFunc(sim, 2, func(*Simulator) { fired = true })
	if !sim.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if sim.Cancel(h) {
		t.Fatal("second Cancel should return false")
	}
	sim.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	sim := New()
	var h Handle
	h = atFunc(sim, 1, func(*Simulator) {})
	sim.Run()
	if sim.Cancel(h) {
		t.Fatal("Cancel after fire should return false")
	}
}

func TestStopHaltsRun(t *testing.T) {
	sim := New()
	count := 0
	for i := 1; i <= 10; i++ {
		atFunc(sim, float64(i), func(s *Simulator) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	sim.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop, want 3", count)
	}
	if !sim.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	sim := New()
	sim.MaxEvents = 100
	var loop func(s *Simulator)
	loop = func(s *Simulator) { s.AfterFunc(0.001, loop) }
	sim.AfterFunc(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxEvents panic")
		}
	}()
	sim.Run()
}

func TestPendingSkipsCancelled(t *testing.T) {
	sim := New()
	h1 := atFunc(sim, 1, func(*Simulator) {})
	atFunc(sim, 2, func(*Simulator) {})
	sim.Cancel(h1)
	if sim.q.live != 1 {
		t.Fatalf("Pending %d, want 1", sim.q.live)
	}
}

func TestFiredCounter(t *testing.T) {
	sim := New()
	for i := 0; i < 7; i++ {
		atFunc(sim, float64(i), func(*Simulator) {})
	}
	sim.Run()
	if sim.Fired() != 7 {
		t.Fatalf("Fired %d, want 7", sim.Fired())
	}
}

func TestHandleValidity(t *testing.T) {
	var zero Handle
	if zero.item != nil {
		t.Fatal("zero Handle should refer to no event")
	}
	sim := New()
	h := atFunc(sim, 1, func(*Simulator) {})
	if h.item == nil || h.gen != h.item.gen {
		t.Fatal("real handle does not refer to its event")
	}
	sim.Cancel(h)
	if !h.item.cancelled {
		t.Fatal("cancelled handle's event not marked cancelled")
	}
}

// Property: for any multiset of timestamps, Run fires all of them in
// non-decreasing order and ends with the clock at the maximum.
func TestQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sim := New()
		var fired []float64
		maxT := 0.0
		for _, r := range raw {
			at := float64(r) / 16
			if at > maxT {
				maxT = at
			}
			at2 := at
			atFunc(sim, at, func(*Simulator) { fired = append(fired, at2) })
		}
		sim.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return sim.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(times []uint8, mask []bool) bool {
		sim := New()
		fired := 0
		handles := make([]Handle, len(times))
		for i, tm := range times {
			handles[i] = atFunc(sim, float64(tm), func(*Simulator) { fired++ })
		}
		cancelled := 0
		for i := range handles {
			if i < len(mask) && mask[i] {
				if sim.Cancel(handles[i]) {
					cancelled++
				}
			}
		}
		sim.Run()
		return fired == len(times)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 1000; j++ {
			atFunc(sim, float64(j%97), func(*Simulator) {})
		}
		sim.Run()
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	sim := New()
	var times []float64
	var stop func()
	stop = sim.Every(5, func(s *Simulator) {
		times = append(times, s.Now())
		if len(times) == 4 {
			stop()
		}
	})
	atFunc(sim, 100, func(*Simulator) {}) // keep the queue alive past the ticks
	sim.Run()
	want := []float64{5, 10, 15, 20}
	if len(times) != 4 {
		t.Fatalf("fired %d times: %v", len(times), times)
	}
	for i, at := range want {
		if times[i] != at {
			t.Fatalf("tick times %v, want %v", times, want)
		}
	}
}

func TestEveryStopsWithSimulator(t *testing.T) {
	sim := New()
	count := 0
	sim.Every(1, func(s *Simulator) {
		count++
		if count == 3 {
			s.Stop()
		}
	})
	sim.Run()
	if count != 3 {
		t.Fatalf("ticks after Stop: %d", count)
	}
}

func TestEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Every(0, func(*Simulator) {})
}

// atFunc schedules f at an absolute time.
func atFunc(s *Simulator, at Time, f func(*Simulator)) Handle {
	return s.At(at, EventFunc(f))
}
