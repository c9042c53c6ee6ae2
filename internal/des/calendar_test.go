package des

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap is a minimal container/heap priority queue over (at, seq) —
// the structure the calendar queue replaced — used as the ordering
// oracle in the differential tests.
type refHeap []*refItem

type refItem struct {
	at        Time
	seq       uint64
	cancelled bool
}

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)       { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any         { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *refHeap) popMin() *refItem { return heap.Pop(h).(*refItem) }
func (h *refHeap) push(it *refItem) { heap.Push(h, it) }

// TestCalendarVsHeapDifferential drives a Simulator and a reference heap
// through the same randomized event sequence — bursty inserts, heavy
// same-timestamp ties, random cancellations, interleaved pops — and
// asserts the pop order is identical, including FIFO order at ties.
func TestCalendarVsHeapDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1234} {
		seed := seed
		r := rand.New(rand.NewSource(seed))
		s := New()
		ref := &refHeap{}

		type scheduled struct {
			h  Handle
			ri *refItem
		}
		var live []scheduled
		var got, want []Time
		var gotSeq, wantSeq []uint64
		now := 0.0

		schedule := func(at Time) {
			ri := &refItem{at: at, seq: s.seq}
			h := atFunc(s, at, func(sim *Simulator) {
				got = append(got, sim.Now())
				gotSeq = append(gotSeq, ri.seq)
			})
			ref.push(ri)
			live = append(live, scheduled{h, ri})
		}

		for round := 0; round < 200; round++ {
			// Insert a burst: mixture of spread-out, clustered and exactly
			// tied timestamps (ties exercise FIFO ordering).
			n := 1 + r.Intn(20)
			base := now + r.Float64()*50
			for i := 0; i < n; i++ {
				at := base
				switch r.Intn(3) {
				case 0:
					at = now + r.Float64()*200
				case 1:
					at = base + float64(r.Intn(3)) // exact ties
				}
				if at < now {
					at = now
				}
				schedule(at)
			}
			// Cancel a random subset of still-live events.
			for i := 0; i < len(live); i++ {
				if r.Intn(10) == 0 {
					sc := live[i]
					if s.Cancel(sc.h) {
						sc.ri.cancelled = true
					}
					live = append(live[:i], live[i+1:]...)
					i--
				}
			}
			// Pop a random number of events from both structures.
			pops := r.Intn(15)
			for i := 0; i < pops; i++ {
				var r1 *refItem
				for ref.Len() > 0 {
					it := ref.popMin()
					if !it.cancelled {
						r1 = it
						break
					}
				}
				if r1 == nil {
					if s.Step() {
						t.Fatalf("seed %d: simulator fired an event the reference heap did not have", seed)
					}
					break
				}
				want = append(want, r1.at)
				wantSeq = append(wantSeq, r1.seq)
				if !s.Step() {
					t.Fatalf("seed %d: simulator empty but reference heap has event at %g", seed, r1.at)
				}
				now = s.Now()
			}
		}
		// Drain both.
		for {
			var r1 *refItem
			for ref.Len() > 0 {
				it := ref.popMin()
				if !it.cancelled {
					r1 = it
					break
				}
			}
			if r1 == nil {
				break
			}
			want = append(want, r1.at)
			wantSeq = append(wantSeq, r1.seq)
			if !s.Step() {
				t.Fatalf("seed %d: simulator drained early", seed)
			}
		}
		if s.Step() {
			t.Fatalf("seed %d: simulator fired extra events after reference drained", seed)
		}

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference expected %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || gotSeq[i] != wantSeq[i] {
				t.Fatalf("seed %d: pop %d diverged: got (at=%g seq=%d), want (at=%g seq=%d)",
					seed, i, got[i], gotSeq[i], want[i], wantSeq[i])
			}
		}
	}
}

// TestCalendarSparseAndDense pushes the two width failure modes: events
// thousands of times denser than the initial bucket width, then events
// thousands of times sparser, asserting order both times.
func TestCalendarSparseAndDense(t *testing.T) {
	for _, scale := range []float64{1e-4, 1e-3, 1, 1e3, 1e6} {
		s := New()
		var got []Time
		var want []Time
		r := rand.New(rand.NewSource(99))
		now := 0.0
		for i := 0; i < 2000; i++ {
			at := now + r.Float64()*scale
			want = append(want, at)
			atFunc(s, at, func(sim *Simulator) { got = append(got, sim.Now()) })
			if i%3 == 0 {
				s.Step()
				now = s.Now()
			}
		}
		for s.Step() {
		}
		if len(got) != len(want) {
			t.Fatalf("scale %g: fired %d of %d", scale, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("scale %g: out-of-order pop at %d: %g after %g", scale, i, got[i], got[i-1])
			}
		}
	}
}

// TestCalendarFarFutureEvent checks that an event at an enormous (and an
// infinite) timestamp neither corrupts ordering nor overflows bucket
// arithmetic.
func TestCalendarFarFutureEvent(t *testing.T) {
	s := New()
	var got []Time
	rec := func(sim *Simulator) { got = append(got, sim.Now()) }
	atFunc(s, 1e300, rec)
	atFunc(s, 5, rec)
	atFunc(s, math.Inf(1), rec)
	atFunc(s, 10, rec)
	for s.Step() {
	}
	wantOrder := []Time{5, 10, 1e300, math.Inf(1)}
	if len(got) != len(wantOrder) {
		t.Fatalf("fired %d events, want %d", len(got), len(wantOrder))
	}
	for i, at := range wantOrder {
		if got[i] != at {
			t.Fatalf("pop %d: got %g, want %g", i, got[i], at)
		}
	}
}

// TestCancelledReaping asserts the compaction satellite: cancelling the
// bulk of the queue reclaims the entries promptly (they must not linger
// until popped), while the survivors still fire in order.
func TestCancelledReaping(t *testing.T) {
	s := New()
	var handles []Handle
	var got []Time
	for i := 0; i < 1000; i++ {
		at := float64(i)
		handles = append(handles, atFunc(s, at, func(sim *Simulator) { got = append(got, sim.Now()) }))
	}
	// Cancel all but every 100th event.
	for i, h := range handles {
		if i%100 != 0 {
			if !s.Cancel(h) {
				t.Fatalf("cancel %d failed", i)
			}
		}
	}
	if s.cal.cancelled > s.cal.live {
		t.Fatalf("reap did not run: %d cancelled vs %d live still stored", s.cal.cancelled, s.cal.live)
	}
	if got := s.cal.live; got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	for s.Step() {
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for i, at := range got {
		if at != float64(i*100) {
			t.Fatalf("pop %d at t=%g, want %g", i, at, float64(i*100))
		}
	}
}

// TestSteadyStateAllocationCeiling asserts the steady-state schedule/pop
// cycle is allocation-free: items come from the free list and buckets
// reuse their capacity, so a long simulation's event churn costs no GC
// pressure beyond warm-up.
func TestSteadyStateAllocationCeiling(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(5))
	// Warm up: grow the free list, bucket capacities and calendar size to
	// their steady-state footprint.
	for i := 0; i < 4096; i++ {
		s.AfterFunc(r.Float64()*10, func(sim *Simulator) {})
		if i%2 == 1 {
			s.Step()
		}
	}
	for s.Step() {
	}

	allocs := testing.AllocsPerRun(2000, func() {
		// One steady-state cycle: a handful of schedules then pops, as the
		// engine does per task event.
		for i := 0; i < 8; i++ {
			s.AfterFunc(r.Float64()*10, func(sim *Simulator) {})
		}
		for i := 0; i < 8; i++ {
			s.Step()
		}
	})
	// The closure passed to AfterFunc escapes and costs one allocation per
	// schedule; the queue itself must add nothing on top. Allow a small
	// slack for rare resizes.
	if allocs > 9 {
		t.Fatalf("steady-state schedule/pop allocates %.1f objects per cycle, want <= 9 (1 per closure + slack)", allocs)
	}
}
