package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refHeap is a minimal container/heap priority queue over (at, seq),
// written independently of eventQueue, used as the ordering oracle in
// the differential tests.
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

// heapDiff drives a Simulator and the reference heap through the same
// schedule, cancel and pop operations and fails the test at the first
// pop where the two disagree on (at, seq) order.
type heapDiff struct {
	t    testing.TB
	s    *Simulator
	ref  refHeap
	live []scheduled
	// fired is the (at, seq) of the event the simulator fired last.
	fired refItem
	// last is the time of the latest scheduled event, for exact ties.
	last Time
	pops int
}

type scheduled struct {
	h  Handle
	ri *refItem
}

func newHeapDiff(t testing.TB) *heapDiff { return &heapDiff{t: t, s: New()} }

func (d *heapDiff) schedule(at Time) {
	ri := &refItem{at: at, seq: d.s.seq}
	h := atFunc(d.s, at, func(sim *Simulator) { d.fired = refItem{at: sim.Now(), seq: ri.seq} })
	d.ref.push(ri)
	d.live = append(d.live, scheduled{h, ri})
	d.last = at
}

// cancel cancels the k-th still-listed event (a no-op if it already
// fired) and drops it from the list.
func (d *heapDiff) cancel(k int) {
	if len(d.live) == 0 {
		return
	}
	k %= len(d.live)
	if sc := d.live[k]; d.s.Cancel(sc.h) {
		sc.ri.cancelled = true
	}
	d.live = append(d.live[:k], d.live[k+1:]...)
}

// pop fires one event on each side and compares them; it returns false
// once both are empty.
func (d *heapDiff) pop() bool {
	var want *refItem
	for d.ref.Len() > 0 {
		if it := d.ref.popMin(); !it.cancelled {
			want = it
			break
		}
	}
	if want == nil {
		if d.s.Step() {
			d.t.Fatalf("pop %d: simulator fired (at=%g seq=%d), the reference heap is empty", d.pops, d.fired.at, d.fired.seq)
		}
		return false
	}
	if !d.s.Step() {
		d.t.Fatalf("pop %d: simulator empty, the reference heap has (at=%g seq=%d)", d.pops, want.at, want.seq)
	}
	if d.fired.at != want.at || d.fired.seq != want.seq {
		d.t.Fatalf("pop %d diverged: got (at=%g seq=%d), want (at=%g seq=%d)",
			d.pops, d.fired.at, d.fired.seq, want.at, want.seq)
	}
	d.pops++
	return true
}

func (d *heapDiff) drain() {
	for d.pop() {
	}
}

// TestCalendarVsHeapDifferential drives a Simulator and a reference heap
// through the same randomized event sequence — bursty inserts, heavy
// same-timestamp ties, random cancellations, interleaved pops — and
// asserts the pop order is identical, including FIFO order at ties.
func TestCalendarVsHeapDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			d := newHeapDiff(t)
			for round := 0; round < 200; round++ {
				// Insert a burst: mixture of spread-out, clustered and
				// exactly tied timestamps (ties exercise FIFO ordering).
				now := d.s.Now()
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
					d.schedule(at)
				}
				// Cancel a random subset of still-live events.
				for i := 0; i < len(d.live); i++ {
					if r.Intn(10) == 0 {
						d.cancel(i)
						i--
					}
				}
				// Pop a random number of events from both structures.
				for pops := r.Intn(15); pops > 0 && d.pop(); pops-- {
				}
			}
			d.drain()
		})
	}
}

// FuzzQueueMatchesHeap decodes a sequence of operations from bytes and
// requires the event queue's pop order to equal the reference heap's.
// Each operation takes two bytes, an opcode and an argument: schedule
// near the clock, schedule at the exact time of the latest event (a
// tie), schedule far ahead (up to 1e300 and +Inf), a burst of up to 64
// events (grow swings), cancel (which may reap), pop a few, and pop
// everything. Whatever is left is drained at the end.
func FuzzQueueMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 2, 0, 6, 1, 1, 40, 5, 1, 6, 3})
	f.Add([]byte{4, 63, 4, 200, 5, 7, 6, 15, 7, 0, 4, 63, 6, 2})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 0, 9, 6, 0, 4, 33, 7, 0, 3, 3, 6, 5})
	f.Add([]byte{4, 255, 4, 254, 4, 253, 4, 252, 5, 0, 5, 9, 7, 0, 4, 17, 2, 0, 7, 0})
	f.Add([]byte("calendar queue against container/heap"))
	// A burst of 20, then 12 cancels: the 12th triggers a reap.
	f.Add([]byte{4, 19, 5, 0, 5, 3, 5, 6, 5, 9, 5, 2, 5, 5, 5, 1, 5, 4, 5, 7, 5, 0, 5, 2, 5, 3, 6, 4, 0, 9, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newHeapDiff(t)
		for ; len(data) >= 2; data = data[2:] {
			now, arg := d.s.Now(), data[1]
			switch data[0] % 8 {
			case 0, 1:
				d.schedule(now + float64(arg)/8)
			case 2:
				d.schedule(math.Max(d.last, now))
			case 3:
				switch arg % 4 {
				case 0:
					d.schedule(now + float64(arg)*1e6)
				case 1:
					d.schedule(math.Max(now, 1e300))
				case 2:
					d.schedule(math.Inf(1))
				default:
					d.schedule(now + 1e9 + float64(arg)/64)
				}
			case 4:
				for j := 0; j <= int(arg%64); j++ {
					d.schedule(now + float64((j*int(arg))%17)/4)
				}
			case 5:
				d.cancel(int(arg))
			case 6:
				for pops := int(arg%16) + 1; pops > 0 && d.pop(); pops-- {
				}
			case 7:
				d.drain()
			}
		}
		d.drain()
	})
}

// TestCalendarSparseAndDense schedules events at spacings from 1e-4 to
// 1e6 time units, interleaved with pops, and asserts the pop order at
// every spacing.
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

// TestCalendarFarFutureEvent checks that events at an enormous and at an
// infinite timestamp pop last, in order.
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
	if s.q.cancelled > s.q.live {
		t.Fatalf("reap did not run: %d cancelled vs %d live still stored", s.q.cancelled, s.q.live)
	}
	if got := s.q.live; got != 10 {
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
// cycle is allocation-free: items come from the free list and the heap
// slice reuses its capacity, so a long simulation's event churn costs no GC
// pressure beyond warm-up.
func TestSteadyStateAllocationCeiling(t *testing.T) {
	s := New()
	r := rand.New(rand.NewSource(5))
	// Warm up: grow the free list and the heap slice to their
	// steady-state footprint.
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
	// slack for rare slice growth.
	if allocs > 9 {
		t.Fatalf("steady-state schedule/pop allocates %.1f objects per cycle, want <= 9 (1 per closure + slack)", allocs)
	}

	// A cycle that fills the queue with 300 items and drains it. Driven
	// on the queue itself, the first cycle grows the heap slice to its
	// peak; every later cycle reuses it and allocates nothing. There are
	// no closures here to pay for.
	var q eventQueue
	items := make([]*item, 300)
	for i := range items {
		items[i] = &item{}
	}
	growDrainCycle := func() {
		for i, it := range items {
			q.insert(float64(i%97)+float64(i)/300, uint64(i), it)
		}
		if len(q.heap) != len(items) {
			t.Fatalf("queue holds %d items, want %d", len(q.heap), len(items))
		}
		for _, it := q.popMin(); it != nil; _, it = q.popMin() {
		}
		if len(q.heap) != 0 || q.live != 0 {
			t.Fatalf("drained queue holds %d items (%d live), want 0", len(q.heap), q.live)
		}
	}
	growDrainCycle()
	if allocs := testing.AllocsPerRun(100, growDrainCycle); allocs != 0 {
		t.Fatalf("grow/drain cycle allocates %.1f objects, want 0", allocs)
	}
}

// holdEvent reschedules itself Exp(mean 10) time units ahead each time it
// fires: the classic hold model, one pop and one insert per event.
type holdEvent struct{ r *rand.Rand }

func (h holdEvent) Fire(sim *Simulator) { sim.After(h.r.ExpFloat64()*10, h) }

// BenchmarkHold measures one hold operation (pop the earliest event,
// schedule its successor) at a fixed number of pending events. 64 is
// about the depth of a figures point, 2048 about that of a 250-site scale
// run.
func BenchmarkHold(b *testing.B) {
	for _, pending := range []int{64, 2048} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := New()
			ev := holdEvent{r: rand.New(rand.NewSource(1))}
			for i := 0; i < pending; i++ {
				s.After(ev.r.ExpFloat64()*10, ev)
			}
			// Warm up so the pending times reach the model's steady spread.
			for i := 0; i < 10*pending; i++ {
				s.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
