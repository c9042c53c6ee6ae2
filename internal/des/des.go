// Package des implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a calendar queue of timestamped
// events (see calendar.go — amortised O(1) insert/pop, so multi-million-event
// runs do not pay a log-factor per event). Events scheduled for the same
// instant are executed in FIFO order of scheduling (a monotone sequence
// number breaks ties), which makes runs bit-for-bit reproducible for a fixed
// seed regardless of map iteration or goroutine scheduling — the engine is
// strictly single-threaded.
//
// The paper's evaluation (ICPP'11, §V) is a pure simulation study; this
// package is the substrate every experiment runs on.
package des

import (
	"fmt"
	"math"
)

// Time is the simulator's virtual time, in abstract "time units"
// (the paper reports response times in "t units").
type Time = float64

// Event is a scheduled callback. Fire is invoked exactly once, when the
// simulation clock reaches the event's timestamp, unless the event was
// cancelled first.
type Event interface {
	// Fire executes the event's effect. The engine passes itself so events
	// can schedule follow-up events.
	Fire(sim *Simulator)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(sim *Simulator)

// Fire implements Event.
func (f EventFunc) Fire(sim *Simulator) { f(sim) }

// Handle identifies a scheduled event and allows cancellation. Queue items
// are recycled once fired or reaped, so the handle carries the item's
// generation: a stale handle (whose item has been reused for a later
// event) is inert rather than aliasing the new event.
type Handle struct {
	item *item
	gen  uint64
}

// item is a calendar-queue entry.
type item struct {
	at        Time
	seq       uint64
	gen       uint64
	ev        Event
	cancelled bool
	queued    bool // in the calendar (not yet popped or reaped)
}

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now      Time
	seq      uint64
	cal      calendar
	fired    uint64
	maxQueue int
	stopped  bool

	// free recycles popped queue items so steady-state scheduling does not
	// allocate (a simulation fires millions of events; see item.gen for
	// how stale Handles stay safe).
	free []*item

	// MaxEvents bounds the total number of fired events as a runaway
	// guard; zero means no bound.
	MaxEvents uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// HeapHighWater returns the largest pending-event queue length observed
// so far (cancelled-but-unreaped entries included) — a cheap proxy for
// the simulation's peak event pressure.
func (s *Simulator) HeapHighWater() int { return s.maxQueue }

// At schedules ev to fire at absolute time at. Scheduling in the past
// (before Now) panics: it would silently corrupt causality.
func (s *Simulator) At(at Time, ev Event) Handle {
	if math.IsNaN(at) {
		panic("des: scheduling at NaN time")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event in the past: at=%g now=%g", at, s.now))
	}
	var it *item
	if n := len(s.free); n > 0 {
		it = s.free[n-1]
		s.free = s.free[:n-1]
		it.at, it.seq, it.ev, it.cancelled = at, s.seq, ev, false
	} else {
		it = &item{at: at, seq: s.seq, ev: ev}
	}
	s.seq++
	s.cal.insert(it)
	if s.cal.total > s.maxQueue {
		s.maxQueue = s.cal.total
	}
	return Handle{item: it, gen: it.gen}
}

// release returns a popped item to the free list. Bumping the generation
// invalidates every outstanding Handle to it before reuse.
func (s *Simulator) release(it *item) {
	it.gen++
	it.ev = nil
	s.free = append(s.free, it)
}

// After schedules ev to fire delay time units from now. Negative delays
// panic.
func (s *Simulator) After(delay Time, ev Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %g", delay))
	}
	return s.At(s.now+delay, ev)
}

// AfterFunc is shorthand for After with an EventFunc.
func (s *Simulator) AfterFunc(delay Time, f func(sim *Simulator)) Handle {
	return s.After(delay, EventFunc(f))
}

// Cancel marks the event behind h so that it will not fire. Cancelling an
// already-fired or already-cancelled event is a no-op. Returns whether the
// event was actually cancelled by this call. Cancelled entries are lazily
// dropped when popped, and eagerly reaped in bulk once they outnumber the
// live entries, so cancel-heavy runs do not accumulate dead events.
func (s *Simulator) Cancel(h Handle) bool {
	if h.item == nil || h.gen != h.item.gen || h.item.cancelled || !h.item.queued {
		return false
	}
	h.item.cancelled = true
	s.cal.noteCancelled()
	if s.cal.needsReap() {
		s.cal.reap(s.release)
	}
	return true
}

// Stop makes Run return after the currently firing event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop was called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Step fires the single next event, advancing the clock. It returns false
// when the queue is empty (skipping over cancelled entries).
func (s *Simulator) Step() bool {
	for {
		it := s.cal.popMin()
		if it == nil {
			return false
		}
		if it.cancelled {
			s.release(it)
			continue
		}
		s.now = it.at
		s.cal.advanceTo(s.now)
		s.fired++
		ev := it.ev
		s.release(it)
		ev.Fire(s)
		return true
	}
}

// Run executes events until the queue drains, Stop is called, or MaxEvents
// is exceeded (which panics — it indicates a scheduling loop). It returns
// the final clock value.
func (s *Simulator) Run() Time {
	for !s.stopped {
		if s.MaxEvents > 0 && s.fired >= s.MaxEvents {
			panic(fmt.Sprintf("des: MaxEvents (%d) exceeded at t=%g — likely a scheduling loop", s.MaxEvents, s.now))
		}
		if !s.Step() {
			break
		}
	}
	return s.now
}

// Every schedules fn to run every interval time units, starting one
// interval from now, until the returned stop function is called or the
// simulator stops. It is the idiomatic way to express decision intervals
// and periodic sampling.
func (s *Simulator) Every(interval Time, fn func(sim *Simulator)) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("des: Every interval must be positive, got %g", interval))
	}
	stopped := false
	var schedule func()
	schedule = func() {
		s.AfterFunc(interval, func(sim *Simulator) {
			if stopped || sim.Stopped() {
				return
			}
			fn(sim)
			if !stopped && !sim.Stopped() {
				schedule()
			}
		})
	}
	schedule()
	return func() { stopped = true }
}
