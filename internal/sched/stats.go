package sched

import "sync"

// RunStats are the engine's cheap per-run instrumentation counters,
// snapshotted into Result.Stats at the end of every run. The engine
// maintains them as plain integer fields on its single-threaded event
// loop, so collecting them costs an increment per decision — no atomics,
// no allocations, no branches on the inner loop — and they are always on.
type RunStats struct {
	// Events is the total number of simulator events fired.
	Events uint64 `json:"events"`
	// TasksScheduled counts task executions started (retries after a
	// processor failure included, so it can exceed the task count).
	TasksScheduled uint64 `json:"tasks_scheduled"`
	// GroupsPlaced counts merge groups closed and handed to placement.
	GroupsPlaced uint64 `json:"groups_placed"`
	// Splits counts tasks pulled forward out of a non-head group by the
	// split process (§IV.D.2).
	Splits uint64 `json:"splits"`
	// Backlogged counts groups deferred because no candidate node had a
	// free queue slot.
	Backlogged uint64 `json:"backlogged"`
	// HeapHighWater is the peak pending-event queue length.
	HeapHighWater uint64 `json:"heap_high_water"`
	// TimelineDrops counts trace events the attached timeline tracer
	// could not pair (see trace.Timeline.Dropped); zero when no timeline
	// is attached. A non-zero value means the exported Gantt data is
	// missing executions.
	TimelineDrops uint64 `json:"timeline_drops"`
	// MemoryLookups/MemoryHits count shared-memory similarity queries and
	// the subset that returned a usable past experience; MemoryEvictions
	// counts records dropped by per-agent ring overflow. MemoryOccupancy
	// is the record count retained at the end of the run (aggregated by
	// maximum across runs, the others by sum).
	MemoryLookups   uint64 `json:"memory_lookups"`
	MemoryHits      uint64 `json:"memory_hits"`
	MemoryEvictions uint64 `json:"memory_evictions"`
	MemoryOccupancy uint64 `json:"memory_occupancy"`
}

// Stats aggregates RunStats across runs, so the parallel campaign
// runner's worker goroutines can all fold their runs into one job-level
// tally. A campaign folds each point's Result.Stats in through its
// Progress hook (see experiments.Profile.Progress), whether the point
// ran locally, remotely or came from the result cache. It is safe for
// concurrent use, and a nil *Stats is inert.
type Stats struct {
	mu   sync.Mutex
	sum  RunStats
	runs uint64
}

// Add folds one run's counters in (HeapHighWater and MemoryOccupancy by
// maximum, the others by sum).
func (s *Stats) Add(r RunStats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := &s.sum
	a.Events += r.Events
	a.TasksScheduled += r.TasksScheduled
	a.GroupsPlaced += r.GroupsPlaced
	a.Splits += r.Splits
	a.Backlogged += r.Backlogged
	a.HeapHighWater = max(a.HeapHighWater, r.HeapHighWater)
	a.TimelineDrops += r.TimelineDrops
	a.MemoryLookups += r.MemoryLookups
	a.MemoryHits += r.MemoryHits
	a.MemoryEvictions += r.MemoryEvictions
	a.MemoryOccupancy = max(a.MemoryOccupancy, r.MemoryOccupancy)
	s.runs++
}

// Snapshot returns the aggregate counters (HeapHighWater and
// MemoryOccupancy are the max over runs, everything else a sum).
func (s *Stats) Snapshot() RunStats {
	if s == nil {
		return RunStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Runs returns how many engine runs have been folded in.
func (s *Stats) Runs() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}
