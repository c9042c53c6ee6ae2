package sched

import (
	"sync"
	"testing"

	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

// statsScenario builds a small runnable engine scenario.
func statsScenario(t testing.TB, seed uint64, cfg Config) *Engine {
	t.Helper()
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	r := rng.NewStream(seed, "stats-test")
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.GenConfig{
		NumTasks:         300,
		MeanInterArrival: 2,
		MinSizeMI:        600,
		MaxSizeMI:        7200,
		SlowestSpeedMIPS: pcfg.MinSpeedMIPS,
		Mix:              workload.DefaultMix(),
	}
	tasks, err := workload.Generate(wcfg, r.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	return MustNew(cfg, pl, tasks, NewGreedy(), r.Split("engine"))
}

func TestRunStatsCollected(t *testing.T) {
	res := statsScenario(t, 1, DefaultConfig()).MustRun()
	s := res.Stats
	if s.Events == 0 || s.HeapHighWater == 0 {
		t.Fatalf("event counters empty: %+v", s)
	}
	if s.TasksScheduled != uint64(res.Completed) {
		t.Fatalf("TasksScheduled = %d, want %d (no failures injected)", s.TasksScheduled, res.Completed)
	}
	if s.GroupsPlaced == 0 || s.GroupsPlaced > s.TasksScheduled {
		t.Fatalf("GroupsPlaced = %d out of range (tasks %d)", s.GroupsPlaced, s.TasksScheduled)
	}
}

// TestRunStatsDeterministic guards that the counters — like every other
// result field — are pure functions of the spec.
func TestRunStatsDeterministic(t *testing.T) {
	a := statsScenario(t, 7, DefaultConfig()).MustRun().Stats
	b := statsScenario(t, 7, DefaultConfig()).MustRun().Stats
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestStatsAggregation folds several concurrent runs into one Stats and
// checks the aggregate matches the per-run sums (max for the high-water
// mark). Run under -race this also guards the atomic fold.
func TestStatsAggregation(t *testing.T) {
	agg := new(Stats)
	var wg sync.WaitGroup
	per := make([]RunStats, 4)
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			per[i] = statsScenario(t, uint64(i+1), DefaultConfig()).MustRun().Stats
			agg.Add(per[i])
		}(i)
	}
	wg.Wait()
	var wantEvents, wantTasks uint64
	var wantHW uint64
	for _, r := range per {
		wantEvents += r.Events
		wantTasks += r.TasksScheduled
		if r.HeapHighWater > wantHW {
			wantHW = r.HeapHighWater
		}
	}
	got := agg.Snapshot()
	if got.Events != wantEvents || got.TasksScheduled != wantTasks || got.HeapHighWater != wantHW {
		t.Fatalf("aggregate %+v, want events=%d tasks=%d hw=%d", got, wantEvents, wantTasks, wantHW)
	}
	if agg.Runs() != 4 {
		t.Fatalf("Runs() = %d, want 4", agg.Runs())
	}
	var nilStats *Stats
	nilStats.Add(RunStats{Events: 1}) // must not panic
	if nilStats.Snapshot() != (RunStats{}) || nilStats.Runs() != 0 {
		t.Fatal("nil Stats not inert")
	}
}

// TestDisabledInstrumentationAllocsNothing pins the contract the engine
// benchmark relies on: with tracing disabled, the per-event
// instrumentation sites — the guarded trace emit and the plain counter
// increments — allocate nothing. The trace.F calls below
// would box their arguments if the guard were removed, so this fails
// loudly if someone bypasses e.tracing().
func TestDisabledInstrumentationAllocsNothing(t *testing.T) {
	e := statsScenario(t, 3, DefaultConfig())
	if allocs := testing.AllocsPerRun(1000, func() {
		if e.tracing(trace.LevelDebug) {
			e.emit(trace.LevelDebug, "dispatch", trace.F("task", 1), trace.F("proc", 2))
		}
		e.statTasks++
		e.statSplits++
	}); allocs != 0 {
		t.Fatalf("disabled instrumentation fast path allocates %.1f per op, want 0", allocs)
	}
	// The Stats fold is once per run, not per event, but it must not
	// allocate either.
	agg := new(Stats)
	if allocs := testing.AllocsPerRun(1000, func() {
		agg.Add(RunStats{Events: 10, HeapHighWater: 5})
	}); allocs != 0 {
		t.Fatalf("Stats.Add allocates %.1f per op, want 0", allocs)
	}
}

// TestTimelineDropsSurfaceInRunStats checks the engine reads the
// tracer's drop counter into RunStats (and aggregates it) whenever the
// attached tracer exposes one.
func TestTimelineDropsSurfaceInRunStats(t *testing.T) {
	tl := trace.NewTimeline()
	// Seed one unpairable event so the counter is provably nonzero.
	tl.Emit(trace.Event{At: 0, Level: trace.LevelDebug, Kind: "finish",
		Fields: []trace.Field{trace.F("task", 999), trace.F("proc", 0)}})
	agg := new(Stats)
	cfg := DefaultConfig()
	cfg.Tracer = tl
	res := statsScenario(t, 5, cfg).MustRun()
	agg.Add(res.Stats)
	if res.Stats.TimelineDrops < 1 {
		t.Fatalf("TimelineDrops = %d, want >= 1", res.Stats.TimelineDrops)
	}
	if got := agg.Snapshot().TimelineDrops; got != res.Stats.TimelineDrops {
		t.Fatalf("aggregated TimelineDrops = %d, want %d", got, res.Stats.TimelineDrops)
	}
}
