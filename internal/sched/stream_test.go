package sched

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/workload"
)

// streamScenario builds one deterministic platform + task slice; callers
// construct engines over it in different modes and compare results.
func streamScenario(t *testing.T, n int, seed uint64) (*platform.Platform, []*workload.Task, *rng.Stream) {
	t.Helper()
	r := rng.NewStream(seed, "stream")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 3
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 3
	pl := platform.MustGenerate(pcfg, r.Split("platform"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = n
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("workload"))
	return pl, tasks, r
}

// TestNewFromSourceMatchesNew: feeding the same tasks through a streaming
// Source must be bit-for-bit equivalent to handing over the full slice.
func TestNewFromSourceMatchesNew(t *testing.T) {
	plA, tasksA, rA := streamScenario(t, 400, 7)
	engA := MustNew(DefaultConfig(), plA, tasksA, NewGreedy(), rA.Split("engine"))
	a := engA.MustRun()

	plB, tasksB, rB := streamScenario(t, 400, 7)
	engB, err := NewFromSource(DefaultConfig(), plB, workload.FromSlice(tasksB), NewGreedy(), rB.Split("engine"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engB.Run()
	if err != nil {
		t.Fatal(err)
	}

	if a.Completed != b.Completed || a.Submitted != b.Submitted || a.DeadlineHits != b.DeadlineHits {
		t.Fatalf("counts differ: %+v vs %+v", a, b)
	}
	exact := [][2]float64{
		{a.AveRT, b.AveRT}, {a.MeanWait, b.MeanWait}, {a.ECS, b.ECS},
		{a.SuccessRate, b.SuccessRate}, {a.MeanUtilization, b.MeanUtilization},
		{a.EndTime, b.EndTime}, {a.MeanGroupSize, b.MeanGroupSize},
		{a.MeanGroupLVal, b.MeanGroupLVal},
	}
	for i, pair := range exact {
		if pair[0] != pair[1] {
			t.Fatalf("metric %d differs: %g vs %g", i, pair[0], pair[1])
		}
	}
	if len(a.UtilWindows) != len(b.UtilWindows) {
		t.Fatalf("UtilWindows length %d vs %d", len(a.UtilWindows), len(b.UtilWindows))
	}
	for i := range a.UtilWindows {
		if a.UtilWindows[i] != b.UtilWindows[i] {
			t.Fatalf("UtilWindows[%d] differs: %g vs %g", i, a.UtilWindows[i], b.UtilWindows[i])
		}
	}
}

// TestLowMemoryAgreesWithRetained: LowMemory aggregates on the fly; the
// schedule itself is untouched, so counters and means must match exactly
// and the utilisation series to float-summation tolerance.
func TestLowMemoryAgreesWithRetained(t *testing.T) {
	plA, tasksA, rA := streamScenario(t, 400, 11)
	a := MustNew(DefaultConfig(), plA, tasksA, NewGreedy(), rA.Split("engine")).MustRun()

	plB, tasksB, rB := streamScenario(t, 400, 11)
	cfg := DefaultConfig()
	cfg.LowMemory = true
	b := MustNew(cfg, plB, tasksB, NewGreedy(), rB.Split("engine")).MustRun()

	if !b.Collector.Streaming() {
		t.Fatal("LowMemory run did not use a streaming collector")
	}
	if a.Completed != b.Completed || a.Submitted != b.Submitted || a.DeadlineHits != b.DeadlineHits {
		t.Fatalf("counts differ: retained %d/%d/%d, streaming %d/%d/%d",
			a.Completed, a.Submitted, a.DeadlineHits, b.Completed, b.Submitted, b.DeadlineHits)
	}
	if ca, cb := a.Collector.Completed(), b.Collector.Completed(); ca != cb {
		t.Errorf("Collector.Completed differs: retained %d, streaming %d", ca, cb)
	}
	if pa, pb := a.Collector.SuccessByPriority(), b.Collector.SuccessByPriority(); !reflect.DeepEqual(pa, pb) {
		t.Errorf("SuccessByPriority differs: retained %v, streaming %v", pa, pb)
	}
	exact := map[string][2]float64{
		"AveRT":         {a.AveRT, b.AveRT},
		"MeanWait":      {a.MeanWait, b.MeanWait},
		"SuccessRate":   {a.SuccessRate, b.SuccessRate},
		"EndTime":       {a.EndTime, b.EndTime},
		"MeanGroupSize": {a.MeanGroupSize, b.MeanGroupSize},
		"MeanGroupLVal": {a.MeanGroupLVal, b.MeanGroupLVal},
	}
	for name, pair := range exact {
		if pair[0] != pair[1] {
			t.Errorf("%s differs: retained %g, streaming %g", name, pair[0], pair[1])
		}
	}
	// Only the retained path calls AdvanceAll at every learning cycle, so
	// the two runs split the energy integrals at different instants: same
	// quantities, different float rounding (ECS differs in the last bit
	// for some seeds, e.g. 2 and 11).
	if d := math.Abs(a.ECS - b.ECS); d > 1e-9*math.Abs(a.ECS) {
		t.Errorf("ECS differs: retained %g, streaming %g", a.ECS, b.ECS)
	}
	if len(a.UtilWindows) != len(b.UtilWindows) {
		t.Fatalf("UtilWindows length %d vs %d", len(a.UtilWindows), len(b.UtilWindows))
	}
	for i := range a.UtilWindows {
		if d := math.Abs(a.UtilWindows[i] - b.UtilWindows[i]); d > 1e-6*(1+math.Abs(a.UtilWindows[i])) {
			t.Errorf("UtilWindows[%d]: retained %g, streaming %g", i, a.UtilWindows[i], b.UtilWindows[i])
		}
	}
	// RTPercentile is histogram-approximate in streaming mode (~5%
	// relative bucket width; allow slack for rank-vs-bucket effects).
	pa, pb := a.Collector.RTPercentile(95), b.Collector.RTPercentile(95)
	if pa > 0 && math.Abs(pa-pb)/pa > 0.10 {
		t.Errorf("RTPercentile(95): retained %g, streaming %g", pa, pb)
	}
	if len(b.Collector.Tasks()) != 0 || len(b.Collector.Groups()) != 0 {
		t.Errorf("streaming collector retained %d tasks / %d groups",
			len(b.Collector.Tasks()), len(b.Collector.Groups()))
	}
	if err := b.Collector.Validate(); err != nil {
		t.Errorf("streaming collector invalid: %v", err)
	}
}

func TestEmptySourceError(t *testing.T) {
	pl, _, r := streamScenario(t, 10, 3)
	eng, err := NewFromSource(DefaultConfig(), pl, workload.FromSlice(nil), NewGreedy(), r.Split("engine"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("empty source: want error, got nil")
	}
}

func TestOutOfOrderSourceError(t *testing.T) {
	pl, tasks, r := streamScenario(t, 10, 3)
	// Swap two arrivals so the source violates its ordering contract.
	tasks[3], tasks[4] = tasks[4], tasks[3]
	eng, err := NewFromSource(DefaultConfig(), pl, workload.FromSlice(tasks), NewGreedy(), r.Split("engine"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("out-of-order source: want InvariantError, got %v", err)
	}
}
