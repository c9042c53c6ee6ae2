package sched

import (
	"testing"

	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

// failureRun executes a run with failure injection enabled.
func failureRun(t *testing.T, n int, mtbf, repair float64, seed uint64) Result {
	t.Helper()
	return buildRun(t, n, NewGreedy(), seed, func(c *Config) {
		c.FailureMTBF = mtbf
		c.RepairTime = repair
	})
}

func TestFailureInjectionStillCompletesEverything(t *testing.T) {
	res := failureRun(t, 400, 300, 20, 71)
	if res.Completed != 400 {
		t.Fatalf("completed %d/400 under failures", res.Completed)
	}
	if res.Failures == 0 {
		t.Fatal("no failures were injected")
	}
	if err := res.Collector.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailuresDegradeResponseTime(t *testing.T) {
	healthy := buildRun(t, 400, NewGreedy(), 73, nil)
	failing := failureRun(t, 400, 150, 30, 73)
	if failing.Failures == 0 || failing.Restarts == 0 {
		t.Fatalf("expected failures and restarts, got %d/%d", failing.Failures, failing.Restarts)
	}
	if failing.AveRT <= healthy.AveRT {
		t.Fatalf("failures should hurt response time: %g vs %g", failing.AveRT, healthy.AveRT)
	}
	if failing.SuccessRate >= healthy.SuccessRate {
		t.Fatalf("failures should hurt deadline success: %g vs %g",
			failing.SuccessRate, healthy.SuccessRate)
	}
}

func TestFailureDeterminism(t *testing.T) {
	a := failureRun(t, 300, 200, 25, 79)
	b := failureRun(t, 300, 200, 25, 79)
	if a.AveRT != b.AveRT || a.Failures != b.Failures || a.Restarts != b.Restarts {
		t.Fatal("failure injection not deterministic")
	}
}

func TestRestartedTasksRunOnce(t *testing.T) {
	// Validate() already cross-checks group rewards against task records;
	// additionally ensure no task record is duplicated.
	_, recs := recordedRun(t, 300, NewGreedy(), 83, func(c *Config) {
		c.FailureMTBF = 100
		c.RepairTime = 20
	})
	seen := map[int]bool{}
	for _, tr := range recs.Tasks() {
		if seen[tr.ID] {
			t.Fatalf("task %d completed twice", tr.ID)
		}
		seen[tr.ID] = true
	}
	if len(seen) != 300 {
		t.Fatalf("%d distinct tasks completed, want 300", len(seen))
	}
}

func TestFailureEventsTraced(t *testing.T) {
	r := rng.NewStream(89, "fail-trace")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 200
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	counter := trace.NewCounter(trace.LevelDebug)
	cfg := DefaultConfig()
	cfg.FailureMTBF = 150
	cfg.RepairTime = 20
	cfg.Tracer = counter
	res := MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e")).MustRun()
	if got := counter.Count("failure"); got != uint64(res.Failures) {
		t.Fatalf("traced %d failures, result says %d", got, res.Failures)
	}
	if counter.Count("repair") == 0 {
		t.Fatal("no repairs traced")
	}
}

func TestFailedProcessorsDrawNoPower(t *testing.T) {
	p := &platform.Processor{SpeedMIPS: 500, PMaxW: 90, PMinW: 45, Throttle: 1}
	p.SetState(platform.StateFailed, 0)
	p.Advance(10)
	if p.Energy() != 0 {
		t.Fatalf("failed processor consumed %g", p.Energy())
	}
	if p.FailedTime() != 10 {
		t.Fatalf("failed time %g, want 10", p.FailedTime())
	}
}

func TestFailureConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureMTBF = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative MTBF accepted")
	}
	cfg = DefaultConfig()
	cfg.FailureMTBF = 100
	cfg.RepairTime = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("failures without repair time accepted")
	}
	cfg.RepairTime = 10
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid failure config rejected: %v", err)
	}
}
