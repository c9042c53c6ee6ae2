package sched

import (
	"math"
	"testing"
	"testing/quick"

	"rlsched/internal/metrics"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/workload"
)

// runSeed executes one small greedy run for a property check, with a
// record log attached.
func runSeed(seed uint64, n int, failures bool) (Result, *metrics.Records) {
	r := rng.NewStream(seed, "prop")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("platform"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = n
	wcfg.MeanInterArrival = 1.5
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("workload"))
	cfg := DefaultConfig()
	if failures {
		cfg.FailureMTBF = 200
		cfg.RepairTime = 15
	}
	recs := new(metrics.Records)
	cfg.Records = recs
	return MustNew(cfg, pl, tasks, NewGreedy(), r.Split("engine")).MustRun(), recs
}

// Property: for arbitrary seeds (with and without failure injection) the
// engine completes every task, conserves the task set across groups,
// keeps all rates in range and reports energy consistent with a recount.
func TestQuickEngineInvariants(t *testing.T) {
	f := func(seedRaw uint16, sizeRaw uint8, failures bool) bool {
		n := int(sizeRaw)%150 + 30
		res, recs := runSeed(uint64(seedRaw)+1, n, failures)
		if res.Completed != n || res.Submitted != n {
			return false
		}
		if res.SuccessRate < 0 || res.SuccessRate > 1 {
			return false
		}
		if res.MeanUtilization < 0 || res.MeanUtilization > 1 {
			return false
		}
		if res.ECS <= 0 || res.AveRT <= 0 || res.EndTime <= 0 {
			return false
		}
		if res.Collector.Validate() != nil {
			return false
		}
		// Deadline hits reported two ways must agree.
		if res.DeadlineHits != int(math.Round(res.SuccessRate*float64(n))) {
			return false
		}
		// Every task record has consistent timing.
		if len(recs.Tasks()) != n {
			return false
		}
		for _, tr := range recs.Tasks() {
			if tr.ResponseTime < 0 || tr.WaitTime < 0 || tr.ResponseTime < tr.WaitTime {
				return false
			}
			if tr.FinishedAt > res.EndTime+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is a function of its seed — rerunning any seed
// reproduces the result exactly.
func TestQuickEngineDeterminism(t *testing.T) {
	f := func(seedRaw uint16, failures bool) bool {
		seed := uint64(seedRaw) + 1
		a, _ := runSeed(seed, 80, failures)
		b, _ := runSeed(seed, 80, failures)
		return a.AveRT == b.AveRT && a.ECS == b.ECS && a.EndTime == b.EndTime &&
			a.Failures == b.Failures && a.Restarts == b.Restarts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time recovered from the platform equals the sum of
// executed task durations (work conservation — no execution is lost or
// double-counted), within float tolerance. Failure runs abort executions,
// so partial runs make busy time exceed the final execution times; the
// property is asserted for healthy runs.
func TestQuickWorkConservation(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := uint64(seedRaw) + 1
		r := rng.NewStream(seed, "wc")
		pcfg := platform.DefaultGenConfig()
		pcfg.Sites = 2
		pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
		pl := platform.MustGenerate(pcfg, r.Split("platform"))
		wcfg := workload.DefaultGenConfig()
		wcfg.NumTasks = 100
		wcfg.MeanInterArrival = 1.5
		wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
		tasks := workload.MustGenerate(wcfg, r.Split("workload"))
		res := MustNew(DefaultConfig(), pl, tasks, NewGreedy(), r.Split("engine")).MustRun()
		if res.Completed != 100 {
			return false
		}
		execSum := 0.0
		for _, task := range tasks {
			execSum += task.SizeMI / task.ProcessorSpeed
		}
		pl.AdvanceAll(res.EndTime)
		busySum := 0.0
		for _, p := range pl.Processors() {
			busySum += p.BusyTime()
		}
		return math.Abs(busySum-execSum) < 1e-6*execSum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
