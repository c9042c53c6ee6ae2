package sched

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"rlsched/internal/grouping"
	"rlsched/internal/metrics"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

// buildRun constructs a small platform + workload + engine with the given
// policy and task count.
func buildRun(t *testing.T, n int, policy Policy, seed uint64, mutate func(*Config)) Result {
	t.Helper()
	r := rng.NewStream(seed, "run")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 3
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 3
	pl := platform.MustGenerate(pcfg, r.Split("platform"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = n
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("workload"))
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	eng := MustNew(cfg, pl, tasks, policy, r.Split("engine"))
	return eng.MustRun()
}

// recordedRun is buildRun with a record log attached; it fails the test
// unless the log holds one record per completed task.
func recordedRun(t *testing.T, n int, policy Policy, seed uint64, mutate func(*Config)) (Result, *metrics.Records) {
	t.Helper()
	recs := new(metrics.Records)
	res := buildRun(t, n, policy, seed, func(c *Config) {
		c.Records = recs
		if mutate != nil {
			mutate(c)
		}
	})
	if len(recs.Tasks()) != res.Completed {
		t.Fatalf("record log holds %d tasks, %d completed", len(recs.Tasks()), res.Completed)
	}
	return res, recs
}

func TestRunCompletesAllTasks(t *testing.T) {
	res := buildRun(t, 300, NewGreedy(), 1, nil)
	if res.Completed != 300 || res.Submitted != 300 {
		t.Fatalf("completed %d/%d", res.Completed, res.Submitted)
	}
	if res.AveRT <= 0 {
		t.Fatalf("AveRT %g must be positive", res.AveRT)
	}
	if res.ECS <= 0 {
		t.Fatalf("ECS %g must be positive", res.ECS)
	}
	if res.SuccessRate < 0 || res.SuccessRate > 1 {
		t.Fatalf("success rate %g out of [0,1]", res.SuccessRate)
	}
	if res.MeanUtilization <= 0 || res.MeanUtilization > 1 {
		t.Fatalf("utilisation %g out of (0,1]", res.MeanUtilization)
	}
	if res.EndTime <= 0 {
		t.Fatal("end time must be positive")
	}
	if err := res.Collector.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := buildRun(t, 200, NewGreedy(), 7, nil)
	b := buildRun(t, 200, NewGreedy(), 7, nil)
	if a.AveRT != b.AveRT || a.ECS != b.ECS || a.SuccessRate != b.SuccessRate || a.EndTime != b.EndTime {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := buildRun(t, 200, NewGreedy(), 7, nil)
	b := buildRun(t, 200, NewGreedy(), 8, nil)
	if a.AveRT == b.AveRT && a.ECS == b.ECS {
		t.Fatal("different seeds produced identical results — RNG wiring broken")
	}
}

func TestResponseTimeDominatesExecTime(t *testing.T) {
	res, recs := recordedRun(t, 200, NewGreedy(), 3, nil)
	for _, tr := range recs.Tasks() {
		if tr.WaitTime < 0 {
			t.Fatalf("task %d has negative wait %g", tr.ID, tr.WaitTime)
		}
		if tr.ResponseTime < tr.WaitTime {
			t.Fatalf("task %d RT %g < wait %g", tr.ID, tr.ResponseTime, tr.WaitTime)
		}
	}
	if res.MeanWait >= res.AveRT {
		t.Fatal("mean wait must be below mean response time")
	}
}

func TestEnergyAtLeastIdleFloor(t *testing.T) {
	res := buildRun(t, 100, NewGreedy(), 5, nil)
	// Energy must exceed what an entirely idle platform would consume
	// over the same span is false (throttle); but it must exceed zero and
	// the idle fraction must be below 1 since work was done.
	if res.Efficiency.IdleFraction >= 1 || res.Efficiency.IdleFraction < 0 {
		t.Fatalf("idle fraction %g out of [0,1)", res.Efficiency.IdleFraction)
	}
	if res.Efficiency.EnergyPerTask <= 0 {
		t.Fatal("energy per task must be positive")
	}
}

func TestSplitImprovesUtilization(t *testing.T) {
	with := buildRun(t, 400, NewGreedy(), 11, nil)
	without := buildRun(t, 400, NewGreedy(), 11, func(c *Config) { c.DisableSplit = true })
	// The split process exists to reduce idle time (§IV.D.2): disabling it
	// must not make the schedule finish earlier.
	if without.EndTime < with.EndTime*0.999 {
		t.Fatalf("disabling split shortened the run: %g vs %g", without.EndTime, with.EndTime)
	}
	if without.AveRT < with.AveRT*0.98 {
		t.Fatalf("disabling split improved AveRT noticeably: %g vs %g", without.AveRT, with.AveRT)
	}
}

func TestGroupRecordsConsistent(t *testing.T) {
	res, recs := recordedRun(t, 250, NewGreedy(), 13, nil)
	groups := recs.Groups()
	if len(groups) == 0 {
		t.Fatal("no groups recorded")
	}
	total := 0
	for _, g := range groups {
		if g.Size <= 0 {
			t.Fatalf("group %d has size %d", g.GroupID, g.Size)
		}
		if g.Reward < 0 || g.Reward > g.Size {
			t.Fatalf("group %d reward %d outside [0,%d]", g.GroupID, g.Reward, g.Size)
		}
		if g.ErrTG < 0 {
			t.Fatalf("group %d negative err_tg", g.GroupID)
		}
		total += g.Size
	}
	if total != res.Completed {
		t.Fatalf("groups cover %d tasks, completed %d", total, res.Completed)
	}
}

func TestCycleSeriesMonotone(t *testing.T) {
	res := buildRun(t, 250, NewGreedy(), 17, nil)
	cycles := res.Collector.Cycles()
	if len(cycles) < 2 {
		t.Fatal("too few learning cycles recorded")
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i].At < cycles[i-1].At {
			t.Fatal("cycle times not monotone")
		}
		if cycles[i].CumBusyDemand < cycles[i-1].CumBusyDemand || cycles[i].CumCapDemand < cycles[i-1].CumCapDemand {
			t.Fatal("cumulative engaged-utilisation integrals decreased")
		}
	}
}

func TestUtilizationSeriesBounded(t *testing.T) {
	res := buildRun(t, 500, NewGreedy(), 19, nil)
	for _, u := range res.UtilWindows {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("windowed utilisation %g out of [0,1]", u)
		}
	}
	for _, u := range res.UtilCumulative {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("cumulative utilisation %g out of [0,1]", u)
		}
	}
}

func TestHigherLoadIncreasesUtilization(t *testing.T) {
	light := buildRun(t, 100, NewGreedy(), 23, nil)
	heavy := buildRun(t, 1500, NewGreedy(), 23, nil)
	if heavy.MeanUtilization <= light.MeanUtilization {
		t.Fatalf("utilisation should grow with load: light %g, heavy %g",
			light.MeanUtilization, heavy.MeanUtilization)
	}
	if heavy.ECS <= light.ECS {
		t.Fatalf("energy should grow with load: light %g, heavy %g", light.ECS, heavy.ECS)
	}
}

func TestOpnumAffectsGroupSize(t *testing.T) {
	small := buildRun(t, 300, &Greedy{Opnum: 1, Mode: grouping.ModeMixed}, 29, nil)
	big := buildRun(t, 300, &Greedy{Opnum: 6, Mode: grouping.ModeMixed}, 29, nil)
	if small.MeanGroupSize >= big.MeanGroupSize {
		t.Fatalf("opnum not respected: small %g, big %g", small.MeanGroupSize, big.MeanGroupSize)
	}
	if small.MeanGroupSize > 1.001 {
		t.Fatalf("opnum 1 should give singleton groups, got mean %g", small.MeanGroupSize)
	}
}

func TestIdenticalModeGroupsAreUniform(t *testing.T) {
	res := buildRun(t, 300, &Greedy{Opnum: 4, Mode: grouping.ModeIdentical}, 31, nil)
	if res.Completed != 300 {
		t.Fatalf("completed %d", res.Completed)
	}
}

func TestTaskStartRespectsArrival(t *testing.T) {
	_, recs := recordedRun(t, 200, NewGreedy(), 37, nil)
	for _, tr := range recs.Tasks() {
		if tr.FinishedAt <= 0 {
			t.Fatalf("task %d finished at %g", tr.ID, tr.FinishedAt)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{GroupCloseTimeout: 0, TickInterval: 1},
		{GroupCloseTimeout: 1, TickInterval: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestNewRejectsBrokenInputs(t *testing.T) {
	r := rng.NewStream(1, "x")
	pl := platform.MustGenerate(platform.DefaultGenConfig(), r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 10
	tasks := workload.MustGenerate(wcfg, r.Split("w"))

	if _, err := New(DefaultConfig(), pl, nil, NewGreedy(), r); err == nil {
		t.Error("expected error for empty workload")
	}
	// Out-of-order workload.
	shuffled := append([]*workload.Task(nil), tasks...)
	shuffled[0], shuffled[5] = shuffled[5], shuffled[0]
	if _, err := New(DefaultConfig(), pl, shuffled, NewGreedy(), r); err == nil {
		t.Error("expected error for out-of-order workload")
	}
	badCfg := DefaultConfig()
	badCfg.TickInterval = -1
	if _, err := New(badCfg, pl, tasks, NewGreedy(), r); err == nil {
		t.Error("expected error for bad config")
	}
}

// nilPlacer returns nil from PlaceGroup to exercise the engine fallback.
type nilPlacer struct{ Greedy }

func (n *nilPlacer) Name() string { return "nil-placer" }
func (n *nilPlacer) PlaceGroup(*Context, *Agent, *grouping.Group, []NodeInfo) *platform.Node {
	return nil
}

func TestEngineFallbackOnNilPlacement(t *testing.T) {
	p := &nilPlacer{Greedy{Opnum: 3, Mode: grouping.ModeMixed}}
	res := buildRun(t, 200, p, 41, nil)
	if res.Completed != 200 {
		t.Fatalf("completed %d with nil-returning placer", res.Completed)
	}
}

// sleeper puts every idle processor to sleep, exercising auto-wake.
type sleeper struct{ Greedy }

func (s *sleeper) Name() string { return "sleeper" }
func (s *sleeper) OnProcessorIdle(ctx *Context, p *platform.Processor) {
	ctx.Sleep(p)
}

func TestAggressiveSleeperStillCompletes(t *testing.T) {
	s := &sleeper{Greedy{Opnum: 3, Mode: grouping.ModeMixed}}
	res := buildRun(t, 200, s, 43, nil)
	if res.Completed != 200 {
		t.Fatalf("completed %d with aggressive sleeping", res.Completed)
	}
	awake := buildRun(t, 200, NewGreedy(), 43, nil)
	if res.AveRT <= awake.AveRT {
		t.Fatalf("sleep wake-latency should cost response time: sleeper %g, awake %g",
			res.AveRT, awake.AveRT)
	}
}

func TestSleeperSavesIdleEnergyUnderLightLoad(t *testing.T) {
	s := &sleeper{Greedy{Opnum: 2, Mode: grouping.ModeMixed}}
	slept := buildRun(t, 60, s, 47, nil)
	awake := buildRun(t, 60, NewGreedy(), 47, nil)
	// Under light load idle dominates; sleeping must cut total energy even
	// after the longer makespan.
	if slept.ECS >= awake.ECS {
		t.Fatalf("sleeping policy should save energy under light load: %g vs %g",
			slept.ECS, awake.ECS)
	}
}

func TestNodeInfoConsistency(t *testing.T) {
	r := rng.NewStream(3, "ni")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 1
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 1, 1
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 5
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	eng := MustNew(DefaultConfig(), pl, tasks, NewGreedy(), r.Split("e"))
	node := pl.Nodes()[0]
	ni := eng.nodeInfo(node)
	if ni.FreeSlots != node.QueueCap || ni.QueuedGroups != 0 || ni.QueuedWeight != 0 {
		t.Fatalf("fresh node info %+v", ni)
	}
	if ni.IdleProcs != node.NumProcessors() || ni.SleepProcs != 0 {
		t.Fatalf("fresh node proc states %+v", ni)
	}
	if math.Abs(ni.MeanPower()-node.Processors[0].PMinW) > 20 {
		t.Fatalf("mean idle power %g implausible", ni.MeanPower())
	}
}

func TestBestFitNode(t *testing.T) {
	mk := func(id int, speed float64, qcap int, queued float64) NodeInfo {
		n := &platform.Node{ID: id, QueueCap: qcap}
		n.Processors = []*platform.Processor{{SpeedMIPS: speed, Node: n, Throttle: 1}}
		return NodeInfo{Node: n, QueuedWeight: queued, FreeSlots: qcap}
	}
	g := &grouping.Group{Tasks: []*workload.Task{{SizeMI: 1000, Deadline: 5}}}
	// pw = 200. Capacities: 1000/2=500, 600/2=300, 400/2=200 (exact fit).
	cands := []NodeInfo{mk(0, 1000, 2, 0), mk(1, 600, 2, 0), mk(2, 400, 2, 0)}
	if got := BestFitNode(g, cands); got.ID != 2 {
		t.Fatalf("BestFitNode chose %d, want exact-fit node 2", got.ID)
	}
	if BestFitNode(g, nil) != nil {
		t.Fatal("empty candidates must give nil")
	}
}

func TestLeastLoadedNode(t *testing.T) {
	mk := func(id int, queued float64) NodeInfo {
		n := &platform.Node{ID: id, QueueCap: 2}
		n.Processors = []*platform.Processor{{SpeedMIPS: 500, Node: n, Throttle: 1}}
		return NodeInfo{Node: n, QueuedWeight: queued}
	}
	cands := []NodeInfo{mk(0, 5), mk(1, 2), mk(2, 9)}
	if got := LeastLoadedNode(cands); got.ID != 1 {
		t.Fatalf("LeastLoadedNode chose %d, want 1", got.ID)
	}
	if LeastLoadedNode(nil) != nil {
		t.Fatal("empty candidates must give nil")
	}
}

func TestHeavyLoadBacklogDrains(t *testing.T) {
	// Tiny platform + many tasks forces queue exhaustion and the backlog
	// path; the run must still complete every task.
	r := rng.NewStream(51, "bk")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 1
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 1, 1
	pcfg.MinQueueCap, pcfg.MaxQueueCap = 1, 1
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 150
	wcfg.MeanInterArrival = 0.5
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	eng := MustNew(DefaultConfig(), pl, tasks, NewGreedy(), r.Split("e"))
	res := eng.MustRun()
	if res.Completed != 150 {
		t.Fatalf("completed %d/150 under backlog pressure", res.Completed)
	}
	if res.MeanWait <= 0 {
		t.Fatal("backlog pressure must produce queueing delay")
	}
}

// TestBacklogPlacedInFIFOOrder: an agent's deferred groups are placed in
// the order they were backlogged. One node with a single queue slot under
// heavy load holds several backlogged groups at once, so a pop from the
// wrong end would reorder them.
func TestBacklogPlacedInFIFOOrder(t *testing.T) {
	r := rng.NewStream(51, "bk")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 1
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 1, 1
	pcfg.MinQueueCap, pcfg.MaxQueueCap = 1, 1
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 300
	wcfg.MeanInterArrival = 0.3
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	ring := trace.NewRing(1<<16, trace.LevelInfo)
	cfg := DefaultConfig()
	cfg.Tracer = ring
	MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e")).MustRun()
	if ring.Total() > uint64(ring.Len()) {
		t.Fatalf("ring dropped %d events", ring.Total()-uint64(ring.Len()))
	}
	group := func(ev trace.Event) int {
		for _, f := range ev.Fields {
			if f.Key == "group" {
				return f.Value.(int)
			}
		}
		t.Fatalf("%s event without a group field", ev.Kind)
		return 0
	}
	var waiting []int // backlogged group IDs, oldest first
	deepest := 0
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case "backlog":
			waiting = append(waiting, group(ev))
			deepest = max(deepest, len(waiting))
		case "enqueue":
			switch i := slices.Index(waiting, group(ev)); {
			case i > 0:
				t.Fatalf("group %d placed before the older backlog %v", waiting[i], waiting[:i])
			case i == 0:
				waiting = waiting[1:]
			}
		}
	}
	if deepest < 2 {
		t.Fatalf("backlog held at most %d groups: the scenario cannot tell the order", deepest)
	}
	if len(waiting) != 0 {
		t.Fatalf("groups %v backlogged but never placed", waiting)
	}
}

func TestEngineTracing(t *testing.T) {
	r := rng.NewStream(61, "tr")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 120
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	counter := trace.NewCounter(trace.LevelDebug)
	ring := trace.NewRing(64, trace.LevelInfo)
	cfg := DefaultConfig()
	cfg.Tracer = trace.Multi{counter, ring}
	res := MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e")).MustRun()
	if res.Completed != 120 {
		t.Fatalf("completed %d", res.Completed)
	}
	if got := counter.Count("arrival"); got != 120 {
		t.Fatalf("traced %d arrivals, want 120", got)
	}
	if got := counter.Count("dispatch"); got != 120 {
		t.Fatalf("traced %d dispatches, want 120", got)
	}
	if got := counter.Count("finish"); got != 120 {
		t.Fatalf("traced %d finishes, want 120", got)
	}
	if counter.Count("enqueue") == 0 || counter.Count("group-complete") == 0 {
		t.Fatal("group lifecycle events missing")
	}
	if counter.Count("enqueue") != counter.Count("group-complete") {
		t.Fatalf("enqueues %d != completions %d", counter.Count("enqueue"), counter.Count("group-complete"))
	}
	if ring.Len() == 0 {
		t.Fatal("ring captured nothing")
	}
}

func TestDVFSLazySavesEnergyWithCubicPower(t *testing.T) {
	run := func(dvfs bool) Result {
		r := rng.NewStream(91, "dvfs")
		pcfg := platform.DefaultGenConfig()
		pcfg.Sites = 2
		pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
		pcfg.PowerExponent = 3 // realistic DVFS power curve
		pl := platform.MustGenerate(pcfg, r.Split("p"))
		wcfg := workload.DefaultGenConfig()
		wcfg.NumTasks = 200
		wcfg.MeanInterArrival = 3 // light load: plenty of slack to clock down into
		wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
		tasks := workload.MustGenerate(wcfg, r.Split("w"))
		cfg := DefaultConfig()
		cfg.DVFSLazy = dvfs
		return MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e")).MustRun()
	}
	base := run(false)
	lazy := run(true)
	if lazy.Completed != 200 || base.Completed != 200 {
		t.Fatalf("completions %d/%d", lazy.Completed, base.Completed)
	}
	if lazy.ECS >= base.ECS {
		t.Fatalf("lazy DVFS should save energy under cubic power: %g vs %g", lazy.ECS, base.ECS)
	}
	// Slowing into the deadline must not wreck success: the 10% margin
	// plus the MinThrottle floor keeps most deadlines.
	if lazy.SuccessRate < base.SuccessRate-0.15 {
		t.Fatalf("lazy DVFS broke deadlines: %g vs %g", lazy.SuccessRate, base.SuccessRate)
	}
}

func TestLazyThrottleBounds(t *testing.T) {
	e := &Engine{cfg: Config{DVFSLazy: true}}
	proc := &platform.Processor{SpeedMIPS: 1000, Throttle: 1}
	// Deadline already passed: full speed.
	overdue := &workload.Task{SizeMI: 1000, ArrivalTime: 0, Deadline: 5}
	if got := e.lazyThrottle(proc, overdue, 10); got != 1 {
		t.Fatalf("overdue throttle %g, want 1", got)
	}
	// Huge slack: scales down proportionally (clamping happens in
	// SetThrottle, not here).
	slack := &workload.Task{SizeMI: 900, ArrivalTime: 0, Deadline: 10}
	got := e.lazyThrottle(proc, slack, 0)
	want := 900.0 / (10 * 0.9) / 1000
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("throttle %g, want %g", got, want)
	}
	// Needs more than full speed: capped at 1.
	tight := &workload.Task{SizeMI: 5000, ArrivalTime: 0, Deadline: 2}
	if got := e.lazyThrottle(proc, tight, 0); got != 1 {
		t.Fatalf("tight throttle %g, want 1", got)
	}
}

func TestCubicPowerExponent(t *testing.T) {
	p := &platform.Processor{PMaxW: 100, PMinW: 50, Throttle: 0.5, PowerExponent: 3}
	p.SetState(platform.StateBusy, 0)
	p.Advance(1)
	want := 50 + 50*0.125 // pmin + (pmax-pmin)*0.5^3
	if math.Abs(p.Energy()-want) > 1e-9 {
		t.Fatalf("cubic busy energy %g, want %g", p.Energy(), want)
	}
}

func TestNaivePoliciesComplete(t *testing.T) {
	for _, p := range []Policy{NewRoundRobin(), NewRandom()} {
		res := buildRun(t, 250, p, 53, nil)
		if res.Completed != 250 {
			t.Fatalf("%s completed %d/250", p.Name(), res.Completed)
		}
		if err := res.Collector.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestGreedyBeatsRandomUnderLoad(t *testing.T) {
	random := buildRun(t, 1200, NewRandom(), 57, nil)
	greedy := buildRun(t, 1200, NewGreedy(), 57, nil)
	if greedy.AveRT >= random.AveRT {
		t.Fatalf("greedy %.1f not better than random %.1f under load", greedy.AveRT, random.AveRT)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	res := buildRun(t, 300, NewRoundRobin(), 59, nil)
	// Rotation spreads groups across nodes: every node should have run
	// at least one task.
	// (Indirect check: all groups completed and utilisation positive.)
	if res.Completed != 300 || res.MeanUtilization <= 0 {
		t.Fatalf("round robin degenerate: %+v", res)
	}
}

func TestTimelineFromEngineRun(t *testing.T) {
	r := rng.NewStream(97, "gantt")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 150
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	tl := trace.NewTimeline()
	cfg := DefaultConfig()
	cfg.Tracer = tl
	res := MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e")).MustRun()
	if res.Completed != 150 {
		t.Fatalf("completed %d", res.Completed)
	}
	ivs := tl.Intervals()
	if len(ivs) != 150 {
		t.Fatalf("timeline has %d intervals, want 150", len(ivs))
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Total interval time equals total busy time.
	sum := 0.0
	for _, iv := range ivs {
		sum += iv.End - iv.Start
	}
	pl.AdvanceAll(res.EndTime)
	busy := 0.0
	for _, p := range pl.Processors() {
		busy += p.BusyTime()
	}
	if math.Abs(sum-busy) > 1e-6*busy {
		t.Fatalf("timeline covers %g busy-time, platform says %g", sum, busy)
	}
}

func TestCapacityWeightedRouting(t *testing.T) {
	// Build a platform with one fast site and one slow site, and verify
	// arrivals split roughly proportionally to aggregate speed.
	r := rng.NewStream(101, "route")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pcfg.MinProcsPerNode, pcfg.MaxProcsPerNode = 4, 4
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	// Skew site 1 to ~3x the speed of site 0.
	speed0, speed1 := 0.0, 0.0
	for _, n := range pl.Sites[0].Nodes {
		for _, p := range n.Processors {
			p.SpeedMIPS = 500
			speed0 += p.SpeedMIPS
		}
	}
	for _, n := range pl.Sites[1].Nodes {
		for _, p := range n.Processors {
			p.SpeedMIPS = 1500
			speed1 += p.SpeedMIPS
		}
	}
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 2000
	wcfg.MeanInterArrival = 2
	wcfg.SlowestSpeedMIPS = 500
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	counter := trace.NewCounter(trace.LevelDebug)
	cfg := DefaultConfig()
	cfg.Tracer = counter
	recs := new(metrics.Records)
	cfg.Records = recs
	eng := MustNew(cfg, pl, tasks, NewGreedy(), r.Split("e"))
	res := eng.MustRun()
	if res.Completed != 2000 {
		t.Fatalf("completed %d", res.Completed)
	}
	// Count arrivals per agent from the trace ring... the counter only
	// keys by kind; instead recount by group completions per agent.
	perAgent := map[int]int{}
	for _, g := range recs.Groups() {
		perAgent[g.AgentID] += g.Size
	}
	frac1 := float64(perAgent[1]) / 2000
	want := speed1 / (speed0 + speed1) // 0.75
	if math.Abs(frac1-want) > 0.05 {
		t.Fatalf("fast site received %.2f of tasks, want ~%.2f", frac1, want)
	}
}

// TestCorruptedQueueSurfacesInvariantError corrupts an engine's node
// queue before the run: a stray empty group can never complete, so the
// run-end flush must surface an *InvariantError from Run instead of
// crashing the process.
func TestCorruptedQueueSurfacesInvariantError(t *testing.T) {
	r := rng.NewStream(97, "inv")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 80
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	eng := MustNew(DefaultConfig(), pl, tasks, NewGreedy(), r.Split("e"))
	// Corrupt: a group the engine never placed sits in a node queue. It
	// holds no tasks, so it is never dispatched and never completes.
	eng.queues[0] = append(eng.queues[0], &grouping.Group{ID: -1, NodeID: 0})
	res, err := eng.Run()
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("corrupted queue returned (%+v, %v), want *InvariantError", res.Completed, err)
	}
	if !strings.Contains(ie.Error(), "queue non-empty") {
		t.Fatalf("unexpected invariant message: %v", ie)
	}
	if ie.Policy == "" {
		t.Fatal("invariant error does not name the running policy")
	}
}

// TestMustRunPanicsOnInvariantError pins the MustRun contract for the
// callers that kept the old panic semantics.
func TestMustRunPanicsOnInvariantError(t *testing.T) {
	r := rng.NewStream(98, "inv-must")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 1
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 1, 1
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 20
	wcfg.MeanInterArrival = 1
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	eng := MustNew(DefaultConfig(), pl, tasks, NewGreedy(), r.Split("e"))
	eng.queues[0] = append(eng.queues[0], &grouping.Group{ID: -1, NodeID: 0})
	defer func() {
		if _, ok := recover().(*InvariantError); !ok {
			t.Fatal("MustRun did not panic with the invariant error")
		}
	}()
	eng.MustRun()
}
