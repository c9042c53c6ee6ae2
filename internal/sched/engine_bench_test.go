package sched_test

import (
	"runtime"
	"testing"

	"rlsched/internal/baselines/cooperative"
	"rlsched/internal/baselines/onlinerl"
	"rlsched/internal/baselines/predictive"
	"rlsched/internal/baselines/qplus"
	"rlsched/internal/core"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// allocsTasks is the workload size of the allocation gate and benchmark.
const allocsTasks = 1500

// allocsEngine builds a heavy-load run on the 5-site platform (two nodes
// per site) with seed i and engine config cfg: platform and workload
// generation happen here, outside whatever the caller measures.
func allocsEngine(tb testing.TB, i int, cfg sched.Config, policy sched.Policy) *sched.Engine {
	tb.Helper()
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 5
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	r := rng.NewStream(uint64(i+1), "engine-bench")
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	if err != nil {
		tb.Fatal(err)
	}
	wcfg := workload.GenConfig{
		NumTasks:         allocsTasks,
		MeanInterArrival: 1,
		MinSizeMI:        600 * 5.6,
		MaxSizeMI:        7200 * 5.6,
		SlowestSpeedMIPS: pcfg.MinSpeedMIPS,
		Mix:              workload.DefaultMix(),
	}
	tasks, err := workload.Generate(wcfg, r.Split("workload"))
	if err != nil {
		tb.Fatal(err)
	}
	return sched.MustNew(cfg, pl, tasks, policy, r.Split("engine"))
}

// allPolicies are the eight policies the golden digest panel runs.
var allPolicies = []struct {
	name string
	new  func() sched.Policy
}{
	{"adaptive-rl", func() sched.Policy { return core.NewDefault() }},
	{"online-rl", func() sched.Policy { return onlinerl.NewDefault() }},
	{"q+-learning", func() sched.Policy { return qplus.NewDefault() }},
	{"prediction-based", func() sched.Policy { return predictive.NewDefault() }},
	{"greedy", func() sched.Policy { return sched.NewGreedy() }},
	{"round-robin", func() sched.Policy { return sched.NewRoundRobin() }},
	{"random", func() sched.Policy { return sched.NewRandom() }},
	{"cooperative-game", func() sched.Policy { return cooperative.NewDefault() }},
}

// TestEngineAllocsPerTask gates the engine loop's allocation count: heap
// allocations made by Engine.Run alone (setup excluded), per task, for
// every policy. Allocation counts of a deterministic run are themselves
// deterministic, so each bound is the measured value plus 10 %. Closed
// groups and their task buffers are recycled through the engine's
// grouping.Groups and popped events through the des free list, so what
// remains is mostly growth to peak size: the free lists of groups and
// queue items, the event heap's slice, maps and node queues, plus each
// policy's own learning state (Adaptive-RL builds a network per agent)
// and, under Random's many small groups, the agents' backlogs, which pop
// in place and so grow only to their peak length. A change
// that reintroduces per-task or per-group garbage (closures on events, a
// heap object per group, growing buffers) trips it; a change that lowers
// the count should lower the bound with it.
func TestEngineAllocsPerTask(t *testing.T) {
	// Measured: adaptive-rl 0.267-0.269, online-rl 0.188-0.189,
	// q+-learning 0.196-0.197, prediction-based 0.166, greedy 0.123,
	// round-robin 0.129, random 0.257, cooperative-game 0.172-0.176 (map
	// overflow buckets vary with the hash seed).
	bounds := map[string]float64{
		"adaptive-rl":      0.296,
		"online-rl":        0.208,
		"q+-learning":      0.217,
		"prediction-based": 0.183,
		"greedy":           0.136,
		"round-robin":      0.142,
		"random":           0.283,
		"cooperative-game": 0.194,
	}
	for _, p := range allPolicies {
		eng := allocsEngine(t, 0, sched.DefaultConfig(), p.new())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := eng.MustRun()
		runtime.ReadMemStats(&after)
		if res.Completed != allocsTasks {
			t.Fatalf("%s: run completed %d/%d tasks", p.name, res.Completed, allocsTasks)
		}
		perTask := float64(after.Mallocs-before.Mallocs) / allocsTasks
		bound := bounds[p.name]
		t.Logf("%s: %.3f allocs/task (bound %.3f)", p.name, perTask, bound)
		if perTask > bound {
			t.Errorf("%s: Engine.Run made %.3f allocs/task, bound %.3f", p.name, perTask, bound)
		}
	}
}

// BenchmarkEngineAllocs measures a complete simulation run with allocation
// accounting, isolating the engine's hot path: scenario generation happens
// with the timer (and alloc counter) stopped, so allocs/op is dominated by
// per-event work — event scheduling, node views, candidate lists, dispatch.
// TestEngineAllocsPerTask is the gate on the same scenario; this
// benchmark reports its time.
func BenchmarkEngineAllocs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := allocsEngine(b, i, sched.DefaultConfig(), sched.NewGreedy())
		b.StartTimer()
		if res := eng.MustRun(); res.Completed != allocsTasks {
			b.Fatalf("run completed %d/%d tasks", res.Completed, allocsTasks)
		}
	}
}
