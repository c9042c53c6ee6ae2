package sched_test

import (
	"runtime"
	"testing"

	"rlsched/internal/core"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// allocsTasks is the workload size of the allocation gate and benchmark.
const allocsTasks = 1500

// allocsEngine builds a heavy-load run on the 5-site platform (two nodes
// per site) with seed i: platform and workload generation happen here,
// outside whatever the caller measures.
func allocsEngine(tb testing.TB, i int, policy sched.Policy) *sched.Engine {
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
	return sched.MustNew(sched.DefaultConfig(), pl, tasks, policy, r.Split("engine"))
}

// TestEngineAllocsPerTask gates the engine loop's allocation count: heap
// allocations made by Engine.Run alone (setup excluded), per task, for a
// baseline and the Adaptive-RL policy. Allocation counts of a
// deterministic run are themselves deterministic, so each bound is the
// measured value plus 10 % (measured: greedy 1.023, adaptive-rl 1.319;
// most of what remains is each closed group and its task slice). A change
// that reintroduces per-task garbage (closures on events, a heap object
// per task, growing buffers) trips it; a change that lowers the count
// should lower the bound with it.
func TestEngineAllocsPerTask(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy func() sched.Policy
		bound  float64
	}{
		{"greedy", func() sched.Policy { return sched.NewGreedy() }, 1.13},
		{"adaptive-rl", func() sched.Policy { return core.NewDefault() }, 1.46},
	} {
		eng := allocsEngine(t, 0, c.policy())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := eng.MustRun()
		runtime.ReadMemStats(&after)
		if res.Completed != allocsTasks {
			t.Fatalf("%s: run completed %d/%d tasks", c.name, res.Completed, allocsTasks)
		}
		perTask := float64(after.Mallocs-before.Mallocs) / allocsTasks
		t.Logf("%s: %.3f allocs/task (bound %.2f)", c.name, perTask, c.bound)
		if perTask > c.bound {
			t.Errorf("%s: Engine.Run made %.3f allocs/task, bound %.2f", c.name, perTask, c.bound)
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
		eng := allocsEngine(b, i, sched.NewGreedy())
		b.StartTimer()
		if res := eng.MustRun(); res.Completed != allocsTasks {
			b.Fatalf("run completed %d/%d tasks", res.Completed, allocsTasks)
		}
	}
}
