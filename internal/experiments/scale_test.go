package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// shrink scales a preset down to test size while preserving its shape.
func shrink(t testing.TB, preset string, sites, tasks int) ScaleConfig {
	t.Helper()
	c, err := ScalePreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	c.Sites, c.NumTasks = sites, tasks
	return c
}

func TestScalePresets(t *testing.T) {
	for _, name := range ScalePresets {
		c, err := ScalePreset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if c, _ := ScalePreset("large"); c.Sites != 5000 || c.NumTasks != 2_000_000 {
		t.Fatalf("large preset is %d sites / %d tasks, want 5000 / 2000000", c.Sites, c.NumTasks)
	}
	if _, err := ScalePreset("galactic"); err == nil {
		t.Fatal("unknown preset: want error, got nil")
	}
}

func TestScaleValidate(t *testing.T) {
	base := shrink(t, "small", 10, 100)
	for _, mutate := range []func(*ScaleConfig){
		func(c *ScaleConfig) { c.Sites = 0 },
		func(c *ScaleConfig) { c.NodesPerSite = 0 },
		func(c *ScaleConfig) { c.NumTasks = 0 },
		func(c *ScaleConfig) { c.Load = 0 },
		func(c *ScaleConfig) { c.Load = 1.5 },
		func(c *ScaleConfig) { c.Amplitude = 1 },
		func(c *ScaleConfig) { c.Period = -1 },
		func(c *ScaleConfig) { c.Policy = "no-such-policy" },
	} {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %+v: want validation error, got nil", c)
		}
		if _, err := RunScale(c); err == nil {
			t.Fatalf("mutation %+v: RunScale accepted invalid config", c)
		}
	}
}

func TestScaleRunCompletes(t *testing.T) {
	c := shrink(t, "small", 20, 4000)
	res, err := RunScale(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != c.NumTasks || res.Submitted != c.NumTasks {
		t.Fatalf("completed %d / submitted %d, want %d", res.Completed, res.Submitted, c.NumTasks)
	}
	if res.AveRT <= 0 || res.ECS <= 0 || res.EndTime <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.SuccessRate <= 0 || res.SuccessRate > 1 {
		t.Fatalf("success rate %g outside (0, 1]", res.SuccessRate)
	}
	if !res.Collector.Streaming() {
		t.Fatal("scale run did not use a streaming collector")
	}
	if err := res.Collector.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaleDeterministic(t *testing.T) {
	c := shrink(t, "small", 15, 2000)
	a, err := RunScale(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != b.Completed || a.DeadlineHits != b.DeadlineHits ||
		a.AveRT != b.AveRT || a.ECS != b.ECS || a.EndTime != b.EndTime ||
		a.MeanGroupSize != b.MeanGroupSize {
		t.Fatalf("repeated runs differ:\n%+v\n%+v", a, b)
	}
	c.Seed++
	d, err := RunScale(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.AveRT == a.AveRT && d.ECS == a.ECS {
		t.Fatal("seed change did not change the outcome")
	}
}

// peakHeap runs f while polling runtime heap usage and returns the
// highest HeapAlloc observed.
func peakHeap(f func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	f()
	close(done)
	<-sampled
	return peak.Load()
}

// TestScaleMemoryCeiling is the O(active) acceptance check: at a fixed
// platform (hence fixed arrival rate and active-set size), quadrupling
// the total task count must not grow peak heap. The allowance absorbs GC
// timing noise, not growth — a per-task residue of even 100 bytes over
// the extra 60k tasks would blow through it.
func TestScaleMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-ceiling run is slow under -short/-race")
	}
	c1 := shrink(t, "small", 50, 20_000)
	c4 := shrink(t, "small", 50, 80_000)
	run := func(c ScaleConfig) uint64 {
		return peakHeap(func() {
			if _, err := RunScale(c); err != nil {
				t.Error(err)
			}
		})
	}
	peak1 := run(c1)
	peak4 := run(c4)
	t.Logf("peak heap: %d tasks -> %.1f MiB, %d tasks -> %.1f MiB",
		c1.NumTasks, float64(peak1)/(1<<20), c4.NumTasks, float64(peak4)/(1<<20))
	const allowance = 24 << 20
	if peak4 > peak1+allowance {
		t.Fatalf("peak heap grew with task count: %d B at %d tasks vs %d B at %d tasks",
			peak1, c1.NumTasks, peak4, c4.NumTasks)
	}
}

// BenchmarkScaleStream streams 20k tasks through a 50-site platform in
// low-memory mode — the per-task cost of the streaming pipeline.
func BenchmarkScaleStream(b *testing.B) {
	c := shrink(b, "small", 50, 20_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		if _, err := RunScale(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSites250 runs perfbench's scale shape: 250 sites × 2
// nodes, 100k diurnal tasks through Adaptive-RL in low-memory mode. At
// this many agents the shared-memory lookup is a large share of the run,
// which the 50-site BenchmarkScaleStream does not show.
func BenchmarkScaleSites250(b *testing.B) {
	c := shrink(b, "small", 250, 100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		if _, err := RunScale(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleRoute exercises the prefix-sum routing fast path: 300
// sites is well above the linear-scan threshold.
func BenchmarkScaleRoute(b *testing.B) {
	c := shrink(b, "small", 300, 10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i) + 1
		if _, err := RunScale(c); err != nil {
			b.Fatal(err)
		}
	}
}
