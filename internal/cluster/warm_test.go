package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"rlsched/internal/cache"
	"rlsched/internal/experiments"
	"rlsched/internal/sched"
)

// warmPoints is the size of a daemon's warm job: that many points, every
// one already in the cache.
const warmPoints = 16

// warmCampaign runs a warmPoints-point campaign once to fill a disk
// cache, then returns a dispatcher over a fresh store on that spool whose
// memory tier holds one entry, the campaign's profile and its specs. Every
// point of a rerun is then a disk hit, as in a long-lived daemon whose
// working set has outgrown its memory tier.
func warmCampaign(tb testing.TB) (*Dispatcher, experiments.Profile, []experiments.RunSpec) {
	tb.Helper()
	dir := tb.TempDir()
	p := testProfile()
	specs := make([]experiments.RunSpec, warmPoints)
	for i := range specs {
		specs[i] = experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 4 + i%4, Seed: uint64(i + 1)}
	}
	cold, err := cache.Open(dir, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := NewDispatcher(Options{Cache: cold}).Runner(JobMeta{ID: "cold"})(context.Background(), p, specs); err != nil {
		tb.Fatal(err)
	}
	st, err := cache.Open(dir, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return NewDispatcher(Options{Cache: st}), p, specs
}

// runWarm reruns the warm campaign and checks that every point was a
// disk hit.
func runWarm(tb testing.TB, d *Dispatcher, p experiments.Profile, specs []experiments.RunSpec) {
	before := d.cache.Stats().Hits
	if _, err := d.Runner(JobMeta{ID: "warm"})(context.Background(), p, specs); err != nil {
		tb.Fatal(err)
	}
	if hits := d.cache.Stats().Hits - before; hits != warmPoints {
		tb.Fatalf("warm campaign: %d cache hits, want %d", hits, warmPoints)
	}
}

// warmAllocCeiling bounds the allocations of one all-hit warm campaign:
// per point one spec canonicalisation and hash, one entry read and check,
// and one result decode. The count was 560 when the ceiling was set
// (Go 1.24, about 6 % below it); canonicalising through an interface{}
// tree made it 1,177, and canonicalising the profile again for every
// point 4,658. testing.AllocsPerRun measures at GOMAXPROCS 1, where the
// cache pass runs on the calling goroutine.
const warmAllocCeiling = 593

// raceBuild is set by race_test.go in a -race build, whose sync.Pool
// drops items at random and so moves allocation counts.
var raceBuild bool

// TestWarmCampaignAllocs gates the cache-hit path's allocations, so a
// change that puts per-campaign work back on every point fails here.
func TestWarmCampaignAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not gated under the race detector")
	}
	d, p, specs := warmCampaign(t)
	allocs := testing.AllocsPerRun(10, func() { runWarm(t, d, p, specs) })
	t.Logf("%.0f allocations per %d-point warm campaign", allocs, warmPoints)
	if allocs > warmAllocCeiling {
		t.Fatalf("%.0f allocations per %d-point warm campaign, ceiling %d", allocs, warmPoints, warmAllocCeiling)
	}
}

// TestWarmCampaignPreCancelled runs the warm campaign under an
// already-cancelled context. Like RunManyCtx on that context, the cache
// pass must stop issuing points and return context.Canceled, not serve
// the whole campaign from the cache.
func TestWarmCampaignPreCancelled(t *testing.T) {
	d, p, specs := warmCampaign(t)
	var ticks atomic.Int32
	p.Progress = func(sched.RunStats) { ticks.Add(1) }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := d.Runner(JobMeta{ID: "warm"})(ctx, p, specs)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled warm campaign: %d results, error %v; want none and context.Canceled", len(res), err)
	}
	if n := ticks.Load(); n >= warmPoints {
		t.Fatalf("pre-cancelled warm campaign ticked Progress %d times: it drained the list", n)
	}
}

// BenchmarkWarmCampaign measures a daemon's warm job without the HTTP
// layer: a warmPoints-point campaign whose every point is keyed, read
// from the disk spool, checked and decoded.
func BenchmarkWarmCampaign(b *testing.B) {
	d, p, specs := warmCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWarm(b, d, p, specs)
	}
}
