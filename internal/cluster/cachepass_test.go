package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rlsched/internal/cache"
	"rlsched/internal/experiments"
	"rlsched/internal/obs/span"
	"rlsched/internal/sched"
)

// passOutcome is everything a campaign's cache pass is observed by.
type passOutcome struct {
	results              []sched.Result
	hits, misses, bad    uint64
	cached, local, ticks uint64
	spans                []string
}

// mixedCampaign runs a 16-point campaign on a fresh disk store whose
// points are, by index: i%4 == 0 a miss, 1 a disk hit, 2 a memory hit;
// of the i%4 == 3 points, 3 has an undecodable value under a good
// envelope, 7 a corrupted disk entry, and 11 and 15 are misses. want
// holds the points' local results.
func mixedCampaign(t *testing.T, p experiments.Profile, specs []experiments.RunSpec, want []sched.Result) passOutcome {
	t.Helper()
	dir := t.TempDir()
	keyer, err := cache.NewKeyer(p.CacheFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(specs))
	for i, spec := range specs {
		if keys[i], err = keyer.Key(spec); err != nil {
			t.Fatal(err)
		}
	}
	value := func(i int) []byte {
		data, err := encodeResult(want[i])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	spool, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if i%4 == 1 || i == 7 {
			if err := spool.Put(keys[i], value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := spool.Put(keys[3], []byte(`"not a result"`)); err != nil {
		t.Fatal(err)
	}
	hex := strings.TrimPrefix(keys[7], cache.KeyPrefix)
	path := filepath.Join(dir, hex[:2], hex[2:]+".json")
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entry[len(entry)-4] ^= 1 // inside the value: the checksum no longer matches
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(specs); i += 4 {
		if err := st.Put(keys[i], value(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDispatcher(Options{Cache: st})
	tr := span.New(span.DeriveTraceID("cache-pass"), "job", 1024)
	var ticks atomic.Uint64
	q := p
	q.Progress = func(sched.RunStats) { ticks.Add(1) }
	got, err := d.Runner(JobMeta{ID: "job", Trace: tr})(context.Background(), q, specs)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	out := passOutcome{
		results: scrub(got),
		hits:    stats.Hits, misses: stats.Misses, bad: stats.BadEntries,
		cached: d.cached.Value(), local: d.local.Value(), ticks: ticks.Load(),
	}
	// Name every span by its point's index; children carry their point
	// span's index.
	recs := tr.Snapshot()
	index := map[string]any{}
	for _, r := range recs {
		if r.Name == "point" {
			index[r.SpanID] = r.Attrs["index"]
		}
	}
	for _, r := range recs {
		i, ok := index[r.SpanID]
		if !ok {
			i = index[r.ParentID]
		}
		out.spans = append(out.spans, fmt.Sprintf("%s %v tier=%v outcome=%v undecodable=%v",
			r.Name, i, r.Attrs["tier"], r.Attrs["outcome"], r.Attrs["undecodable"]))
	}
	sort.Strings(out.spans)
	return out
}

// TestCachePassParallelMatchesSerial runs a campaign mixing memory hits,
// disk hits, misses, an undecodable entry and a corrupted one with the
// cache pass on one goroutine and on two. Both must return the local
// results, count the same hits, misses and bad entries, tick Progress
// once per point and record the same spans.
func TestCachePassParallelMatchesSerial(t *testing.T) {
	p := testProfile()
	specs := make([]experiments.RunSpec, 16)
	for i := range specs {
		specs[i] = experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 4 + i%4, Seed: uint64(i + 1)}
	}
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	var serial passOutcome
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := mixedCampaign(t, p, specs, want)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got.results, scrub(want)) {
			t.Fatalf("GOMAXPROCS %d: results differ from the local run", procs)
		}
		// 8 hits from the two tiers plus the undecodable entry's lookup;
		// 4+2 plain misses plus the corrupted entry.
		if got.hits != 9 || got.misses != 7 || got.bad != 1 || got.cached != 8 || got.local != 8 || got.ticks != 16 {
			t.Fatalf("GOMAXPROCS %d: hits %d misses %d bad %d cached %d local %d ticks %d; want 9 7 1 8 8 16",
				procs, got.hits, got.misses, got.bad, got.cached, got.local, got.ticks)
		}
		if procs == 1 {
			serial = got
			continue
		}
		if !reflect.DeepEqual(got.spans, serial.spans) {
			t.Fatalf("GOMAXPROCS %d spans differ from the serial pass:\n%s\nserial:\n%s",
				procs, strings.Join(got.spans, "\n"), strings.Join(serial.spans, "\n"))
		}
	}
	if len(serial.spans) != 1+16+16+8 {
		t.Fatalf("%d spans, want a campaign, 16 points, 16 lookups and 8 engine runs:\n%s",
			len(serial.spans), strings.Join(serial.spans, "\n"))
	}
}

// TestLocalPointsReachCacheAsTheyFinish cancels a standalone campaign
// from its Progress hook after the third point: every point reported
// done must already be in the disk cache, so a job resumed after a crash
// takes it from there.
func TestLocalPointsReachCacheAsTheyFinish(t *testing.T) {
	dir := t.TempDir()
	st, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfile() // Workers 2
	specs := make([]experiments.RunSpec, 8)
	for i := range specs {
		specs[i] = experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 200, Seed: uint64(i + 1)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ticks atomic.Int32
	p.Progress = func(sched.RunStats) {
		if ticks.Add(1) == 3 {
			cancel()
		}
	}
	_, err = NewDispatcher(Options{Cache: st}).Runner(JobMeta{ID: "job"})(ctx, p, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	reopened, err := cache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := reopened.Stats().DiskEntries; n < 3 {
		t.Fatalf("%d points on disk after 3 reported done", n)
	}
}

// TestCachePassPanicReachesCaller makes the Progress hook panic on a
// warm campaign whose cache pass runs on two goroutines. The panic must
// reach the campaign runner, which reports it as a PointError, instead
// of ending the process from a pass goroutine.
func TestCachePassPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := NewDispatcher(Options{Cache: memCache(t)})
	p := testProfile()
	specs := testSpecs()
	if _, err := d.Runner(JobMeta{ID: "cold"})(context.Background(), p, specs); err != nil {
		t.Fatal(err)
	}
	p.RunPoints = d.Runner(JobMeta{ID: "warm"})
	p.Progress = func(sched.RunStats) { panic("progress bug") }
	_, err := experiments.RunManyCtx(context.Background(), p, specs)
	var pe *experiments.PointError
	if !errors.As(err, &pe) || pe.Panic != "progress bug" || pe.Index != 0 {
		t.Fatalf("panicking Progress hook: error %v, want a PointError for point 0", err)
	}
}

// TestDispatcherHookPanicNamesCallWideIndex runs specs [a, a, b]
// through a standalone dispatcher twice, cold (every point a local run)
// and warm (every point a cache hit), with a Progress hook that panics
// on b's tick. The executor is handed [a, b]; on both passes the
// PointError must name b by its call-wide index 2.
func TestDispatcherHookPanicNamesCallWideIndex(t *testing.T) {
	a := experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 10, Seed: 1}
	b := experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 12, Seed: 2}
	d := NewDispatcher(Options{Cache: memCache(t)})
	p := testProfile()
	p.RunPoints = d.Runner(JobMeta{ID: "job"})
	p.Progress = func(s sched.RunStats) {
		if s.TasksScheduled == uint64(b.NumTasks) {
			panic("progress bug")
		}
	}
	for _, pass := range []string{"cold", "warm"} {
		_, err := experiments.RunManyCtx(context.Background(), p, []experiments.RunSpec{a, a, b})
		var pe *experiments.PointError
		if !errors.As(err, &pe) || pe.Panic != "progress bug" || pe.Index != 2 || pe.Point != b {
			t.Fatalf("%s pass: error %v, want b's PointError at index 2", pass, err)
		}
	}
	if hits := d.cache.Stats().Hits; hits != 2 {
		t.Fatalf("%d cache hits, want the warm pass's 2", hits)
	}
}

// recordHandler is an slog.Handler that keeps every record it handles.
type recordHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordHandler) WithGroup(string) slog.Handler            { return h }
func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}

// TestSlowPointLogNamesCampaignIndex runs a 3-point campaign on a
// standalone dispatcher, where every point is a local cache miss, with a
// slow-point threshold every point exceeds. Each warning must carry the
// point's index in the campaign, not its index in the one-point run the
// dispatcher makes of it.
func TestSlowPointLogNamesCampaignIndex(t *testing.T) {
	h := &recordHandler{}
	p := testProfile()
	p.Logger = slog.New(h)
	p.SlowPointSec = 1e-9
	d := NewDispatcher(Options{Cache: memCache(t)})
	if _, err := d.Runner(JobMeta{ID: "slow"})(context.Background(), p, testSpecs()[:3]); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range h.recs {
		if r.Message != "slow simulation point" {
			continue
		}
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "index" {
				got = append(got, a.Value.Int64())
			}
			return true
		})
	}
	slices.Sort(got)
	if !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("slow-point warnings carry indices %v, want [0 1 2]", got)
	}
}
