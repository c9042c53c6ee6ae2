package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/cache"
)

// metricDef names one reported metric and its unit. The tables below are
// the benchmark's contract and must match BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd is printed by untraced runs. Every workload reports every
// metric; an "operation" is the workload's closed-loop unit of work (a
// simulation point, a 1,000-task slice of a scale run, a daemon job).
// Cold operations compute from fresh inputs, warm ones repeat an input
// the run has already processed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_tasks_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_p90_ms", "ms"},
	{"allocs_per_task", "count"},
	{"peak_heap_mib", "MiB"},
}

// perLayer is printed by traced runs. A layer a workload bypasses reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.point_ms_p50", "ms"},
		{"experiments.point_ms_p90", "ms"},
		{"workload.build_ms_per_point", "ms"},
		{"workload.next_ns", "ns"},
		{"sched.run_ms", "ms"},
		{"sched.events_per_task", "count"},
		{"sched.self_ns_per_event", "ns"},
		{"sched.groups_placed", "count"},
		{"sched.splits", "count"},
		{"sched.heap_high_water", "count"},
		{"sched.backlogged", "count"},
	}
	for _, p := range []string{"adaptive_rl", "online_rl", "qplus", "predictive"} {
		for _, cb := range callbackNames {
			defs = append(defs, metricDef{"policy." + p + "." + cb + "_ns", "ns"})
		}
		defs = append(defs, metricDef{"policy." + p + ".share", "ratio"})
	}
	return append(defs, []metricDef{
		{"memory.lookups_per_task", "count"},
		{"memory.hit_ratio", "ratio"},
		{"memory.evictions", "count"},
		{"server.submit_ms_p50", "ms"},
		{"server.result_ms_p50", "ms"},
		{"server.requests_per_job", "count"},
		{"cluster.lease_ms_p50", "ms"},
		{"cluster.lease_ms_p90", "ms"},
		{"cluster.polls_per_lease", "count"},
		{"cluster.lease_overhead_ms", "ms"},
		{"cluster.retries", "count"},
		{"cache.hit_ratio_cold", "ratio"},
		{"cache.hit_ratio_warm", "ratio"},
		{"cache.read_ms", "ms"},
		{"cache.write_ms", "ms"},
		{"cache.syncs_per_job", "count"},
		{"journal.write_ms", "ms"},
		{"journal.syncs_per_job", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// minBeyond is the percentile rule: a reported tail percentile must have
// at least this many samples above it.
const minBeyond = 10

// minSamples is the smallest sample count whose p90 satisfies minBeyond.
const minSamples = 100

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and how
// many samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tail is percentile under the percentile rule: it fails when fewer than
// minBeyond samples lie beyond the q-quantile.
func tail(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return v, fmt.Errorf("p%g has %d samples beyond it (of %d), want at least %d", q*100, beyond, len(xs), minBeyond)
	}
	return v, nil
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tally counts operations attempted and the ones that failed or produced
// wrong output. A failed check marks an already attempted operation as
// failed; each operation counts as failed at most once.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// attempt counts one operation. err, when non-nil, fails it.
func (t *tally) attempt(err error) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if err != nil {
		t.fail(err)
	}
}

// fail marks one attempted operation as failed or wrong.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed < t.attempted {
		t.failed++
	}
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// check fails one operation when cond is false.
func (t *tally) check(cond bool, format string, args ...any) {
	if !cond {
		t.fail(fmt.Errorf(format, args...))
	}
}

func (t *tally) counts() (attempted, failed int, errs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.errs...)
}

func (t *tally) ratio() float64 {
	a, f, _ := t.counts()
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

// canonical encodes v with cache.CanonicalJSON, the encoding results are
// compared and digested in.
func canonical(v any) []byte {
	b, err := cache.CanonicalJSON(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: canonical encoding: %v", err))
	}
	return b
}

// digest is the hex SHA-256 of the concatenated canonical encodings.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memWatch samples the live heap while a window runs and counts heap
// allocations across it, using runtime/metrics (no stop-the-world).
type memWatch struct {
	start uint64
	peak  atomic.Uint64
	stop  chan struct{}
	done  chan struct{}
}

const (
	mAllocs = "/gc/heap/allocs:objects"
	mHeap   = "/memory/classes/heap/objects:bytes"
)

func readMem() (allocs, heap uint64) {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// watchMemory collects garbage, then samples the heap every 5 ms until
// finish is called.
func watchMemory() *memWatch {
	runtime.GC()
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	var heap uint64
	w.start, heap = readMem()
	w.peak.Store(heap)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				_, h := readMem()
				if h > w.peak.Load() {
					w.peak.Store(h)
				}
			}
		}
	}()
	return w
}

// finish stops sampling and returns the allocations made since the start
// and the peak heap seen, in bytes.
func (w *memWatch) finish() (allocs, peak uint64) {
	close(w.stop)
	<-w.done
	a, h := readMem()
	if h > w.peak.Load() {
		w.peak.Store(h)
	}
	return a - w.start, w.peak.Load()
}

// window is what one timed window of closed-loop operations measured.
type window struct {
	elapsed    time.Duration
	tasks      int64 // simulated tasks completed
	ops        int
	cold, warm []float64 // operation latencies, ms
	allocs     uint64
	peakHeap   uint64
	digest     string // over a fixed, seed-determined prefix of the results
}

// endToEnd renders the window as the end-to-end metrics; setup is the
// median set-up time in seconds. A percentile-rule violation is an error.
func (w *window) endToEnd(setup float64) (map[string]float64, error) {
	sec := w.elapsed.Seconds()
	m := map[string]float64{
		"setup_s":         setup,
		"sim_tasks_per_s": float64(w.tasks) / sec,
		"ops_per_s":       float64(w.ops) / sec,
		"cold_p50_ms":     median(w.cold),
		"warm_p50_ms":     median(w.warm),
		"peak_heap_mib":   float64(w.peakHeap) / (1 << 20),
	}
	if w.tasks > 0 {
		m["allocs_per_task"] = float64(w.allocs) / float64(w.tasks)
	}
	var err error
	for _, k := range []struct {
		name string
		xs   []float64
	}{{"cold_p90_ms", w.cold}, {"warm_p90_ms", w.warm}} {
		v, e := tail(k.xs, 0.9)
		m[k.name] = v
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %w", k.name, e)
		}
	}
	return m, err
}

// enough reports whether both latency samples hold n operations.
func (w *window) enough(n int) bool {
	return len(w.cold) >= n && len(w.warm) >= n
}
