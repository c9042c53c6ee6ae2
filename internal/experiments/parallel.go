package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/stats"
	"rlsched/internal/workload"
)

// PointError reports a panic captured while running one simulation point.
// The runner recovers per-point panics so one corrupted point (a policy
// bug, an index error in a callback) fails its campaign with a structured
// error — stack attached — instead of killing the worker pool's process.
// Like an InvariantError it marks a deterministic model bug: re-running
// the same spec reproduces it, so it is never worth retrying.
type PointError struct {
	// Point is the spec of the panicking point (zero when the panic was
	// recovered at a layer that had no spec context).
	Point RunSpec
	// Index is the point's call-wide index (see Profile.PointIndex), or
	// -1 when no point can be named: a direct Run or RunWith, or a
	// RunPoints executor that panicked outside any point.
	Index int
	// Panic is the recovered panic value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements the error interface; the stack is included so a job
// record or log line carries the full context of the failure.
func (e *PointError) Error() string {
	s := e.Point
	return fmt.Sprintf("experiments: point %d (%s n=%d cv=%g seed=%d) panicked: %v\n%s",
		e.Index, s.Policy, s.NumTasks, s.HeterogeneityCV, s.Seed, e.Panic, e.Stack)
}

// runPoint invokes fn(i), converting a panic into a *PointError so a
// worker-pool goroutine survives a corrupted point.
func runPoint(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PointError); ok {
				err = pe
				return
			}
			err = &PointError{Index: i, Panic: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(i)
}

// Campaign parallelism. Every simulation point derives all of its
// randomness from its RunSpec alone (see scenarioStream), shares no
// mutable state with other points, and runs on its own single-threaded
// simulator — so a figure's points are embarrassingly parallel and the
// assembled figures are bit-identical at any worker count. The runner
// below fans points over a bounded worker pool and writes each result
// into its slot by index, keeping output order independent of goroutine
// scheduling.

// workerCount resolves Profile.Workers: 0 means one worker per available
// CPU, anything else is taken literally.
func (p Profile) workerCount() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachPoint is the point pool: it invokes fn(i) for every i in [0, n)
// on up to workers goroutines. RunManyCtx, Figures and the cluster
// dispatcher's cache pass and local remainder all fan out through it.
// With workers <= 1 it is a plain serial loop that stops at the first
// error. In parallel it hands indices out in order, stops issuing new
// work once any fn fails, and returns the error with the lowest index —
// the same error the serial loop would surface, because index i is always
// claimed before index i+1, so no failure with a smaller index can be
// missed. A panic in fn(i) is recovered on its worker goroutine into a
// *PointError with Index i and the stack (a *PointError panic value is
// returned as is) and fails the pool like an error. Cancelling ctx stops
// issuing new points (points already started run to completion); if no
// fn error occurred, the context's error is returned.
func ForEachPoint(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n < 2 || workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runPoint(fn, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = n
		firstEr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runPoint(fn, i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}

// RunMany executes every spec under the profile, fanning the points over
// p.Workers goroutines (see Profile.Workers), and returns the results in
// spec order. A spec listed more than once is simulated once and its
// result copied into every index that names it. On failure it returns
// the error of the lowest-index failing spec, wrapped with that spec's
// parameters, and discards the rest.
func RunMany(p Profile, specs []RunSpec) ([]sched.Result, error) {
	return RunManyCtx(context.Background(), p, specs)
}

// RunManyCtx is RunMany under a context: cancelling ctx stops issuing new
// points, discards any completed work and returns the context's error.
// After each completed point the profile's Progress hook (if set) is
// invoked with the point's engine counters, so a caller can observe how
// far a campaign has advanced and what it cost; the
// profile's Metrics registry (if set) records the point's wall-clock
// duration, and points slower than SlowPointSec are logged as warnings.
func RunManyCtx(ctx context.Context, p Profile, specs []RunSpec) ([]sched.Result, error) {
	return runMany(ctx, p, specs, nil, 0)
}

// runMany is RunManyCtx with the workload generator gen (nil means
// workload.Generate) and the spec list numbered from base: spec i is
// point base+i to PointSpan, RecordersFor and errors. Every result is a
// pure function of the profile and the spec, so the spec list is grouped
// by bit-exact point first and each distinct point runs once, locally or
// through RunPoints; the profile handed down numbers the distinct list
// by call-wide index (see PointIndex). Copies tick Progress with zero
// counters, so the hook still fires once per index while the engine
// counters it sums count real runs only; a panic in such a tick becomes
// a *PointError naming the copy's spec and call-wide index. A profile
// with in-process recorders runs every index: its recorders are per
// index.
func runMany(ctx context.Context, p Profile, specs []RunSpec, gen workloadGen, base int) ([]sched.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.pointBase, p.pointOrig = base, nil
	if p.InProcess() {
		return runPoints(ctx, p, specs, gen)
	}
	uniq, orig, slot := distinct(specs)
	p.pointOrig = orig
	res, err := runPoints(ctx, p, uniq, gen)
	if err != nil || slot == nil {
		return res, err
	}
	progress := p.Progress
	tick := func(int) error { progress(sched.RunStats{}); return nil }
	out := make([]sched.Result, len(specs))
	for i, k := range slot {
		out[i] = res[k]
		if orig[k] == i || progress == nil {
			continue
		}
		if err := runPoint(tick, base+i); err != nil {
			pe := err.(*PointError)
			pe.Point, pe.Index = specs[i], base+i
			return nil, pe
		}
	}
	return out, nil
}

// PointIndex returns the call-wide index of spec k of the list a
// RunPoints executor is handed: the spec's position in the call's point
// list (the first occurrence's, for a repeated spec), which is what a
// local run's PointSpan, RecordersFor, slow-point log and errors report.
// Indices increase with k. On a profile no campaign handed down it is k.
func (p Profile) PointIndex(k int) int {
	if p.pointOrig != nil {
		return p.pointBase + p.pointOrig[k]
	}
	return p.pointBase + k
}

// pointKey identifies a simulation point bit-exactly: −0 and +0 CV label
// their scenario streams differently (see scenarioStream), so the CV is
// compared by its bits, not by value.
type pointKey struct {
	policy PolicyName
	tasks  int
	cv     uint64
	seed   uint64
}

func keyOf(s RunSpec) pointKey {
	return pointKey{s.Policy, s.NumTasks, math.Float64bits(s.HeterogeneityCV), s.Seed}
}

// pairwiseMax bounds the lists distinct scans pair by pair, which
// allocates nothing; a longer list is grouped through a map.
const pairwiseMax = 256

// distinct groups specs by point: uniq holds each distinct spec once in
// first-occurrence order, orig[k] is the index of uniq[k] in specs and
// slot[i] the position of specs[i] in uniq. When specs has no repeats it
// returns specs itself and nil indices, without allocating for lists of
// up to pairwiseMax specs.
func distinct(specs []RunSpec) (uniq []RunSpec, orig, slot []int) {
	if len(specs) <= pairwiseMax && !hasRepeat(specs) {
		return specs, nil, nil
	}
	first := make(map[pointKey]int, len(specs))
	slot = make([]int, len(specs))
	for i, s := range specs {
		key := keyOf(s)
		k, ok := first[key]
		if !ok {
			k = len(uniq)
			first[key] = k
			uniq = append(uniq, s)
			orig = append(orig, i)
		}
		slot[i] = k
	}
	if len(uniq) == len(specs) {
		return specs, nil, nil
	}
	return uniq, orig, slot
}

func hasRepeat(specs []RunSpec) bool {
	for i := range specs {
		ki := keyOf(specs[i])
		for j := 0; j < i; j++ {
			if keyOf(specs[j]) == ki {
				return true
			}
		}
	}
	return false
}

// runPoints runs every spec once, through the RunPoints executor when the
// profile has one (and gen is nil), else on the local worker pool, which
// reports spec k as point p.PointIndex(k).
func runPoints(ctx context.Context, p Profile, specs []RunSpec, gen workloadGen) ([]sched.Result, error) {
	// A pluggable executor (cache lookup, cluster fan-out) takes the
	// whole campaign — unless the profile carries in-process
	// instrumentation (probes, audit recorders, tracers) that only a
	// local run can feed, or the points use a non-default generator,
	// which a cache entry or a cluster worker cannot know.
	if gen == nil {
		if p.RunPoints != nil && !p.InProcess() {
			return runExecutor(ctx, p, specs)
		}
		gen = workload.Generate
	}
	out := make([]sched.Result, len(specs))
	err := ForEachPoint(ctx, p.workerCount(), len(specs), func(k int) error {
		res, err := runPointGen(p, p.PointIndex(k), specs[k], gen)
		out[k] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunPoint simulates spec as point index of a campaign under p, exactly
// as RunManyCtx's pool runs each of its points: PointSpan, RecordersFor,
// the point_run_seconds histogram, the slow-point log, errors and panics
// name index, and Progress ticks once the point succeeds. RunPoints is
// not consulted; the caller fans points out (see ForEachPoint).
func RunPoint(p Profile, index int, spec RunSpec) (sched.Result, error) {
	return runPointGen(p, index, spec, workload.Generate)
}

// runPointGen is RunPoint with the workload generator gen. A panic
// anywhere in it, the hooks' included, becomes a *PointError for point
// i. The point pays a clock read only when someone is listening.
func runPointGen(p Profile, i int, s RunSpec, gen workloadGen) (res sched.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = sched.Result{}, &PointError{Point: s, Index: i, Panic: v, Stack: string(debug.Stack())}
		}
	}()
	var hist *obs.Histogram
	if p.Metrics != nil {
		hist = p.Metrics.Histogram("point_run_seconds", "Wall-clock duration of one simulation point.", obs.DefBuckets)
	}
	timed := hist != nil || (p.Logger != nil && p.SlowPointSec > 0)
	var start time.Time
	if timed {
		start = time.Now()
	}
	var endSpan func(error)
	if p.PointSpan != nil {
		endSpan = p.PointSpan(i, s)
	}
	res, err = runGen(p, i, s, gen)
	if endSpan != nil {
		endSpan(err)
	}
	if timed {
		el := time.Since(start).Seconds()
		hist.Observe(el)
		if p.Logger != nil && p.SlowPointSec > 0 && el > p.SlowPointSec {
			p.Logger.Warn("slow simulation point",
				"index", i, "policy", string(s.Policy), "tasks", s.NumTasks,
				"cv", s.HeterogeneityCV, "seed", s.Seed, "seconds", el)
		}
	}
	if err != nil {
		var pe *PointError
		if errors.As(err, &pe) {
			pe.Index = i
			return sched.Result{}, pe
		}
		return sched.Result{}, fmt.Errorf("point %d (%s n=%d cv=%g seed=%d): %w",
			i, s.Policy, s.NumTasks, s.HeterogeneityCV, s.Seed, err)
	}
	if p.Progress != nil {
		p.Progress(res.Stats)
	}
	return res, nil
}

// runExecutor hands specs to the profile's RunPoints executor. A panic
// in the executor is recovered into a *PointError with Index -1: the
// executor took the whole list, so no single point can be named.
func runExecutor(ctx context.Context, p Profile, specs []RunSpec) (res []sched.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PointError{Index: -1, Panic: r, Stack: string(debug.Stack())}
		}
	}()
	return p.RunPoints(ctx, p, specs)
}

// replicate expands each base point into the profile's replications:
// replication k of a point keeps its spec but runs with seed p.Seed+k.
// The expansion is dense — point i's replications occupy indices
// [i*Replications, (i+1)*Replications) — which is what pointStats and
// pointSeries reduce back down.
func replicate(p Profile, points []RunSpec) []RunSpec {
	out := make([]RunSpec, 0, len(points)*p.Replications)
	for _, pt := range points {
		for k := 0; k < p.Replications; k++ {
			s := pt
			s.Seed = p.Seed + uint64(k)
			out = append(out, s)
		}
	}
	return out
}

// pointStats reduces the results of a replicate()-expanded spec list to
// one PointStat per base point via extract.
func pointStats(p Profile, results []sched.Result, extract func(sched.Result) float64) []PointStat {
	out := make([]PointStat, len(results)/p.Replications)
	for i := range out {
		var acc stats.Accumulator
		for k := 0; k < p.Replications; k++ {
			acc.Add(extract(results[i*p.Replications+k]))
		}
		out[i] = PointStat{Mean: acc.Mean(), CI95: acc.CI95(), N: acc.N()}
	}
	return out
}

// pointSeries is pointStats for per-run series metrics: it averages the
// extracted series element-wise over each base point's replications.
func pointSeries(p Profile, results []sched.Result, extract func(sched.Result) []float64) [][]float64 {
	out := make([][]float64, len(results)/p.Replications)
	rows := make([][]float64, p.Replications)
	for i := range out {
		for k := 0; k < p.Replications; k++ {
			rows[k] = extract(results[i*p.Replications+k])
		}
		out[i] = stats.MeanSeries(rows)
	}
	return out
}
