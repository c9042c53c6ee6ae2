package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/sched"
)

// figuresBench regenerates the point list of Figures 7-12 at one
// replication under the default profile, on two workers.
type figuresBench struct {
	seed  uint64
	t     *tally
	prof  experiments.Profile
	specs []experiments.RunSpec

	// Per-layer accumulators of a traced window.
	mu       sync.Mutex
	buildMs  []float64
	runMs    []float64
	policies map[string]*policyLayer
	first    []sched.Result // results of the first traced pass
}

// figureSpecs lists the simulation points Figures 7-12 run, in the order
// experiments.All runs them (Figures 7 and 8 share a grid, as do 11 and
// 12; a user regenerating every figure runs both copies).
func figureSpecs(p experiments.Profile) []experiments.RunSpec {
	var out []experiments.RunSpec
	grid := func() {
		for _, name := range experiments.AllPolicies {
			for _, n := range experiments.TaskCounts {
				out = append(out, experiments.RunSpec{Policy: name, NumTasks: n})
			}
		}
	}
	util := func(n int) {
		for _, name := range []experiments.PolicyName{experiments.AdaptiveRL, experiments.OnlineRL} {
			out = append(out, experiments.RunSpec{Policy: name, NumTasks: n})
		}
	}
	hetero := func() {
		for _, n := range []int{p.HeavyTasks, p.LightTasks} {
			for _, cv := range experiments.HeterogeneityLevels {
				out = append(out, experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: n, HeterogeneityCV: cv})
			}
		}
	}
	grid()
	grid()
	util(p.HeavyTasks)
	util(p.LightTasks)
	hetero()
	hetero()
	return out
}

func newFigures(seed uint64, t *tally) (*figuresBench, error) {
	p := experiments.DefaultProfile()
	p.Replications = 1
	p.Workers = 2
	specs := figureSpecs(p)
	want, err := experiments.PointCount(p, experiments.FigureIDAll)
	if err != nil {
		return nil, err
	}
	if len(specs) != want {
		return nil, fmt.Errorf("figures: %d points listed, experiments.PointCount says %d", len(specs), want)
	}
	return &figuresBench{seed: seed, t: t, prof: p, specs: specs}, nil
}

func (f *figuresBench) setup(*Tracer) (instance, error) {
	if _, err := f.pass(subseed(f.seed, "figures/warmup", 0), nil, "warmup"); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *figuresBench) close() {}

// passOut is one regenerated point list.
type passOut struct {
	results []sched.Result
	lat     []float64 // per point, ms
	elapsed time.Duration
}

// pass runs every point once on seed, through experiments.RunMany. The
// Profile.PointSpan hook times each point. Traced, the points run through
// the Profile.RunPoints hook instead, on the same two workers, each with
// its policy wrapped in the timing decorator.
func (f *figuresBench) pass(seed uint64, tr *Tracer, label string) (*passOut, error) {
	p := f.prof
	p.Seed = seed
	specs := make([]experiments.RunSpec, len(f.specs))
	for i, s := range f.specs {
		s.Seed = seed
		specs[i] = s
	}
	out := &passOut{lat: make([]float64, len(specs))}
	p.PointSpan = func(i int, _ experiments.RunSpec) func(error) {
		var sp *OpenSpan
		if tr != nil {
			sp = tr.BeginRoot(pointTrace(label, i), "experiments.point")
		}
		start := time.Now()
		return func(error) {
			out.lat[i] = ms(time.Since(start))
			sp.End()
		}
	}
	if tr != nil {
		p.RunPoints = func(_ context.Context, p experiments.Profile, specs []experiments.RunSpec) ([]sched.Result, error) {
			return f.tracedPoints(tr, label, p, specs)
		}
	}
	start := time.Now()
	res, err := experiments.RunMany(p, specs)
	out.elapsed = time.Since(start)
	out.results = res
	return out, err
}

func pointTrace(label string, i int) string { return fmt.Sprintf("%s/point-%d", label, i) }

// tracedPoints is the RunPoints executor of a traced pass: results in
// spec order, the lowest-index error on failure.
func (f *figuresBench) tracedPoints(tr *Tracer, label string, p experiments.Profile, specs []experiments.RunSpec) ([]sched.Result, error) {
	out := make([]sched.Result, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				out[i], errs[i] = f.tracedPoint(tr, label, p, i, specs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedPoint runs one point under the PointSpan hook with a decorated
// policy. experiments.RunWith builds the scenario itself, so a separate
// experiments.Build of the same spec, timed before the point starts,
// stands for the build share of the engine run span.
func (f *figuresBench) tracedPoint(tr *Tracer, label string, p experiments.Profile, i int, spec experiments.RunSpec) (sched.Result, error) {
	bstart := time.Now()
	if _, _, err := experiments.Build(p, spec); err != nil {
		return sched.Result{}, err
	}
	build := time.Since(bstart)
	end := p.PointSpan(i, spec)
	pol, err := experiments.NewPolicy(spec.Policy)
	if err != nil {
		end(err)
		return sched.Result{}, err
	}
	tp := &timedPolicy{inner: pol}
	trace := pointTrace(label, i)
	run := tr.Begin(trace, tr.Root(trace), "sched.run")
	start := time.Now()
	res, err := experiments.RunWith(p, spec, tp)
	runDur := time.Since(start)
	tr.Aggregate(trace, run.ID(), "workload.build", start, build, 1)
	key := policyKeys[spec.Policy]
	recordPolicySpans(tr, trace, run.ID(), key, &tp.t)
	run.Count(int64(res.Stats.Events))
	run.End()
	end(err)

	f.mu.Lock()
	defer f.mu.Unlock()
	f.buildMs = append(f.buildMs, ms(build))
	f.runMs = append(f.runMs, ms(runDur))
	pl := f.policies[key]
	if pl == nil {
		pl = &policyLayer{}
		f.policies[key] = pl
	}
	pl.calls.add(&tp.t)
	pl.run += runDur
	return res, err
}

// resultJSON is a result's canonical encoding without its per-task
// collector, the form the cache and the wire use.
func resultJSON(r sched.Result) []byte {
	r.Collector = nil
	return canonical(r)
}

func (f *figuresBench) measure(d time.Duration, tr *Tracer, minN int) (*window, error) {
	if tr != nil {
		f.buildMs, f.runMs, f.first = nil, nil, nil
		f.policies = make(map[string]*policyLayer)
	}
	w := &window{}
	var coldJSON [][]byte
	mw := watchMemory()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el > d+maxOvertime || el >= d && w.enough(minN) {
			break
		}
		// Even passes are cold, on a fresh seed; odd passes repeat the
		// previous seed and must reproduce its results exactly.
		cold := i%2 == 0
		out, err := f.pass(subseed(f.seed, "figures/pass", i/2), tr, fmt.Sprintf("pass-%d", i))
		w.elapsed += out.elapsed
		if err != nil {
			for range f.specs {
				f.t.attempt(err)
			}
			coldJSON = nil
			continue
		}
		if tr != nil && f.first == nil {
			f.first = make([]sched.Result, len(out.results))
			for k, r := range out.results {
				r.Collector = nil // keep the counts, not the per-task records
				f.first[k] = r
			}
		}
		var js [][]byte
		for k, r := range out.results {
			var err error
			if r.Completed != r.Submitted || r.Submitted != f.specs[k].NumTasks {
				err = fmt.Errorf("point %d completed %d of %d tasks", k, r.Completed, r.Submitted)
			}
			j := resultJSON(r)
			if !cold && coldJSON != nil && !bytes.Equal(j, coldJSON[k]) {
				err = fmt.Errorf("warm pass %d point %d differs from its cold pass", i, k)
			}
			f.t.attempt(err)
			js = append(js, j)
			w.tasks += int64(r.Completed)
		}
		if cold {
			coldJSON = js
			w.cold = append(w.cold, out.lat...)
			if i == 0 {
				w.digest = digest(js...)
			}
		} else {
			w.warm = append(w.warm, out.lat...)
		}
		w.ops += len(out.results)
	}
	w.allocs, w.peakHeap = mw.finish()
	return w, nil
}

func (f *figuresBench) layers(m map[string]float64, spans []Span) []string {
	var pointMs []float64
	for _, s := range spans {
		if s.Name == "experiments.point" {
			pointMs = append(pointMs, float64(s.Dur())/1e6)
		}
	}
	m["experiments.point_ms_p50"] = median(pointMs)
	var beyond int
	m["experiments.point_ms_p90"], beyond = percentile(pointMs, 0.9)
	m["workload.build_ms_per_point"] = mean(f.buildMs)
	m["sched.run_ms"] = median(f.runMs)
	engineLayers(m, f.first, spans)
	policyMetrics(m, f.policies)
	return []string{fmt.Sprintf("traced samples: points=%d (beyond p90: %d) builds=%d engine runs=%d counted points=%d",
		len(pointMs), beyond, len(f.buildMs), len(f.runMs), len(f.first))}
}

// engineLayers renders the sched.* and memory.* per-layer metrics: exact
// RunStats counts over results (the first traced pass or run, which the
// seed fixes) and engine self time per event over every traced run.
func engineLayers(m map[string]float64, results []sched.Result, spans []Span) {
	var s sched.RunStats
	var tasks int
	for _, r := range results {
		tasks += r.Completed
		s.Events += r.Stats.Events
		s.GroupsPlaced += r.Stats.GroupsPlaced
		s.Splits += r.Stats.Splits
		s.Backlogged += r.Stats.Backlogged
		s.HeapHighWater = max(s.HeapHighWater, r.Stats.HeapHighWater)
		s.MemoryLookups += r.Stats.MemoryLookups
		s.MemoryHits += r.Stats.MemoryHits
		s.MemoryEvictions += r.Stats.MemoryEvictions
	}
	m["sched.events_per_task"] = safeDiv(float64(s.Events), float64(tasks))
	m["sched.groups_placed"] = float64(s.GroupsPlaced)
	m["sched.splits"] = float64(s.Splits)
	m["sched.heap_high_water"] = float64(s.HeapHighWater)
	m["sched.backlogged"] = float64(s.Backlogged)
	m["memory.lookups_per_task"] = safeDiv(float64(s.MemoryLookups), float64(tasks))
	m["memory.hit_ratio"] = safeDiv(float64(s.MemoryHits), float64(s.MemoryLookups))
	m["memory.evictions"] = float64(s.MemoryEvictions)

	// Self time of every engine run span over the events those runs fired.
	self := SelfTimes(spans)
	var selfNs int64
	var events uint64
	for _, sp := range spans {
		if sp.Name == "sched.run" {
			selfNs += self[sp.ID]
			events += uint64(sp.Calls)
		}
	}
	m["sched.self_ns_per_event"] = safeDiv(float64(selfNs), float64(events))
}
