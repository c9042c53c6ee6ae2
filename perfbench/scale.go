package main

import (
	"bytes"
	"fmt"
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Shape of the scale workload.
const (
	scaleSites   = 250
	scaleNodes   = 2
	scaleTasks   = 100_000
	warmupTasks  = 30_000
	sliceTasks   = 1000 // one scale operation
	scaleLoad    = 0.7
	scaleDiurnal = 0.6
)

// scaleBench streams a diurnal workload through Adaptive-RL on a
// 250-site platform in the engine's low-memory mode. At 1,000 sites its
// throughput and slice latencies spread 1.5-2x wider across runs (IQR
// 0.13-0.18 of the median against 0.06-0.11, in interleaved runs on a
// shared 2-vCPU host) as the host's speed drifted.
type scaleBench struct {
	seed uint64
	t    *tally

	// Per-layer accumulators of a traced window.
	runMs  []float64
	policy policyLayer
	first  []sched.Result
	nextNs float64
}

func scaleConfig(seed uint64, tasks int) experiments.ScaleConfig {
	return experiments.ScaleConfig{Sites: scaleSites, NodesPerSite: scaleNodes, NumTasks: tasks,
		Load: scaleLoad, Amplitude: scaleDiurnal, Policy: experiments.AdaptiveRL, Seed: seed}
}

// slicedSource times every sliceTasks tasks the engine pulls from the
// streaming workload source.
type slicedSource struct {
	src    workload.Source
	n      int
	mark   time.Time
	slices []float64
}

func (s *slicedSource) Next() (*workload.Task, bool) {
	t, ok := s.src.Next()
	if ok {
		s.n++
		if s.n%sliceTasks == 0 {
			now := time.Now()
			s.slices = append(s.slices, ms(now.Sub(s.mark)))
			s.mark = now
		}
	}
	return t, ok
}

// scaleOut is one scale run.
type scaleOut struct {
	res     sched.Result
	slices  []float64
	calls   callTimes
	elapsed time.Duration // the whole run, platform generation included
	run     time.Duration // the engine run alone
}

// runScale is experiments.RunScale with two of its seams opened: the
// workload.Source from ScaleConfig.Workload is wrapped to time slices of
// the stream, and, traced, the policy is wrapped in the timing decorator.
// Its results are checked byte-identical to experiments.RunScale.
func runScale(c experiments.ScaleConfig, tr *Tracer, trace string) (*scaleOut, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := &scaleOut{}
	start := time.Now()
	root := tr.BeginRoot(trace, "scale.run")
	defer root.End()
	r := rng.NewStream(c.Seed, fmt.Sprintf("scale-%s-s%d-n%d", c.Policy, c.Sites, c.NumTasks))
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = c.Sites
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = c.NodesPerSite, c.NodesPerSite
	gen := tr.Begin(trace, root.ID(), "platform.generate")
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	gen.End()
	if err != nil {
		return nil, err
	}
	src, _, err := c.Workload(r.Split("workload"))
	if err != nil {
		return nil, err
	}
	pol, err := experiments.NewPolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	tp := &timedPolicy{inner: pol}
	if tr != nil {
		pol = tp
	}
	ecfg := sched.DefaultConfig()
	ecfg.LowMemory = true
	ss := &slicedSource{src: src}
	eng, err := sched.NewFromSource(ecfg, pl, ss, pol, r.Split("engine"))
	if err != nil {
		return nil, err
	}
	run := tr.Begin(trace, root.ID(), "sched.run")
	rstart := time.Now()
	ss.mark = rstart
	out.res, err = eng.Run()
	out.run = time.Since(rstart)
	recordPolicySpans(tr, trace, run.ID(), policyKeys[c.Policy], &tp.t)
	run.Count(int64(out.res.Stats.Events))
	run.End()
	out.elapsed = time.Since(start)
	out.slices, out.calls = ss.slices, tp.t
	return out, err
}

// setup warms up on one fixed input, not one drawn from the workload
// seed: the cost of a many-site run depends on its generated platform,
// and set-up time should compare the same work from run to run.
func (s *scaleBench) setup(*Tracer) (instance, error) {
	if _, err := runScale(scaleConfig(subseed(0, "scale/warmup", 0), warmupTasks), nil, ""); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *scaleBench) close() {}

func (s *scaleBench) measure(d time.Duration, tr *Tracer, minN int) (*window, error) {
	if tr != nil {
		s.runMs, s.first, s.policy = nil, nil, policyLayer{}
	}
	w := &window{}
	var coldJSON []byte
	mw := watchMemory()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el > d+maxOvertime || el >= d && w.enough(minN) {
			break
		}
		// Even runs are cold, on a fresh seed; odd runs repeat the
		// previous seed and must reproduce its result exactly.
		cold := i%2 == 0
		c := scaleConfig(subseed(s.seed, "scale/run", i/2), scaleTasks)
		out, err := runScale(c, tr, fmt.Sprintf("run-%d", i))
		if err == nil && (out.res.Completed != out.res.Submitted || out.res.Submitted != c.NumTasks) {
			err = fmt.Errorf("scale run %d completed %d of %d tasks", i, out.res.Completed, out.res.Submitted)
		}
		var js []byte
		if err == nil {
			js = resultJSON(out.res)
			if !cold && coldJSON != nil && !bytes.Equal(js, coldJSON) {
				err = fmt.Errorf("warm scale run %d differs from its cold run", i)
			}
		}
		s.t.attempt(err)
		if err != nil {
			coldJSON = nil
			continue
		}
		w.elapsed += out.elapsed
		w.tasks += int64(out.res.Completed)
		w.ops += len(out.slices)
		if cold {
			coldJSON = js
			w.cold = append(w.cold, out.slices...)
			if i == 0 {
				w.digest = digest(js)
			}
		} else {
			w.warm = append(w.warm, out.slices...)
		}
		if tr != nil {
			s.runMs = append(s.runMs, ms(out.run))
			s.policy.calls.add(&out.calls)
			s.policy.run += out.run
			if s.first == nil {
				s.first = []sched.Result{out.res}
			}
		}
	}
	w.allocs, w.peakHeap = mw.finish()
	return w, s.verify(tr != nil)
}

// verify checks, outside the timed window, that runScale reproduces
// experiments.RunScale byte for byte (at the warm-up size), and, traced,
// times a separately drained workload source.
func (s *scaleBench) verify(traced bool) error {
	c := scaleConfig(subseed(s.seed, "scale/verify", 0), warmupTasks)
	want, err := experiments.RunScale(c)
	if err != nil {
		return err
	}
	got, err := runScale(c, nil, "")
	if err != nil {
		return err
	}
	s.t.check(bytes.Equal(resultJSON(want), resultJSON(got.res)), "runScale differs from experiments.RunScale")
	if !traced {
		return nil
	}
	c = scaleConfig(subseed(s.seed, "scale/run", 0), scaleTasks)
	src, _, err := c.Workload(rng.NewStream(c.Seed, "scale/next"))
	if err != nil {
		return err
	}
	n := 0
	start := time.Now()
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	s.nextNs = safeDiv(float64(time.Since(start).Nanoseconds()), float64(n))
	return nil
}

func (s *scaleBench) layers(m map[string]float64, spans []Span) []string {
	m["workload.next_ns"] = s.nextNs
	m["sched.run_ms"] = median(s.runMs)
	engineLayers(m, s.first, spans)
	policyMetrics(m, map[string]*policyLayer{policyKeys[experiments.AdaptiveRL]: &s.policy})
	return []string{fmt.Sprintf("traced samples: engine runs=%d counted runs=%d", len(s.runMs), len(s.first))}
}
