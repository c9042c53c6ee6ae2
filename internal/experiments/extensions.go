package experiments

import (
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Extension experiments beyond the paper's Figures 7-12, exercising the
// library features the paper motivates but does not evaluate: failure
// resilience (§I attributes frequent failures to overheating) and bursty
// arrival processes (real grid logs are not homogeneous Poisson).

// FailureMTBFLevels is the resilience sweep: mean uptime per processor in
// time units (0 = no failures).
var FailureMTBFLevels = []float64{0, 800, 400, 200, 100}

// figureE1 sweeps processor failure rates at the heavy load point for
// Adaptive-RL and the greedy reference: deadline success degrades with the
// failure rate while every task still completes (aborted executions
// re-run).
func figureE1(p Profile) plan {
	fig := Figure{
		ID:     "figureE1",
		Title:  "Extension: deadline success vs processor failure rate",
		XLabel: "failures per 1000 processor-time-units",
		YLabel: "successful rate",
		Expected: "Success decreases as failures become more frequent for both policies " +
			"while every task still completes; the learning advantage fades under heavy " +
			"churn as placement beliefs go stale faster than they are re-learned.",
	}
	var (
		points  = heavyPoints(p, AdaptiveRL, Greedy)
		batches []batch
		rates   []float64
	)
	for _, mtbf := range FailureMTBFLevels {
		prof, rate := p, 0.0
		prof.Engine.FailureMTBF = mtbf
		if mtbf > 0 {
			prof.Engine.RepairTime = 25
			rate = 1000 / mtbf
		}
		batches = append(batches, batch{p: prof, points: points})
		rates = append(rates, rate)
	}
	return plan{batches, seriesAcrossBatches(p, fig, points, rates,
		func(r sched.Result) float64 { return r.SuccessRate })}
}

// figureE2 compares the four learning approaches on a bursty arrival
// process (same long-run rate as the heavy Poisson point, 4x bursts):
// burstiness amplifies the gap between adaptive and static grouping.
func figureE2(p Profile) plan {
	fig := Figure{
		ID:     "figureE2",
		Title:  "Extension: average response time under bursty arrivals",
		XLabel: "series (1 = Poisson, 2 = bursty 4x)",
		YLabel: "average response time (t units)",
		Expected: "Every policy degrades under bursts; Adaptive-RL degrades least at the " +
			"heavy point.",
	}
	bursty := func(cfg workload.GenConfig, r *rng.Stream) ([]*workload.Task, error) {
		return workload.GenerateBursty(workload.BurstyConfig{
			GenConfig:    cfg,
			BurstFactor:  4,
			MeanBurstLen: 50,
			MeanGapLen:   200,
		}, r)
	}
	points := heavyPoints(p, AllPolicies...)
	// nil is the default Poisson generator: only that batch may come from
	// the daemon's result cache or a cluster worker.
	batches := []batch{{p: p, points: points}, {p: p, gen: bursty, points: points}}
	return plan{batches, seriesAcrossBatches(p, fig, points, []float64{1, 2},
		func(r sched.Result) float64 { return r.AveRT })}
}

// PriorityMixes is the Figure E3 sweep: the §V.A note "the probabilities
// of three different task priorities are varied in different experiments"
// made explicit, from deadline-tolerant to deadline-critical populations.
var PriorityMixes = []struct {
	Label string
	Mix   workload.PriorityMix
}{
	{"low-heavy (60/30/10)", workload.PriorityMix{Low: 0.6, Medium: 0.3, High: 0.1}},
	{"uniform (33/33/33)", workload.DefaultMix()},
	{"high-heavy (10/30/60)", workload.PriorityMix{Low: 0.1, Medium: 0.3, High: 0.6}},
}

// figureE3 sweeps the priority mix at the heavy point for Adaptive-RL,
// reporting the overall successful rate: urgent-dominated populations are
// harder because high-priority deadlines leave almost no waiting budget.
func figureE3(p Profile) plan {
	fig := Figure{
		ID:     "figureE3",
		Title:  "Extension: successful rate vs task-priority mix",
		XLabel: "mix (1 = low-heavy, 2 = uniform, 3 = high-heavy)",
		YLabel: "successful rate",
		Expected: "Success falls as the population shifts toward high-priority tasks " +
			"(slack <= 20% leaves no queueing budget at heavy load).",
	}
	var (
		points  = heavyPoints(p, AdaptiveRL)
		batches []batch
		xs      []float64
	)
	for i, m := range PriorityMixes {
		prof := p
		prof.Mix = m.Mix
		batches = append(batches, batch{p: prof, points: points})
		xs = append(xs, float64(i+1))
	}
	return plan{batches, seriesAcrossBatches(p, fig, points, xs,
		func(r sched.Result) float64 { return r.SuccessRate })}
}

// heavyPoints lists one base point per policy at the heavy task count.
func heavyPoints(p Profile, policies ...PolicyName) []RunSpec {
	points := make([]RunSpec, len(policies))
	for i, name := range policies {
		points[i] = RunSpec{Policy: name, NumTasks: p.HeavyTasks}
	}
	return points
}

// seriesAcrossBatches builds the figure of a plan whose batches each run
// points under another profile or generator: points[i] becomes the
// series labelled with its policy, whose k-th value is that point's
// stat in batch k, at x = xs[k].
func seriesAcrossBatches(p Profile, fig Figure, points []RunSpec, xs []float64, extract func(sched.Result) float64) func([][]sched.Result) Figure {
	return func(results [][]sched.Result) Figure {
		fig.Series = make([]Series, len(points))
		for i, pt := range points {
			fig.Series[i].Label = string(pt.Policy)
		}
		for k, res := range results {
			for i, st := range pointStats(p, res, extract) {
				s := &fig.Series[i]
				s.X = append(s.X, xs[k])
				s.Y = append(s.Y, st.Mean)
				s.CI95 = append(s.CI95, st.CI95)
			}
		}
		return fig
	}
}
