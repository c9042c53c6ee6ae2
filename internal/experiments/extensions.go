package experiments

import (
	"context"
	"fmt"

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
func figureE1(ctx context.Context, p Profile) (Figure, error) {
	fig := Figure{
		ID:     "figureE1",
		Title:  "Extension: deadline success vs processor failure rate",
		XLabel: "failures per 1000 processor-time-units",
		YLabel: "successful rate",
		Expected: "Success decreases as failures become more frequent for both policies " +
			"while every task still completes; the learning advantage fades under heavy " +
			"churn as placement beliefs go stale faster than they are re-learned.",
	}
	for _, name := range []PolicyName{AdaptiveRL, Greedy} {
		s := Series{Label: string(name)}
		for _, mtbf := range FailureMTBFLevels {
			prof := p
			prof.Engine.FailureMTBF = mtbf
			if mtbf > 0 {
				prof.Engine.RepairTime = 25
			}
			pt, err := runReplications(ctx, prof, RunSpec{Policy: name, NumTasks: p.HeavyTasks}, nil,
				func(r sched.Result) float64 { return r.SuccessRate })
			if err != nil {
				return Figure{}, fmt.Errorf("%s/%s/mtbf=%g: %w", fig.ID, name, mtbf, err)
			}
			rate := 0.0
			if mtbf > 0 {
				rate = 1000 / mtbf
			}
			s.X = append(s.X, rate)
			s.Y = append(s.Y, pt.Mean)
			s.CI95 = append(s.CI95, pt.CI95)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// figureE2 compares the four learning approaches on a bursty arrival
// process (same long-run rate as the heavy Poisson point, 4x bursts):
// burstiness amplifies the gap between adaptive and static grouping.
func figureE2(ctx context.Context, p Profile) (Figure, error) {
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
	for _, name := range AllPolicies {
		s := Series{Label: string(name)}
		// nil is the default Poisson generator: only that point may come
		// from the daemon's result cache or a cluster worker.
		for i, gen := range []workloadGen{nil, bursty} {
			pt, err := runReplications(ctx, p, RunSpec{Policy: name, NumTasks: p.HeavyTasks}, gen,
				func(r sched.Result) float64 { return r.AveRT })
			if err != nil {
				return Figure{}, fmt.Errorf("%s/%s: %w", fig.ID, name, err)
			}
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, pt.Mean)
			s.CI95 = append(s.CI95, pt.CI95)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
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
func figureE3(ctx context.Context, p Profile) (Figure, error) {
	fig := Figure{
		ID:     "figureE3",
		Title:  "Extension: successful rate vs task-priority mix",
		XLabel: "mix (1 = low-heavy, 2 = uniform, 3 = high-heavy)",
		YLabel: "successful rate",
		Expected: "Success falls as the population shifts toward high-priority tasks " +
			"(slack <= 20% leaves no queueing budget at heavy load).",
	}
	s := Series{Label: "adaptive-rl"}
	for i, m := range PriorityMixes {
		prof := p
		prof.Mix = m.Mix
		pt, err := runReplications(ctx, prof, RunSpec{Policy: AdaptiveRL, NumTasks: p.HeavyTasks}, nil,
			func(r sched.Result) float64 { return r.SuccessRate })
		if err != nil {
			return Figure{}, fmt.Errorf("%s/%s: %w", fig.ID, m.Label, err)
		}
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, pt.Mean)
		s.CI95 = append(s.CI95, pt.CI95)
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}
