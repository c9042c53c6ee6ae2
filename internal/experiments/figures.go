package experiments

import (
	"context"
	"fmt"

	"rlsched/internal/sched"
)

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// CI95 holds per-point confidence half-widths when available
	// (parallel to Y; may be nil for derived series).
	CI95 []float64
}

// Figure is a reproduced evaluation figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Expected documents the paper's qualitative shape, printed alongside
	// the measurement in EXPERIMENTS.md.
	Expected string
}

// TaskCounts is the Figure 7/8 sweep (§V.A: 500-3000 tasks).
var TaskCounts = []int{500, 1000, 1500, 2000, 2500, 3000}

// HeterogeneityLevels is the Figure 11/12 sweep.
var HeterogeneityLevels = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// CycleFractions is the Figure 9/10 x-axis (% learning cycles).
var CycleFractions = []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// figure7 reproduces "Average response time with different learning
// approaches": AveRT (t units) versus the number of tasks for all four
// policies.
func figure7(ctx context.Context, p Profile) (Figure, error) {
	return sweepByPolicy(ctx, p, Figure{
		ID:     "figure7",
		Title:  "Average response time with different learning approaches",
		XLabel: "number of tasks",
		YLabel: "average response time (t units)",
		Expected: "AveRT grows with N for every policy; Adaptive-RL lowest with ~10% spread " +
			"at 500 tasks widening as N grows; Online RL second.",
	}, func(r sched.Result) float64 { return r.AveRT })
}

// figure8 reproduces "Average energy consumption with different learning
// approaches": ECS (millions of watt·time-units) versus the number of
// tasks for all four policies.
func figure8(ctx context.Context, p Profile) (Figure, error) {
	return sweepByPolicy(ctx, p, Figure{
		ID:     "figure8",
		Title:  "Average energy consumption with different learning approaches",
		XLabel: "number of tasks",
		YLabel: "energy consumption (in millions)",
		Expected: "ECS grows with N; Adaptive-RL lowest with Online RL within ~5%; " +
			"Q+ and Prediction-based noticeably higher.",
	}, func(r sched.Result) float64 { return r.ECS / 1e6 })
}

// sweepByPolicy runs the Figure 7/8 sweep shape: every policy across
// TaskCounts. The whole grid — policies x task counts x replications — is
// flattened into one spec list and fanned over the profile's workers;
// the stats are then folded back into per-policy series in order.
func sweepByPolicy(ctx context.Context, p Profile, fig Figure, extract func(sched.Result) float64) (Figure, error) {
	points := make([]RunSpec, 0, len(AllPolicies)*len(TaskCounts))
	for _, name := range AllPolicies {
		for _, n := range TaskCounts {
			points = append(points, RunSpec{Policy: name, NumTasks: n})
		}
	}
	results, err := RunManyCtx(ctx, p, replicate(p, points))
	if err != nil {
		return Figure{}, fmt.Errorf("%s: %w", fig.ID, err)
	}
	stats := pointStats(p, results, extract)
	for pi, name := range AllPolicies {
		s := Series{Label: string(name)}
		for ni, n := range TaskCounts {
			pt := stats[pi*len(TaskCounts)+ni]
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, pt.Mean)
			s.CI95 = append(s.CI95, pt.CI95)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// figure9 reproduces "Utilisation rate between Adaptive-RL and Online RL
// in heavily loaded state": windowed utilisation versus % learning cycles
// at the heavy task count.
func figure9(ctx context.Context, p Profile) (Figure, error) {
	return utilizationFigure(ctx, p, Figure{
		ID:     "figure9",
		Title:  "Utilisation rate, Adaptive-RL vs Online RL (heavily loaded)",
		XLabel: "% learning cycles",
		YLabel: "utilisation rate",
		Expected: "Adaptive-RL rises roughly linearly with learning cycles; Online RL stays " +
			"flat until ~50% of cycles, then rises; both reach >= 0.6 by 100%.",
	}, p.HeavyTasks, "heavily-loaded")
}

// figure10 reproduces the same comparison in the lightly loaded state.
func figure10(ctx context.Context, p Profile) (Figure, error) {
	return utilizationFigure(ctx, p, Figure{
		ID:     "figure10",
		Title:  "Utilisation rate, Adaptive-RL vs Online RL (lightly loaded)",
		XLabel: "% learning cycles",
		YLabel: "utilisation rate",
		Expected: "Same ordering at lower absolute utilisation; Online RL's rise is further " +
			"delayed (~70% of cycles).",
	}, p.LightTasks, "lightly-loaded")
}

func utilizationFigure(ctx context.Context, p Profile, fig Figure, numTasks int, loadLabel string) (Figure, error) {
	policies := []PolicyName{AdaptiveRL, OnlineRL}
	points := make([]RunSpec, 0, len(policies))
	for _, name := range policies {
		points = append(points, RunSpec{Policy: name, NumTasks: numTasks})
	}
	results, err := RunManyCtx(ctx, p, replicate(p, points))
	if err != nil {
		return Figure{}, fmt.Errorf("%s: %w", fig.ID, err)
	}
	series := pointSeries(p, results, func(r sched.Result) []float64 { return r.UtilWindows })
	for pi, name := range policies {
		s := Series{Label: fmt.Sprintf("%s (%s)", name, loadLabel)}
		for i, u := range series[pi] {
			if i < len(CycleFractions) {
				s.X = append(s.X, CycleFractions[i])
				s.Y = append(s.Y, u)
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// figure11 reproduces "Successful rate of Adaptive-RL in lightly- and
// heavily-loaded states" across resource heterogeneity.
func figure11(ctx context.Context, p Profile) (Figure, error) {
	return heterogeneityFigure(ctx, p, Figure{
		ID:     "figure11",
		Title:  "Successful rate of Adaptive-RL vs heterogeneity",
		XLabel: "heterogeneity of resources",
		YLabel: "successful rate",
		Expected: "Above ~0.7 on average; decreases as heterogeneity grows; lightly loaded " +
			"above heavily loaded.",
	}, func(r sched.Result) float64 { return r.SuccessRate })
}

// figure12 reproduces "Average energy consumption of Adaptive-RL in
// lightly- and heavily-loaded states" across resource heterogeneity.
func figure12(ctx context.Context, p Profile) (Figure, error) {
	return heterogeneityFigure(ctx, p, Figure{
		ID:     "figure12",
		Title:  "Energy consumption of Adaptive-RL vs heterogeneity",
		XLabel: "heterogeneity of resources",
		YLabel: "energy consumption (in millions)",
		Expected: "Roughly flat across heterogeneity for both load states; heavy well above " +
			"light.",
	}, func(r sched.Result) float64 { return r.ECS / 1e6 })
}

func heterogeneityFigure(ctx context.Context, p Profile, fig Figure, extract func(sched.Result) float64) (Figure, error) {
	loads := []struct {
		label string
		tasks int
	}{
		{"heavily-loaded", p.HeavyTasks},
		{"lightly-loaded", p.LightTasks},
	}
	points := make([]RunSpec, 0, len(loads)*len(HeterogeneityLevels))
	for _, load := range loads {
		for _, cv := range HeterogeneityLevels {
			points = append(points, RunSpec{Policy: AdaptiveRL, NumTasks: load.tasks, HeterogeneityCV: cv})
		}
	}
	results, err := RunManyCtx(ctx, p, replicate(p, points))
	if err != nil {
		return Figure{}, fmt.Errorf("%s: %w", fig.ID, err)
	}
	stats := pointStats(p, results, extract)
	for li, load := range loads {
		s := Series{Label: load.label}
		for ci, cv := range HeterogeneityLevels {
			pt := stats[li*len(HeterogeneityLevels)+ci]
			s.X = append(s.X, cv)
			s.Y = append(s.Y, pt.Mean)
			s.CI95 = append(s.CI95, pt.CI95)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// FigureIDAll is the CanonicalFigureID group of the six paper figures
// (All).
const FigureIDAll = "all"

// figureTable is the one list of figures: resolving an ID, counting its
// points, dispatching it and running a group all read it. A row's ID
// without its "figure" prefix ("7", "E1") is an alias; group names a set
// of rows run together ("all", "ext").
var figureTable = []struct {
	id, group string
	run       func(context.Context, Profile) (Figure, error)
	// points is the number of base points the constructor runs, each
	// replicated Profile.Replications times.
	points func() int
}{
	{"figure7", FigureIDAll, figure7, func() int { return len(AllPolicies) * len(TaskCounts) }},
	{"figure8", FigureIDAll, figure8, func() int { return len(AllPolicies) * len(TaskCounts) }},
	{"figure9", FigureIDAll, figure9, func() int { return 2 }}, // AdaptiveRL and OnlineRL
	{"figure10", FigureIDAll, figure10, func() int { return 2 }},
	{"figure11", FigureIDAll, figure11, func() int { return 2 * len(HeterogeneityLevels) }}, // heavy and light
	{"figure12", FigureIDAll, figure12, func() int { return 2 * len(HeterogeneityLevels) }},
	{"figureE1", "ext", figureE1, func() int { return 2 * len(FailureMTBFLevels) }}, // AdaptiveRL and Greedy
	{"figureE2", "ext", figureE2, func() int { return len(AllPolicies) * 2 }},       // Poisson and bursty
	{"figureE3", "ext", figureE3, func() int { return len(PriorityMixes) }},
}

// resolveFigure returns the canonical form of id and the table rows it
// names: one row for a figure alias, every member in table order for a
// group.
func resolveFigure(id string) (string, []int, error) {
	var rows []int
	for i, f := range figureTable {
		if id == f.id || "figure"+id == f.id {
			return f.id, []int{i}, nil
		}
		if id == f.group {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return "", nil, fmt.Errorf("experiments: unknown figure %q", id)
	}
	return id, rows, nil
}

// CanonicalFigureID resolves the accepted figure aliases — "7".."12",
// "E1".."E3", their "figureN" forms and the groups "all" and "ext" — to
// the canonical identifier job specs store.
func CanonicalFigureID(id string) (string, error) {
	canon, _, err := resolveFigure(id)
	return canon, err
}

// FigureIDs lists the canonical IDs of the figures id names, in paper
// order: the figure itself, or every member of a group.
func FigureIDs(id string) ([]string, error) {
	_, rows, err := resolveFigure(id)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(rows))
	for i, r := range rows {
		ids[i] = figureTable[r].id
	}
	return ids, nil
}

// PointCount reports how many simulation points — replications included —
// regenerating the figure or group with the given id (any
// CanonicalFigureID alias) runs under the profile. It equals the number
// of Progress callbacks the regeneration makes, which is what lets a
// caller turn the per-point hook into a completion fraction. A group
// simulates fewer points than this when its figures share points (see
// Figures); the shared copies still tick.
func PointCount(p Profile, id string) (int, error) {
	_, rows, err := resolveFigure(id)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		n += figureTable[r].points()
	}
	return n * p.Replications, nil
}

// FigureByID regenerates one figure by any alias of its ID; a group name
// is an error. Cancelling ctx abandons the sweep and returns the
// context's error.
func FigureByID(ctx context.Context, p Profile, id string) (Figure, error) {
	canon, rows, err := resolveFigure(id)
	if err != nil {
		return Figure{}, err
	}
	if f := figureTable[rows[0]]; f.id == canon {
		return f.run(ctx, p)
	}
	return Figure{}, fmt.Errorf("experiments: %q is a group of figures", id)
}

// Figures regenerates every figure id names — one figure, or each member
// of a group in paper order — running the figures themselves
// concurrently on the profile's worker pool. Each figure additionally
// fans its own points out, so small figures (9/10 have four points) do
// not serialise the campaign behind the big sweeps; the Go scheduler
// bounds actual parallelism at GOMAXPROCS regardless. The figures of a
// group share their points: a point two figures read (Figures 7 and 8
// read one grid) is simulated once, so "all" runs 34 points per
// replication, not PointCount's 72. Progress still ticks PointCount
// times, with zero counters for a shared point's later readers.
// Cancelling ctx abandons the campaign and returns the context's error.
func Figures(ctx context.Context, p Profile, id string) ([]Figure, error) {
	_, rows, err := resolveFigure(id)
	if err != nil {
		return nil, err
	}
	if len(rows) > 1 {
		ctx = context.WithValue(ctx, memoCtxKey{}, &pointMemo{entries: make(map[memoKey]*memoEntry)})
	}
	out := make([]Figure, len(rows))
	err = forEachPoint(ctx, p.workerCount(), len(rows), func(i int) error {
		fig, err := figureTable[rows[i]].run(ctx, p)
		out[i] = fig
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// All regenerates the six paper figures (Figures under FigureIDAll).
func All(p Profile) ([]Figure, error) {
	return Figures(context.Background(), p, FigureIDAll)
}
