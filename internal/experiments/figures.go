package experiments

import (
	"context"
	"encoding/json"
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

// batch is a list of base points that run under one profile and one
// workload generator (nil is workload.Generate).
type batch struct {
	p      Profile
	gen    workloadGen
	points []RunSpec
}

// plan is a figure before it runs: the batches it reads, and build, which
// turns each batch's replicated results (see replicate) into the figure.
type plan struct {
	batches []batch
	build   func(results [][]sched.Result) Figure
}

// figure7 reproduces "Average response time with different learning
// approaches": AveRT (t units) versus the number of tasks for all four
// policies.
func figure7(p Profile) plan {
	return sweepByPolicy(p, Figure{
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
func figure8(p Profile) plan {
	return sweepByPolicy(p, Figure{
		ID:     "figure8",
		Title:  "Average energy consumption with different learning approaches",
		XLabel: "number of tasks",
		YLabel: "energy consumption (in millions)",
		Expected: "ECS grows with N; Adaptive-RL lowest with Online RL within ~5%; " +
			"Q+ and Prediction-based noticeably higher.",
	}, func(r sched.Result) float64 { return r.ECS / 1e6 })
}

// sweepByPolicy plans the Figure 7/8 sweep shape: every policy across
// TaskCounts, as one batch whose stats fold back into per-policy series
// in order.
func sweepByPolicy(p Profile, fig Figure, extract func(sched.Result) float64) plan {
	points := make([]RunSpec, 0, len(AllPolicies)*len(TaskCounts))
	for _, name := range AllPolicies {
		for _, n := range TaskCounts {
			points = append(points, RunSpec{Policy: name, NumTasks: n})
		}
	}
	return plan{[]batch{{p: p, points: points}}, func(results [][]sched.Result) Figure {
		stats := pointStats(p, results[0], extract)
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
		return fig
	}}
}

// figure9 reproduces "Utilisation rate between Adaptive-RL and Online RL
// in heavily loaded state": windowed utilisation versus % learning cycles
// at the heavy task count.
func figure9(p Profile) plan {
	return utilizationFigure(p, Figure{
		ID:     "figure9",
		Title:  "Utilisation rate, Adaptive-RL vs Online RL (heavily loaded)",
		XLabel: "% learning cycles",
		YLabel: "utilisation rate",
		Expected: "Adaptive-RL rises roughly linearly with learning cycles; Online RL stays " +
			"flat until ~50% of cycles, then rises; both reach >= 0.6 by 100%.",
	}, p.HeavyTasks, "heavily-loaded")
}

// figure10 reproduces the same comparison in the lightly loaded state.
func figure10(p Profile) plan {
	return utilizationFigure(p, Figure{
		ID:     "figure10",
		Title:  "Utilisation rate, Adaptive-RL vs Online RL (lightly loaded)",
		XLabel: "% learning cycles",
		YLabel: "utilisation rate",
		Expected: "Same ordering at lower absolute utilisation; Online RL's rise is further " +
			"delayed (~70% of cycles).",
	}, p.LightTasks, "lightly-loaded")
}

func utilizationFigure(p Profile, fig Figure, numTasks int, loadLabel string) plan {
	policies := []PolicyName{AdaptiveRL, OnlineRL}
	points := make([]RunSpec, 0, len(policies))
	for _, name := range policies {
		points = append(points, RunSpec{Policy: name, NumTasks: numTasks})
	}
	return plan{[]batch{{p: p, points: points}}, func(results [][]sched.Result) Figure {
		series := pointSeries(p, results[0], func(r sched.Result) []float64 { return r.UtilWindows })
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
		return fig
	}}
}

// figure11 reproduces "Successful rate of Adaptive-RL in lightly- and
// heavily-loaded states" across resource heterogeneity.
func figure11(p Profile) plan {
	return heterogeneityFigure(p, Figure{
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
func figure12(p Profile) plan {
	return heterogeneityFigure(p, Figure{
		ID:     "figure12",
		Title:  "Energy consumption of Adaptive-RL vs heterogeneity",
		XLabel: "heterogeneity of resources",
		YLabel: "energy consumption (in millions)",
		Expected: "Roughly flat across heterogeneity for both load states; heavy well above " +
			"light.",
	}, func(r sched.Result) float64 { return r.ECS / 1e6 })
}

func heterogeneityFigure(p Profile, fig Figure, extract func(sched.Result) float64) plan {
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
	return plan{[]batch{{p: p, points: points}}, func(results [][]sched.Result) Figure {
		stats := pointStats(p, results[0], extract)
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
		return fig
	}}
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
	plan      func(Profile) plan
}{
	{"figure7", FigureIDAll, figure7},
	{"figure8", FigureIDAll, figure8},
	{"figure9", FigureIDAll, figure9},
	{"figure10", FigureIDAll, figure10},
	{"figure11", FigureIDAll, figure11},
	{"figure12", FigureIDAll, figure12},
	{"figureE1", "ext", figureE1},
	{"figureE2", "ext", figureE2},
	{"figureE3", "ext", figureE3},
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
// caller turn the per-point hook into a completion fraction. Figures
// simulates fewer points than this when its figures share points; the
// shared copies still tick.
func PointCount(p Profile, id string) (int, error) {
	_, rows, err := resolveFigure(id)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		for _, b := range figureTable[r].plan(p).batches {
			n += len(b.points)
		}
	}
	return n * p.Replications, nil
}

// FigureByID regenerates one figure by any alias of its ID; a group name
// is an error. Cancelling ctx abandons the sweep and returns the
// context's error.
func FigureByID(ctx context.Context, p Profile, id string) (Figure, error) {
	if ids, err := FigureIDs(id); err == nil && len(ids) > 1 {
		return Figure{}, fmt.Errorf("experiments: %q is a group of figures", id)
	}
	figs, err := Figures(ctx, p, id)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// campaign is one spec list Figures runs: the replicated batches of the
// requested figures that share a profile fingerprint and the default
// generator, concatenated, or one batch of its own. base numbers its
// first spec, so point indices are unique within the Figures call.
type campaign struct {
	p     Profile
	gen   workloadGen
	specs []RunSpec
	base  int
}

// Figures regenerates every figure id names — one figure, or each member
// of a group in paper order. It collects the figures' plans first and
// merges every batch with the default generator and an equal
// CacheFingerprint into one spec list, whose repeated points runMany
// simulates once: Figures 7 and 8 read one grid, 11 and 12 another, and
// 9/10 four points of the first, so "all" runs 34 points per
// replication, not PointCount's 72. The lists run concurrently on the
// profile's worker pool, each fanning its own points out too. A point's
// index is its position in the call's lists laid end to end, so it is
// unique within the call. Cancelling ctx abandons the campaign and
// returns the context's error.
func Figures(ctx context.Context, p Profile, id string) ([]Figure, error) {
	canon, rows, err := resolveFigure(id)
	if err != nil {
		return nil, err
	}
	type part struct{ camp, from, to int }
	var (
		plans  = make([]plan, len(rows))
		parts  = make([][]part, len(rows))
		camps  []campaign
		merged = map[string]int{} // CacheFingerprint JSON -> index in camps
	)
	for i, r := range rows {
		plans[i] = figureTable[r].plan(p)
		for _, b := range plans[i].batches {
			key := fmt.Sprintf("#%d", len(camps)) // a list of its own
			if raw, err := json.Marshal(b.p.CacheFingerprint()); b.gen == nil && err == nil {
				key = string(raw)
			}
			k, ok := merged[key]
			if !ok {
				k = len(camps)
				merged[key] = k
				camps = append(camps, campaign{p: b.p, gen: b.gen})
			}
			c := &camps[k]
			from := len(c.specs)
			c.specs = append(c.specs, replicate(b.p, b.points)...)
			parts[i] = append(parts[i], part{k, from, len(c.specs)})
		}
	}
	for k := 1; k < len(camps); k++ {
		camps[k].base = camps[k-1].base + len(camps[k-1].specs)
	}
	results := make([][]sched.Result, len(camps))
	err = forEachPoint(ctx, p.workerCount(), len(camps), func(k int) error {
		c := camps[k]
		res, err := runMany(ctx, c.p, c.specs, c.gen, c.base)
		results[k] = res
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", canon, err)
	}
	out := make([]Figure, len(plans))
	for i, pl := range plans {
		res := make([][]sched.Result, len(parts[i]))
		for j, pt := range parts[i] {
			res[j] = results[pt.camp][pt.from:pt.to]
		}
		out[i] = pl.build(res)
	}
	return out, nil
}
