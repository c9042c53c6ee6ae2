package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rlsched/internal/sched"
)

// figurePointList is the point list of Figures 7-12 in the order All
// runs it, at one replication: the 7/8 grid twice, the 9/10 points
// (which repeat four grid points, since the heavy and light counts are
// grid counts) and the 11/12 grid twice. The grid's task counts are
// TaskCounts divided by div, so div > 1 keeps the points tiny; the
// profile's light and heavy counts must be the scaled 500 and 3000.
func figurePointList(p Profile, div int) []RunSpec {
	var out []RunSpec
	grid := func() {
		for _, name := range AllPolicies {
			for _, n := range TaskCounts {
				out = append(out, RunSpec{Policy: name, NumTasks: n / div, Seed: p.Seed})
			}
		}
	}
	hetero := func() {
		for _, n := range []int{p.HeavyTasks, p.LightTasks} {
			for _, cv := range HeterogeneityLevels {
				out = append(out, RunSpec{Policy: AdaptiveRL, NumTasks: n, HeterogeneityCV: cv, Seed: p.Seed})
			}
		}
	}
	grid()
	grid()
	for _, n := range []int{p.HeavyTasks, p.LightTasks} {
		for _, name := range []PolicyName{AdaptiveRL, OnlineRL} {
			out = append(out, RunSpec{Policy: name, NumTasks: n, Seed: p.Seed})
		}
	}
	hetero()
	hetero()
	return out
}

// TestRunManyRunsEachSpecOnce checks the grouping of repeated specs: the
// 72-point figure list has 34 distinct points, each simulated once, with
// every index still delivered and ticked.
func TestRunManyRunsEachSpecOnce(t *testing.T) {
	p := fastProfile()
	p.LightTasks, p.HeavyTasks = 5, 30
	specs := figurePointList(p, 100)
	if len(specs) != 72 {
		t.Fatalf("point list has %d specs, want 72", len(specs))
	}
	for _, workers := range []int{1, 8} {
		p.Workers = workers
		var spans, ticks, real atomic.Int32
		var mu sync.Mutex
		spanned := map[int]bool{}
		p.PointSpan = func(i int, s RunSpec) func(error) {
			spans.Add(1)
			mu.Lock()
			spanned[i] = true
			mu.Unlock()
			if specs[i] != s {
				t.Errorf("PointSpan(%d) got spec %+v, the list holds %+v", i, s, specs[i])
			}
			return func(error) {}
		}
		p.Progress = func(st sched.RunStats) {
			ticks.Add(1)
			if st.Events != 0 {
				real.Add(1)
			}
		}
		res, err := RunMany(p, specs)
		if err != nil {
			t.Fatal(err)
		}
		if spans.Load() != 34 || ticks.Load() != 72 || real.Load() != 34 {
			t.Fatalf("workers=%d: %d spans, %d progress ticks (%d with events), want 34, 72 (34)",
				workers, spans.Load(), ticks.Load(), real.Load())
		}
		// Spans carry each distinct point's first index.
		for i := range specs {
			first := true
			for j := 0; j < i; j++ {
				first = first && specs[j] != specs[i]
			}
			if spanned[i] != first {
				t.Fatalf("workers=%d: index %d spanned=%v, first occurrence=%v", workers, i, spanned[i], first)
			}
		}
		p.PointSpan, p.Progress = nil, nil
		for i, s := range specs {
			want, err := Run(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[i], want) {
				t.Fatalf("workers=%d: result %d (%+v) differs from a standalone Run", workers, i, s)
			}
		}
	}

	t.Run("signed zero CV", func(t *testing.T) {
		p := fastProfile()
		pos := RunSpec{Policy: Greedy, NumTasks: 20, Seed: 3}
		neg := pos
		neg.HeterogeneityCV = math.Copysign(0, -1)
		var spans atomic.Int32
		p.PointSpan = func(int, RunSpec) func(error) { spans.Add(1); return func(error) {} }
		res, err := RunMany(p, []RunSpec{pos, neg, pos, neg})
		if err != nil {
			t.Fatal(err)
		}
		if spans.Load() != 2 {
			t.Fatalf("%d points simulated, want 2 (+0 and -0 CV are distinct points)", spans.Load())
		}
		p.PointSpan = nil
		for i, s := range []RunSpec{pos, neg, pos, neg} {
			want, err := Run(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[i], want) {
				t.Fatalf("result %d (cv bits %x) differs from a standalone Run", i, math.Float64bits(s.HeterogeneityCV))
			}
		}
	})

	t.Run("repeated failing spec", func(t *testing.T) {
		p := fastProfile()
		ok := RunSpec{Policy: Greedy, NumTasks: 20, Seed: 1}
		bad := RunSpec{Policy: "bogus", NumTasks: 20, Seed: 1}
		for _, workers := range []int{1, 8} {
			p.Workers = workers
			_, err := RunMany(p, []RunSpec{ok, ok, bad, ok, bad})
			if err == nil || !strings.Contains(err.Error(), "point 2 ") {
				t.Fatalf("workers=%d: error %v, want the lowest failing index (point 2)", workers, err)
			}
		}
	})

	t.Run("RecordersFor runs every index", func(t *testing.T) {
		p := fastProfile()
		p.Workers = 4
		s := RunSpec{Policy: Greedy, NumTasks: 20, Seed: 1}
		list := []RunSpec{s, s, s, s}
		var calls [4]atomic.Int32
		p.RecordersFor = func(i int, _ RunSpec) sched.Recorders {
			calls[i].Add(1)
			return sched.Recorders{}
		}
		if _, err := RunMany(p, list); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("RecordersFor(%d) called %d times, want 1", i, n)
			}
		}
	})
}

// TestDistinctAllocFree pins the cost of grouping on the daemon's common
// shapes: a one-point list and a list without repeats allocate nothing.
func TestDistinctAllocFree(t *testing.T) {
	one := []RunSpec{{Policy: AdaptiveRL, NumTasks: 100, Seed: 1}}
	var many []RunSpec
	for k := 0; k < pairwiseMax; k++ {
		many = append(many, RunSpec{Policy: Greedy, NumTasks: 10, Seed: uint64(k)})
	}
	for _, specs := range [][]RunSpec{one, many} {
		var uniq []RunSpec
		if n := testing.AllocsPerRun(10, func() { uniq, _, _ = distinct(specs) }); n != 0 {
			t.Fatalf("distinct of %d repeat-free specs allocated %v times", len(specs), n)
		}
		if &uniq[0] != &specs[0] {
			t.Fatal("a repeat-free list was copied")
		}
	}
}

// TestFiguresGroupMatchesSingles regenerates both groups in one Figures
// call, whose figures share their points, and requires the figures of a
// per-figure FigureByID run, at one and eight workers. Each group must
// simulate its distinct points once: 34 per replication for "all", 19
// for "ext" (E1's failure-free, E2's Poisson and E3's uniform-mix
// Adaptive-RL points are one point).
func TestFiguresGroupMatchesSingles(t *testing.T) {
	p := fastProfile()
	p.ObservationPeriod = 300
	p.Replications = 2
	p.Seed = 5
	for group, distinctPoints := range map[string]int{FigureIDAll: 34, "ext": 19} {
		ids, err := FigureIDs(group)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = 2
		var singles []Figure
		for _, id := range ids {
			fig, err := FigureByID(context.Background(), p, id)
			if err != nil {
				t.Fatal(err)
			}
			singles = append(singles, fig)
		}
		for _, workers := range []int{1, 8} {
			p.Workers = workers
			var runs, ticks atomic.Int32
			p.PointSpan = func(int, RunSpec) func(error) { runs.Add(1); return func(error) {} }
			p.Progress = func(sched.RunStats) { ticks.Add(1) }
			got, err := Figures(context.Background(), p, group)
			p.PointSpan, p.Progress = nil, nil
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, singles) {
				t.Fatalf("%s at workers=%d differs from its per-figure runs", group, workers)
			}
			want, _ := PointCount(p, group)
			if int(ticks.Load()) != want {
				t.Fatalf("%s at workers=%d: %d progress ticks, PointCount says %d", group, workers, ticks.Load(), want)
			}
			if want := distinctPoints * p.Replications; int(runs.Load()) != want {
				t.Fatalf("%s at workers=%d ran %d points, want %d", group, workers, runs.Load(), want)
			}
		}
	}
}

// TestFiguresGroupCancel cancels a group mid-campaign, early and late, at
// one and eight workers: the call must return, with every spec list it
// runs concurrently stopped, and report the cancellation.
func TestFiguresGroupCancel(t *testing.T) {
	p := fastProfile()
	p.ObservationPeriod = 300
	for _, workers := range []int{1, 8} {
		for _, after := range []int32{1, 30} {
			p.Workers = workers
			ctx, cancel := context.WithCancel(context.Background())
			var ticks atomic.Int32
			p.Progress = func(sched.RunStats) {
				if ticks.Add(1) == after {
					cancel()
				}
			}
			_, err := Figures(ctx, p, FigureIDAll)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d, cancelled after %d ticks: got %v, want context.Canceled", workers, after, err)
			}
		}
	}
}

// TestFiguresGroupExecutorPanic checks that a RunPoints executor that
// panics fails the group with the panic as a *PointError whose Index is
// -1: the executor took a whole spec list, so no point can be named, and
// the number of the list in the call is not a point index.
func TestFiguresGroupExecutorPanic(t *testing.T) {
	p := fastProfile()
	p.Workers = 4
	p.RunPoints = func(context.Context, Profile, []RunSpec) ([]sched.Result, error) {
		panic("executor bug")
	}
	_, err := Figures(context.Background(), p, FigureIDAll)
	var pe *PointError
	if !errors.As(err, &pe) || pe.Panic != "executor bug" || pe.Index != -1 {
		t.Fatalf("got %v, want the executor's panic as a *PointError with Index -1", err)
	}
}

// TestFigurePointIdentityUnique records the (index, label) pair each run
// of a Figures call reports to RecordersFor, for every figure and both
// groups. Every pair must be unique within the call — the daemon keys a
// job's series and decisions by it — there must be PointCount of them,
// and the same pairs must come back at one and eight workers.
func TestFigurePointIdentityUnique(t *testing.T) {
	p := fastProfile()
	p.ObservationPeriod = 300
	p.LightTasks, p.HeavyTasks = 20, 30
	type pair struct {
		index int
		label string
	}
	ids := []string{FigureIDAll, "ext"}
	for _, f := range figureTable {
		ids = append(ids, f.id)
	}
	for _, id := range ids {
		var first map[pair]bool
		for _, workers := range []int{1, 8} {
			p.Workers = workers
			var mu sync.Mutex
			runs, seen := 0, map[pair]bool{}
			p.RecordersFor = func(i int, s RunSpec) sched.Recorders {
				mu.Lock()
				runs++
				seen[pair{i, PointLabel(s)}] = true
				mu.Unlock()
				return sched.Recorders{}
			}
			if _, err := Figures(context.Background(), p, id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want, _ := PointCount(p, id)
			if runs != want || len(seen) != want {
				t.Fatalf("%s at workers=%d: %d runs with %d distinct (index, label) pairs, want %d of each",
					id, workers, runs, len(seen), want)
			}
			if first != nil && !reflect.DeepEqual(seen, first) {
				t.Fatalf("%s: the (index, label) pairs differ between workers=1 and workers=8", id)
			}
			first = seen
		}
	}
}
