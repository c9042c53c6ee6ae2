package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"rlsched/internal/grouping"
	"rlsched/internal/obs"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

func TestWorkerCount(t *testing.T) {
	p := DefaultProfile()
	if got := p.workerCount(); got < 1 {
		t.Fatalf("default workerCount = %d, want >= 1", got)
	}
	p.Workers = 3
	if got := p.workerCount(); got != 3 {
		t.Fatalf("workerCount = %d, want 3", got)
	}
}

func TestProfileRejectsNegativeWorkers(t *testing.T) {
	p := DefaultProfile()
	p.Workers = -1
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error for Workers = -1")
	}
}

func TestForEachPointCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 37
		var hits [n]atomic.Int32
		err := forEachPoint(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// TestForEachPointLowestIndexError checks the error contract: whichever
// worker finishes first, the reported error is the one the serial loop
// would have hit (the lowest failing index), because indices are handed
// out in order.
func TestForEachPointLowestIndexError(t *testing.T) {
	const n, firstBad = 64, 10
	for _, workers := range []int{1, 2, 8} {
		err := forEachPoint(context.Background(), workers, n, func(i int) error {
			if i >= firstBad {
				return fmt.Errorf("point %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if want := fmt.Sprintf("point %d failed", firstBad); err.Error() != want {
			t.Fatalf("workers=%d: got error %q, want %q", workers, err, want)
		}
	}
}

// TestForEachPointStopsIssuingWork checks cancellation: after a failure,
// the parallel runner stops handing out new indices instead of draining
// the whole list.
func TestForEachPointStopsIssuingWork(t *testing.T) {
	const n = 10_000
	var ran atomic.Int32
	err := forEachPoint(context.Background(), 4, n, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got error %v, want boom", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("ran all %d points despite early failure", got)
	}
}

// TestRunManyDeterministic is the core guarantee of the parallel
// campaign runner: the full Result set is bit-identical between the
// serial path and a heavily over-subscribed parallel run.
func TestRunManyDeterministic(t *testing.T) {
	p := fastProfile()
	specs := replicate(p, []RunSpec{
		{Policy: AdaptiveRL, NumTasks: 120},
		{Policy: OnlineRL, NumTasks: 120},
		{Policy: QPlus, NumTasks: 80, HeterogeneityCV: 0.5},
		{Policy: Predictive, NumTasks: 80},
	})
	p.Workers = 1
	serial, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("RunMany results differ between Workers=1 and Workers=8")
	}
}

// TestRunManyErrorPropagation injects a failing point in the middle of a
// spec list and expects the runner to surface exactly that point's error,
// at any worker count.
func TestRunManyErrorPropagation(t *testing.T) {
	p := fastProfile()
	specs := []RunSpec{
		{Policy: AdaptiveRL, NumTasks: 50, Seed: 1},
		{Policy: OnlineRL, NumTasks: 50, Seed: 1},
		{Policy: "bogus", NumTasks: 50, Seed: 1},
		{Policy: Predictive, NumTasks: 50, Seed: 1},
	}
	for _, workers := range []int{1, 8} {
		p.Workers = workers
		res, err := RunMany(p, specs)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if res != nil {
			t.Fatalf("workers=%d: expected nil results on error", workers)
		}
		if !strings.Contains(err.Error(), "point 2") || !strings.Contains(err.Error(), "bogus") {
			t.Fatalf("workers=%d: error %q does not identify point 2 (bogus)", workers, err)
		}
	}
}

// TestFigure7ParallelDeterministic regenerates Figure 7 serially and with
// eight workers and requires bit-identical series.
func TestFigure7ParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	p := fastProfile()
	p.LightTasks, p.HeavyTasks = 100, 300
	p.Workers = 1
	serial, err := FigureByID(context.Background(), p, "7")
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := FigureByID(context.Background(), p, "7")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("Figure7 differs between Workers=1 and Workers=8")
	}
}

// TestFigure11ParallelDeterministic covers the heterogeneity sweep, whose
// specs exercise the HeterogeneityCV spec field in the scenario streams.
func TestFigure11ParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	p := fastProfile()
	p.LightTasks, p.HeavyTasks = 60, 200
	p.Workers = 1
	serial, err := FigureByID(context.Background(), p, "11")
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := FigureByID(context.Background(), p, "11")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("Figure11 differs between Workers=1 and Workers=8")
	}
}

// TestExtensionFiguresParallelDeterministic covers Figures E1-E3, whose
// per-profile and per-generator batches run as concurrent spec lists.
func TestExtensionFiguresParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	p := fastProfile()
	p.LightTasks, p.HeavyTasks = 100, 300
	for _, id := range []string{"E1", "E2", "E3"} {
		p.Workers = 1
		serial, err := FigureByID(context.Background(), p, id)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = 8
		par, err := FigureByID(context.Background(), p, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("Figure %s differs between Workers=1 and Workers=8", id)
		}
	}
}

// TestForEachPointCancellation checks that cancelling the context stops
// the runner from issuing new points at every worker count and that the
// context's error is surfaced.
func TestForEachPointCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n, stopAfter = 10_000, 5
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := forEachPoint(ctx, workers, n, func(i int) error {
			if ran.Add(1) == stopAfter {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got error %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: ran all %d points despite cancellation", workers, got)
		}
	}
}

// TestForEachPointPreCancelled checks that an already-cancelled context
// runs nothing at all.
func TestForEachPointPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := forEachPoint(ctx, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	// The parallel path may let each worker claim at most one index before
	// observing cancellation; it must not drain the whole list.
	if got := ran.Load(); got > 4 {
		t.Fatalf("ran %d points under a pre-cancelled context", got)
	}
}

// TestRunManyCtxCancelDiscards checks the RunMany contract under
// cancellation: the context error is returned and results are discarded.
func TestRunManyCtxCancelDiscards(t *testing.T) {
	p := fastProfile()
	p.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	p.Progress = func(sched.RunStats) {
		if done.Add(1) == 2 {
			cancel()
		}
	}
	specs := replicate(p, []RunSpec{
		{Policy: Greedy, NumTasks: 30}, {Policy: Greedy, NumTasks: 31},
		{Policy: Greedy, NumTasks: 32}, {Policy: Greedy, NumTasks: 33},
		{Policy: Greedy, NumTasks: 34}, {Policy: Greedy, NumTasks: 35},
	})
	res, err := RunManyCtx(ctx, p, specs)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got error %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("expected nil results on cancellation")
	}
}

// TestRunManyProgressCount checks that the Progress hook fires exactly
// once per completed point, at any worker count, with that point's
// engine counters.
func TestRunManyProgressCount(t *testing.T) {
	p := fastProfile()
	specs := replicate(p, []RunSpec{
		{Policy: Greedy, NumTasks: 20},
		{Policy: RoundRobin, NumTasks: 20},
		{Policy: Random, NumTasks: 20},
	})
	for _, workers := range []int{1, 8} {
		p.Workers = workers
		var ticks atomic.Int32
		var agg sched.Stats
		p.Progress = func(st sched.RunStats) {
			ticks.Add(1)
			agg.Add(st)
		}
		res, err := RunMany(p, specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := ticks.Load(); got != int32(len(specs)) {
			t.Fatalf("workers=%d: %d progress ticks, want %d", workers, got, len(specs))
		}
		var events uint64
		for _, r := range res {
			events += r.Stats.Events
		}
		if got := agg.Snapshot().Events; got != events || events == 0 {
			t.Fatalf("workers=%d: progress reported %d events, results hold %d", workers, got, events)
		}
	}
}

// TestCanonicalFigureID pins the alias table the job-spec schema relies
// on.
func TestCanonicalFigureID(t *testing.T) {
	for alias, want := range map[string]string{
		"7": "figure7", "figure7": "figure7", "12": "figure12",
		"E1": "figureE1", "figureE3": "figureE3", "all": "all", "ext": "ext",
	} {
		got, err := CanonicalFigureID(alias)
		if err != nil {
			t.Fatalf("CanonicalFigureID(%q): %v", alias, err)
		}
		if got != want {
			t.Fatalf("CanonicalFigureID(%q) = %q, want %q", alias, got, want)
		}
	}
	for _, bad := range []string{"", "13", "figure13", "E4", "ALL", "EXT", "ext1"} {
		if _, err := CanonicalFigureID(bad); err == nil {
			t.Fatalf("CanonicalFigureID(%q): expected error", bad)
		}
	}
}

// TestPointCountMatchesProgress regenerates every figure row and both
// groups and checks PointCount against the observed number of Progress
// callbacks — the invariant the daemon's completion fraction depends on.
func TestPointCountMatchesProgress(t *testing.T) {
	p := fastProfile()
	p.Replications = 2
	p.LightTasks, p.HeavyTasks = 20, 30
	var ticks atomic.Int32
	p.Progress = func(sched.RunStats) { ticks.Add(1) }
	ids := []string{FigureIDAll, "ext"}
	for _, f := range figureTable {
		ids = append(ids, f.id)
	}
	for _, id := range ids {
		ticks.Store(0)
		want, err := PointCount(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Figures(context.Background(), p, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := ticks.Load(); got != int32(want) {
			t.Fatalf("%s made %d progress ticks, PointCount says %d", id, got, want)
		}
	}
}

// TestPointCountArithmetic pins the per-figure formulas against the
// sweep definitions.
func TestPointCountArithmetic(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 3
	want := map[string]int{
		"figure7":  len(AllPolicies) * len(TaskCounts) * 3,
		"figure8":  len(AllPolicies) * len(TaskCounts) * 3,
		"figure9":  6,
		"figure10": 6,
		"figure11": 2 * len(HeterogeneityLevels) * 3,
		"figure12": 2 * len(HeterogeneityLevels) * 3,
		"figureE1": 2 * len(FailureMTBFLevels) * 3,
		"figureE2": len(AllPolicies) * 2 * 3,
		"figureE3": len(PriorityMixes) * 3,
	}
	total := 0
	for id, n := range want {
		got, err := PointCount(p, id)
		if err != nil {
			t.Fatalf("PointCount(%s): %v", id, err)
		}
		if got != n {
			t.Fatalf("PointCount(%s) = %d, want %d", id, got, n)
		}
		if !strings.HasPrefix(id, "figureE") {
			total += n
		}
	}
	gotAll, err := PointCount(p, "all")
	if err != nil {
		t.Fatal(err)
	}
	if gotAll != total {
		t.Fatalf("PointCount(all) = %d, want %d", gotAll, total)
	}
	if _, err := PointCount(p, "nope"); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

// TestReplicateLayout pins the dense layout pointStats/pointSeries rely
// on: point i's replications at indices [i*R, (i+1)*R) with seeds
// Seed..Seed+R-1.
func TestReplicateLayout(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 3
	p.Seed = 7
	specs := replicate(p, []RunSpec{
		{Policy: AdaptiveRL, NumTasks: 10},
		{Policy: OnlineRL, NumTasks: 20},
	})
	if len(specs) != 6 {
		t.Fatalf("got %d specs, want 6", len(specs))
	}
	for i, s := range specs {
		wantPolicy := AdaptiveRL
		wantTasks := 10
		if i >= 3 {
			wantPolicy, wantTasks = OnlineRL, 20
		}
		if s.Policy != wantPolicy || s.NumTasks != wantTasks || s.Seed != 7+uint64(i%3) {
			t.Fatalf("spec %d = %+v", i, s)
		}
	}
}

// panicPolicy wraps a real policy and panics after a given number of
// ChooseAction calls — a stand-in for a buggy custom policy.
type panicPolicy struct {
	inner sched.Policy
	after int
	calls int
}

func (p *panicPolicy) Name() string              { return "panicky" }
func (p *panicPolicy) Init(ctx *sched.Context)   { p.inner.Init(ctx) }
func (p *panicPolicy) OnTick(ctx *sched.Context) { p.inner.OnTick(ctx) }
func (p *panicPolicy) ChooseAction(ctx *sched.Context, ag *sched.Agent, t *workload.Task) sched.Action {
	p.calls++
	if p.calls > p.after {
		panic("injected policy bug")
	}
	return p.inner.ChooseAction(ctx, ag, t)
}
func (p *panicPolicy) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, c []sched.NodeInfo) *platform.Node {
	return p.inner.PlaceGroup(ctx, ag, g, c)
}
func (p *panicPolicy) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, n *platform.Node) {
	p.inner.OnAssigned(ctx, ag, g, n)
}
func (p *panicPolicy) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	p.inner.OnGroupComplete(ctx, ag, g)
}
func (p *panicPolicy) OnProcessorIdle(ctx *sched.Context, pr *platform.Processor) {
	p.inner.OnProcessorIdle(ctx, pr)
}

// TestRunWithRecoversPanicIntoPointError checks panic isolation for a
// single-point run: a panicking policy surfaces as a *PointError carrying
// the spec, the panic value and a stack — the process survives.
func TestRunWithRecoversPanicIntoPointError(t *testing.T) {
	p := fastProfile()
	spec := RunSpec{Policy: Greedy, NumTasks: 40, Seed: 3}
	_, err := RunWith(p, spec, &panicPolicy{inner: sched.NewGreedy(), after: 5})
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("got error %v, want *PointError", err)
	}
	if pe.Point != spec || pe.Index != -1 {
		t.Fatalf("PointError context = %+v, want spec %+v at index -1", pe, spec)
	}
	if fmt.Sprint(pe.Panic) != "injected policy bug" {
		t.Fatalf("panic value = %v", pe.Panic)
	}
	if !strings.Contains(pe.Stack, "ChooseAction") || !strings.Contains(pe.Error(), "injected policy bug") {
		t.Fatalf("stack/message not captured:\n%v", pe)
	}
}

// TestForEachPointRecoversWorkerPanic checks that a panic inside a
// worker-pool goroutine fails the campaign with a structured error
// instead of killing the process, at every worker count.
func TestForEachPointRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := forEachPoint(context.Background(), workers, 16, func(i int) error {
			if i == 3 {
				panic("boom at 3")
			}
			return nil
		})
		var pe *PointError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got error %v, want *PointError", workers, err)
		}
		if pe.Index != 3 || fmt.Sprint(pe.Panic) != "boom at 3" {
			t.Fatalf("workers=%d: recovered %+v", workers, pe)
		}
	}
}

// TestRunManyFailureInjectionDeterministicAcrossWorkers extends the
// determinism guarantee to failure-injection campaigns: a FailureMTBF > 0
// profile must produce bit-identical results at Workers=1 and Workers=8,
// because each point's failure stream derives from its RunSpec alone.
func TestRunManyFailureInjectionDeterministicAcrossWorkers(t *testing.T) {
	p := fastProfile()
	p.Engine.FailureMTBF = 150
	p.Engine.RepairTime = 20
	specs := replicate(p, []RunSpec{
		{Policy: Greedy, NumTasks: 100},
		{Policy: AdaptiveRL, NumTasks: 80},
		{Policy: OnlineRL, NumTasks: 80, HeterogeneityCV: 0.5},
	})
	p.Workers = 1
	serial, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("failure-injection results differ between Workers=1 and Workers=8")
	}
	injected := 0
	for _, r := range serial {
		injected += r.Failures
	}
	if injected == 0 {
		t.Fatal("no failures injected: the campaign does not exercise the failure path")
	}
}

// TestRunManyRecordsPointMetrics attaches the full campaign telemetry —
// metrics registry, logger and a threshold guaranteed to trip — and
// checks every completed point shows up in the point_run_seconds
// histogram and as a slow-point warning.
func TestRunManyRecordsPointMetrics(t *testing.T) {
	p := fastProfile()
	p.Workers = 4
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	p.Metrics = reg
	p.Logger = obs.NewLogger(&logBuf, slog.LevelInfo)
	p.SlowPointSec = 1e-12 // every point is "slow"
	specs := replicate(p, []RunSpec{
		{Policy: Greedy, NumTasks: 60},
		{Policy: AdaptiveRL, NumTasks: 60},
	})
	if _, err := RunMany(p, specs); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("point_run_seconds", "", obs.DefBuckets).Snapshot()
	if h.Count != uint64(len(specs)) {
		t.Fatalf("point_run_seconds count = %d, want %d", h.Count, len(specs))
	}
	if h.Sum <= 0 {
		t.Fatalf("point_run_seconds sum = %g, want > 0", h.Sum)
	}
	if got := strings.Count(logBuf.String(), "slow simulation point"); got != len(specs) {
		t.Fatalf("slow-point warnings = %d, want %d\n%s", got, len(specs), logBuf.String())
	}
}

// TestRunManyNoMetricsIsInert guards the disabled path: with no registry
// and no logger the runner must not even read the clock (timed == false),
// and results stay identical to an instrumented run.
func TestRunManyNoMetricsIsInert(t *testing.T) {
	p := fastProfile()
	specs := replicate(p, []RunSpec{{Policy: Greedy, NumTasks: 60}})
	plain, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	p.Metrics = obs.NewRegistry()
	instrumented, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("instrumentation changed simulation results")
	}
}
