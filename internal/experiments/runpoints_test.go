package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"rlsched/internal/audit"
	"rlsched/internal/metrics"
	"rlsched/internal/obs"
	"rlsched/internal/probe"
	"rlsched/internal/sched"
	"rlsched/internal/trace"
)

// TestRunPointsDelegates proves RunManyCtx hands the whole expanded spec
// list to a pluggable executor and returns its results untouched.
func TestRunPointsDelegates(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 1
	var gotSpecs []RunSpec
	sentinel := []sched.Result{{Policy: "a"}, {Policy: "b"}}
	p.RunPoints = func(ctx context.Context, pp Profile, specs []RunSpec) ([]sched.Result, error) {
		gotSpecs = append([]RunSpec(nil), specs...)
		return sentinel, nil
	}
	specs := []RunSpec{
		{Policy: Greedy, NumTasks: 10, Seed: 1},
		{Policy: Greedy, NumTasks: 12, Seed: 2},
	}
	out, err := RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSpecs, specs) {
		t.Fatalf("executor saw %+v, want %+v", gotSpecs, specs)
	}
	if !reflect.DeepEqual(out, sentinel) {
		t.Fatalf("results %+v, want the executor's %+v", out, sentinel)
	}
}

// TestRunPointsExecutorPanic checks that a panic in a RunPoints executor
// comes back from a direct RunManyCtx as a *PointError with Index -1 —
// the executor took the whole list, so no point can be named — instead
// of unwinding through the caller.
func TestRunPointsExecutorPanic(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 1
	p.RunPoints = func(context.Context, Profile, []RunSpec) ([]sched.Result, error) {
		panic("executor bug")
	}
	specs := []RunSpec{{Policy: Greedy, NumTasks: 10, Seed: 1}, {Policy: Greedy, NumTasks: 12, Seed: 2}}
	out, err := RunManyCtx(context.Background(), p, specs)
	var pe *PointError
	if !errors.As(err, &pe) || pe.Panic != "executor bug" || pe.Index != -1 || pe.Stack == "" {
		t.Fatalf("got %v, want the executor's panic as a *PointError with Index -1 and a stack", err)
	}
	if out != nil {
		t.Fatalf("results %+v alongside the error, want none", out)
	}
}

// TestRunPointsBypassedForProbes pins the guard: in-process
// instrumentation (probe recorders, tracers) cannot follow a point to a
// remote executor, so the campaign must run locally whenever any is
// attached.
func TestRunPointsBypassedForProbes(t *testing.T) {
	base := DefaultProfile()
	base.Replications = 1
	base.ObservationPeriod = 300
	base.Workers = 1
	specs := []RunSpec{{Policy: Greedy, NumTasks: 5, Seed: 1}}

	for _, tc := range []struct {
		name  string
		mod   func(*Profile)
		local bool
	}{
		{"plain", func(p *Profile) {}, false},
		// A RecordersFor hook forces a local run, even one that returns
		// no recorder for a point (the auditfor case).
		{"probefor", func(p *Profile) {
			p.RecordersFor = func(int, RunSpec) sched.Recorders {
				return sched.Recorders{Probe: probe.NewRecorder(probe.Config{})}
			}
		}, true},
		{"engine-probe", func(p *Profile) {
			p.Engine.Probe = probe.NewRecorder(probe.Config{})
		}, true},
		{"auditfor", func(p *Profile) {
			p.RecordersFor = func(int, RunSpec) sched.Recorders { return sched.Recorders{} }
		}, true},
		{"engine-audit", func(p *Profile) {
			p.Engine.Audit = audit.NewRecorder(audit.Config{})
		}, true},
		{"engine-tracer", func(p *Profile) {
			p.Engine.Tracer = trace.NewRing(16, trace.LevelDebug)
		}, true},
		{"engine-records", func(p *Profile) {
			p.Engine.Records = new(metrics.Records)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			var delegated atomic.Bool
			p.RunPoints = func(ctx context.Context, pp Profile, sp []RunSpec) ([]sched.Result, error) {
				delegated.Store(true)
				return make([]sched.Result, len(sp)), nil
			}
			tc.mod(&p)
			if _, err := RunManyCtx(context.Background(), p, specs); err != nil {
				t.Fatal(err)
			}
			if delegated.Load() == tc.local {
				t.Fatalf("delegated = %v, want %v", delegated.Load(), !tc.local)
			}
			if p.InProcess() != tc.local {
				t.Fatalf("InProcess = %v, want %v", p.InProcess(), tc.local)
			}
		})
	}
}

// TestCacheFingerprintDropsRuntimeHooks pins that no runtime-only hook
// reaches a cache key: a profile with every hook and recorder attached
// fingerprints deeply equal to the bare profile.
func TestCacheFingerprintDropsRuntimeHooks(t *testing.T) {
	bare := DefaultProfile()
	hooked := bare
	hooked.Progress = func(sched.RunStats) {}
	hooked.Metrics = obs.NewRegistry()
	hooked.Logger = obs.NopLogger()
	hooked.RunPoints = func(context.Context, Profile, []RunSpec) ([]sched.Result, error) { return nil, nil }
	hooked.RecordersFor = func(int, RunSpec) sched.Recorders { return sched.Recorders{} }
	hooked.PointSpan = func(int, RunSpec) func(error) { return nil }
	hooked.Engine.Tracer = trace.NewRing(16, trace.LevelDebug)
	hooked.Engine.Probe = probe.NewRecorder(probe.Config{})
	hooked.Engine.Audit = audit.NewRecorder(audit.Config{})
	hooked.Engine.Records = new(metrics.Records)
	if got, want := hooked.CacheFingerprint(), bare.CacheFingerprint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fingerprint keeps a runtime hook:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunPointsFigureEquivalence runs a figure once locally and once
// through a RunPoints executor that itself runs the points locally (the
// cluster dispatcher's fallback shape); the figures must be deeply equal
// — the executor seam adds no noise.
func TestRunPointsFigureEquivalence(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 1
	p.ObservationPeriod = 300
	p.LightTasks, p.HeavyTasks = 10, 15
	p.Workers = 2

	want, err := FigureByID(context.Background(), p, "10")
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	pd := p
	pd.RunPoints = func(ctx context.Context, pp Profile, specs []RunSpec) ([]sched.Result, error) {
		calls.Add(1)
		local := pp
		local.RunPoints = nil
		return RunManyCtx(ctx, local, specs)
	}
	got, err := FigureByID(context.Background(), pd, "10")
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("executor never engaged")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("figure through executor differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestBurstyPointsRunLocally pins Figure E2's split: its Poisson points
// may go to a RunPoints executor, but its bursty points always run on
// the local per-point path (PointSpan fires for each), because a cache
// entry or a cluster worker cannot know the bursty generator.
func TestBurstyPointsRunLocally(t *testing.T) {
	p := DefaultProfile()
	p.Replications = 2
	p.ObservationPeriod = 300
	p.LightTasks, p.HeavyTasks = 10, 15
	p.Workers = 2

	want, err := FigureByID(context.Background(), p, "E2")
	if err != nil {
		t.Fatal(err)
	}

	var remote, local atomic.Int64
	pd := p
	pd.PointSpan = func(int, RunSpec) func(error) {
		local.Add(1)
		return func(error) {}
	}
	pd.RunPoints = func(ctx context.Context, pp Profile, specs []RunSpec) ([]sched.Result, error) {
		remote.Add(int64(len(specs)))
		pp.RunPoints, pp.PointSpan = nil, nil
		return RunManyCtx(ctx, pp, specs)
	}
	got, err := FigureByID(context.Background(), pd, "E2")
	if err != nil {
		t.Fatal(err)
	}
	perGen := int64(len(AllPolicies) * p.Replications)
	if remote.Load() != perGen || local.Load() != perGen {
		t.Fatalf("%d points through the executor, %d local; want %d each", remote.Load(), local.Load(), perGen)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("figure through executor differs:\n got %+v\nwant %+v", got, want)
	}
}
