package experiments

import (
	"context"
	"testing"

	"rlsched/internal/sched"
)

// fastProfile shrinks the observation period so sweep tests stay quick.
func fastProfile() Profile {
	p := DefaultProfile()
	p.Replications = 1
	p.ObservationPeriod = 500
	return p
}

func TestDefaultProfileValid(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatalf("default profile invalid: %v", err)
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.ObservationPeriod = 0 },
		func(p *Profile) { p.SizeScale = -1 },
		func(p *Profile) { p.Replications = 0 },
		func(p *Profile) { p.LightTasks = 0 },
		func(p *Profile) { p.HeavyTasks = p.LightTasks - 1 },
		func(p *Profile) { p.Platform.Sites = 0 },
		func(p *Profile) { p.Engine.TickInterval = 0 },
		func(p *Profile) { p.Mix.High = -1 },
	}
	for i, mutate := range bad {
		p := DefaultProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewPolicyAllNames(t *testing.T) {
	for _, name := range append(AllPolicies, Greedy) {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", name, err)
		}
		if p == nil {
			t.Fatalf("NewPolicy(%s) returned nil", name)
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	p := fastProfile()
	if _, err := Run(p, RunSpec{Policy: AdaptiveRL, NumTasks: 0}); err == nil {
		t.Error("expected error for zero tasks")
	}
	if _, err := Run(p, RunSpec{Policy: "bogus", NumTasks: 100}); err == nil {
		t.Error("expected error for unknown policy")
	}
	bad := p
	bad.SizeScale = 0
	if _, err := Run(bad, RunSpec{Policy: AdaptiveRL, NumTasks: 100}); err == nil {
		t.Error("expected error for invalid profile")
	}
}

func TestBuildScenarioDeterministic(t *testing.T) {
	p := fastProfile()
	spec := RunSpec{Policy: AdaptiveRL, NumTasks: 100, Seed: 9}
	pl1, tasks1, err := Build(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	pl2, tasks2, err := Build(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if pl1.NumProcessors() != pl2.NumProcessors() {
		t.Fatal("platform not deterministic")
	}
	for i := range tasks1 {
		if tasks1[i].SizeMI != tasks2[i].SizeMI {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestRunMatchesRunWith(t *testing.T) {
	p := fastProfile()
	spec := RunSpec{Policy: Greedy, NumTasks: 150, Seed: 4}
	a, err := Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewPolicy(Greedy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWith(p, spec, policy)
	if err != nil {
		t.Fatal(err)
	}
	if a.AveRT != b.AveRT || a.ECS != b.ECS {
		t.Fatal("Run and RunWith disagree for the same spec")
	}
}

func TestHeterogeneitySweepHoldsLoadConstant(t *testing.T) {
	p := fastProfile()
	// Mean platform speed is constant across the sweep, so total task
	// volume (and thus busy energy) should be comparable.
	a, err := Run(p, RunSpec{Policy: Greedy, NumTasks: 200, HeterogeneityCV: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, RunSpec{Policy: Greedy, NumTasks: 200, HeterogeneityCV: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.ECS / b.ECS
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("energy drifted %.2fx across the heterogeneity sweep", ratio)
	}
}

func TestFigure12Shape(t *testing.T) {
	// Figure 12 is the cheapest full figure (Adaptive-RL only); verify
	// structure and that all points are positive.
	p := fastProfile()
	fig, err := figure12(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "figure12" || len(fig.Series) != 2 {
		t.Fatalf("figure structure: %+v", fig)
	}
	for _, s := range fig.Series {
		if len(s.X) != len(HeterogeneityLevels) || len(s.Y) != len(s.X) {
			t.Fatalf("series %s has %d/%d points", s.Label, len(s.X), len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has non-positive energy %g", s.Label, y)
			}
		}
	}
	// Heavy load must consume more than light at every point.
	heavy, light := fig.Series[0], fig.Series[1]
	for i := range heavy.Y {
		if heavy.Y[i] <= light.Y[i] {
			t.Fatalf("heavy energy %g <= light %g at h=%g", heavy.Y[i], light.Y[i], heavy.X[i])
		}
	}
}

func TestFigureByIDDispatch(t *testing.T) {
	p := fastProfile()
	for _, alias := range []string{"12", "figure12"} {
		fig, err := FigureByID(context.Background(), p, alias)
		if err != nil {
			t.Fatalf("FigureByID(%s): %v", alias, err)
		}
		if fig.ID != "figure12" {
			t.Fatalf("FigureByID(%s) = %s", alias, fig.ID)
		}
	}
	for _, bad := range []string{"13", "all", "ext"} {
		if _, err := FigureByID(context.Background(), p, bad); err == nil {
			t.Fatalf("FigureByID(%q): expected error", bad)
		}
	}
}

func TestUtilizationFigureStructure(t *testing.T) {
	p := fastProfile()
	p.LightTasks = 200
	fig, err := figure10(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("expected 2 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for i, u := range s.Y {
			if u < 0 || u > 1 {
				t.Fatalf("series %s utilisation %g out of [0,1]", s.Label, u)
			}
			if s.X[i] < 10 || s.X[i] > 100 {
				t.Fatalf("cycle fraction %g out of [10,100]", s.X[i])
			}
		}
	}
}

func TestPointStatAggregation(t *testing.T) {
	p := fastProfile()
	p.Replications = 3
	pt, err := runReplications(context.Background(), p, RunSpec{Policy: Greedy, NumTasks: 100}, nil,
		func(r sched.Result) float64 { return r.AveRT })
	if err != nil {
		t.Fatal(err)
	}
	if pt.N != 3 {
		t.Fatalf("aggregated %d replications, want 3", pt.N)
	}
	if pt.Mean <= 0 {
		t.Fatal("mean response time must be positive")
	}
	if pt.CI95 < 0 {
		t.Fatal("CI must be non-negative")
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	p := fastProfile()
	p.LightTasks = 100
	p.HeavyTasks = 400
	arms := DefaultAblationArms()[:3] // keep the test quick
	results, err := RunAblations(p, arms)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.AveRT.Mean <= 0 || r.ECS.Mean <= 0 {
			t.Fatalf("degenerate arm %q: %+v", r.Arm, r)
		}
		if r.Success.Mean < 0 || r.Success.Mean > 1 {
			t.Fatalf("arm %q success out of range", r.Arm)
		}
	}
}

func TestRunAblationsBadProfile(t *testing.T) {
	p := fastProfile()
	p.SizeScale = -1
	if _, err := RunAblations(p, DefaultAblationArms()[:1]); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestExtensionFigureDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep")
	}
	p := fastProfile()
	p.LightTasks, p.HeavyTasks = 100, 300
	for _, id := range []string{"E1", "E2", "E3"} {
		fig, err := FigureByID(context.Background(), p, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("%s has no series", id)
		}
		for _, s := range fig.Series {
			if len(s.X) != len(s.Y) {
				t.Fatalf("%s series %s ragged", id, s.Label)
			}
		}
	}
	if _, err := FigureByID(context.Background(), p, "E9"); err == nil {
		t.Fatal("expected error for unknown extension figure")
	}
}
