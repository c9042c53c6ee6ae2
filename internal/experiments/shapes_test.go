package experiments

import (
	"context"
	"testing"
)

// Shape regression tests: assert the qualitative findings recorded in
// EXPERIMENTS.md keep holding. They run full (single-replication) figure
// sweeps, so they are skipped under -short.

func shapeProfile() Profile {
	p := DefaultProfile()
	p.Replications = 1
	return p
}

func seriesByLabel(t *testing.T, fig Figure, label string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, label)
	return Series{}
}

func last(s Series) float64 { return s.Y[len(s.Y)-1] }

func TestShapeExperiment1(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	p := shapeProfile()
	fig7, err := figure7(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := seriesByLabel(t, fig7, "adaptive-rl")
	// AveRT grows with N for Adaptive-RL (first point vs last point).
	if last(adaptive) <= adaptive.Y[0] {
		t.Fatalf("Adaptive-RL AveRT did not grow with load: %v", adaptive.Y)
	}
	// Adaptive-RL is the lowest curve at the heavy end.
	for _, other := range []PolicyName{OnlineRL, QPlus, Predictive} {
		s := seriesByLabel(t, fig7, string(other))
		if last(s) <= last(adaptive) {
			t.Fatalf("%s AveRT %.1f not above Adaptive-RL %.1f at N=3000", other, last(s), last(adaptive))
		}
	}

	fig8, err := figure8(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveE := seriesByLabel(t, fig8, "adaptive-rl")
	onlineE := seriesByLabel(t, fig8, "online-rl")
	// ECS grows with N.
	if last(adaptiveE) <= adaptiveE.Y[0] {
		t.Fatalf("ECS did not grow with load: %v", adaptiveE.Y)
	}
	// Adaptive-RL lowest at the heavy end; Online RL within ~12% (the
	// paper reports ~5%; the band leaves room for seed noise at 1 rep).
	for _, other := range []PolicyName{OnlineRL, QPlus, Predictive} {
		s := seriesByLabel(t, fig8, string(other))
		if last(s) < last(adaptiveE) {
			t.Fatalf("%s ECS %.3f below Adaptive-RL %.3f at N=3000", other, last(s), last(adaptiveE))
		}
	}
	if gap := last(onlineE)/last(adaptiveE) - 1; gap > 0.12 {
		t.Fatalf("Online RL energy gap %.1f%% exceeds the ~5%% finding band", gap*100)
	}
}

func TestShapeExperiment2Heavy(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	fig9, err := figure9(context.Background(), shapeProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig9.Series {
		// Both policies keep engaged utilisation >= 0.55 throughout the
		// heavy run (the paper's ">= 0.6 at 100%" finding, with head-room
		// for single-replication noise).
		for i, u := range s.Y {
			if u < 0.55 {
				t.Fatalf("%s utilisation %.2f at decile %d below band", s.Label, u, i+1)
			}
		}
	}
	// Adaptive-RL rises over the first half of its learning cycles.
	adaptive := fig9.Series[0]
	if len(adaptive.Y) >= 5 && adaptive.Y[4] <= adaptive.Y[0] {
		t.Fatalf("Adaptive-RL utilisation did not rise over early cycles: %v", adaptive.Y)
	}
}

func TestShapeExperiment3(t *testing.T) {
	if testing.Short() {
		t.Skip("shape sweep")
	}
	p := shapeProfile()
	fig11, err := figure11(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	heavy := seriesByLabel(t, fig11, "heavily-loaded")
	light := seriesByLabel(t, fig11, "lightly-loaded")
	// Light above heavy at every heterogeneity level.
	for i := range heavy.Y {
		if light.Y[i] <= heavy.Y[i] {
			t.Fatalf("light success %.2f not above heavy %.2f at h=%g", light.Y[i], heavy.Y[i], heavy.X[i])
		}
	}
	// Success decreases from the low-heterogeneity side to the high side.
	if light.Y[len(light.Y)-1] >= light.Y[0] {
		t.Fatalf("light success did not decrease with heterogeneity: %v", light.Y)
	}

	fig12, err := figure12(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	heavyE := seriesByLabel(t, fig12, "heavily-loaded")
	lightE := seriesByLabel(t, fig12, "lightly-loaded")
	for i := range heavyE.Y {
		if heavyE.Y[i] <= lightE.Y[i] {
			t.Fatalf("heavy energy not above light at h=%g", heavyE.X[i])
		}
	}
	// Roughly flat: spread within ±12% of the mean for each load state.
	for _, s := range []Series{heavyE, lightE} {
		mean := 0.0
		for _, y := range s.Y {
			mean += y
		}
		mean /= float64(len(s.Y))
		for i, y := range s.Y {
			if y < mean*0.88 || y > mean*1.12 {
				t.Fatalf("%s energy %.3f at h=%g deviates >12%% from mean %.3f",
					s.Label, y, s.X[i], mean)
			}
		}
	}
}
