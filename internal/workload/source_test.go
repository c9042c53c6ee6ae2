package workload

import (
	"math"
	"testing"

	"rlsched/internal/rng"
)

// TestGeneratorMatchesGenerate asserts the streaming generator is
// byte-identical to the historical slice generator for the same seed:
// every field of every task, in order.
func TestGeneratorMatchesGenerate(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumTasks = 2000
	cfg.Mix = PriorityMix{Low: 0.2, Medium: 0.3, High: 0.5}

	want := MustGenerate(cfg, rng.NewStream(42, "wl"))
	src, err := NewGenerator(cfg, rng.NewStream(42, "wl"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTasks(t, want, src)
}

// TestBurstySourceMatchesGenerateBursty does the same for the bursty
// process (whose variable-draw phase loop is the trickiest to stream).
func TestBurstySourceMatchesGenerateBursty(t *testing.T) {
	cfg := DefaultBurstyConfig()
	cfg.NumTasks = 2000

	want, err := GenerateBursty(cfg, rng.NewStream(7, "wl"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewBurstySource(cfg, rng.NewStream(7, "wl"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameTasks(t, want, src)
}

func assertSameTasks(t *testing.T, want []*Task, src Source) {
	t.Helper()
	for i, w := range want {
		g, ok := src.Next()
		if !ok {
			t.Fatalf("source exhausted at task %d of %d", i, len(want))
		}
		if *g != *w {
			t.Fatalf("task %d differs:\n  source:   %+v\n  expected: %+v", i, *g, *w)
		}
	}
	if g, ok := src.Next(); ok {
		t.Fatalf("source yielded extra task %+v", *g)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded again")
	}
}

// TestFromSliceRoundTrip checks the slice adapters compose to identity.
func TestFromSliceRoundTrip(t *testing.T) {
	tasks := MustGenerate(DefaultGenConfig(), rng.NewStream(1, "wl"))
	got := collect(nil, FromSlice(tasks))
	if len(got) != len(tasks) {
		t.Fatalf("round trip changed length: %d -> %d", len(tasks), len(got))
	}
	for i := range tasks {
		if got[i] != tasks[i] {
			t.Fatalf("round trip changed task %d identity", i)
		}
	}
}

// TestDiurnalSource checks the modulated process: valid tasks, ordered
// arrivals, a long-run rate near the configured mean, and visible
// rate variation between peak and trough phases.
func TestDiurnalSource(t *testing.T) {
	cfg := DiurnalConfig{GenConfig: DefaultGenConfig(), Amplitude: 0.6, Period: 5_000}
	cfg.NumTasks = 40_000
	src, err := NewDiurnalSource(cfg, rng.NewStream(3, "wl"))
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	// Count arrivals falling in the rising vs falling half-cycles.
	phaseCount := [2]int{}
	var last *Task
	n := 0
	for {
		task, ok := src.Next()
		if !ok {
			break
		}
		n++
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
		if task.ArrivalTime < prev {
			t.Fatalf("arrivals out of order: %g after %g", task.ArrivalTime, prev)
		}
		prev = task.ArrivalTime
		phase := math.Mod(task.ArrivalTime, cfg.Period) / cfg.Period
		if phase < 0.5 {
			phaseCount[0]++ // sin > 0: high-rate half
		} else {
			phaseCount[1]++
		}
		last = task
	}
	if n != cfg.NumTasks {
		t.Fatalf("yielded %d tasks, want %d", n, cfg.NumTasks)
	}
	// Long-run rate: span ≈ NumTasks * MeanInterArrival.
	wantSpan := float64(cfg.NumTasks) * cfg.MeanInterArrival
	if last.ArrivalTime < 0.9*wantSpan || last.ArrivalTime > 1.1*wantSpan {
		t.Fatalf("span %g too far from the configured long-run rate (want ~%g)", last.ArrivalTime, wantSpan)
	}
	// The high-rate half-cycle must receive clearly more arrivals.
	if phaseCount[0] < phaseCount[1]*5/4 {
		t.Fatalf("no diurnal modulation visible: %d arrivals in peak half vs %d in trough half", phaseCount[0], phaseCount[1])
	}
}

// TestDiurnalValidation rejects out-of-range modulation parameters.
func TestDiurnalValidation(t *testing.T) {
	good := DiurnalConfig{GenConfig: DefaultGenConfig(), Amplitude: 0.6, Period: 10_000}
	bad := good
	bad.Amplitude = 1
	if _, err := NewDiurnalSource(bad, rng.NewStream(1, "wl")); err == nil {
		t.Fatal("Amplitude=1 accepted")
	}
	bad = good
	bad.Period = 0
	if _, err := NewDiurnalSource(bad, rng.NewStream(1, "wl")); err == nil {
		t.Fatal("Period=0 accepted")
	}
}
