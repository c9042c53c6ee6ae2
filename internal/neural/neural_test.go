package neural

import (
	"math"
	"testing"
	"testing/quick"

	"rlsched/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Inputs: 0, Outputs: 1, LearningRate: 0.1, InitScale: 0.1},
		{Inputs: 1, Outputs: 0, LearningRate: 0.1, InitScale: 0.1},
		{Inputs: 1, Outputs: 1, LearningRate: 0, InitScale: 0.1},
		{Inputs: 1, Outputs: 1, LearningRate: 0.1, Momentum: 1, InitScale: 0.1},
		{Inputs: 1, Outputs: 1, LearningRate: 0.1, InitScale: 0},
		{Inputs: 1, Outputs: 1, Hidden: []int{0}, LearningRate: 0.1, InitScale: 0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, rng.NewStream(1, "nn")); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	cfg := DefaultConfig(3)
	a := MustNew(cfg, rng.NewStream(5, "nn"))
	b := MustNew(cfg, rng.NewStream(5, "nn"))
	x := []float64{0.1, -0.4, 0.7}
	if a.Predict1(x) != b.Predict1(x) {
		t.Fatal("identical seeds produced different networks")
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	n := MustNew(DefaultConfig(3), rng.NewStream(1, "nn"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dimension")
		}
	}()
	n.Predict1([]float64{1, 2})
}

func TestTrainTargetDimensionPanics(t *testing.T) {
	n := MustNew(DefaultConfig(2), rng.NewStream(1, "nn"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong target dimension")
		}
	}()
	n.Train([]float64{1, 2}, []float64{1, 2})
}

func TestLearnsLinearFunction(t *testing.T) {
	cfg := Config{Inputs: 2, Hidden: nil, Outputs: 1, LearningRate: 0.05, Momentum: 0, InitScale: 0.1}
	n := MustNew(cfg, rng.NewStream(7, "nn"))
	r := rng.NewStream(8, "data")
	// Target: y = 2a - b + 0.5
	for i := 0; i < 5000; i++ {
		a, b := r.Uniform(-1, 1), r.Uniform(-1, 1)
		n.Train1([]float64{a, b}, 2*a-b+0.5)
	}
	worst := 0.0
	for i := 0; i < 100; i++ {
		a, b := r.Uniform(-1, 1), r.Uniform(-1, 1)
		err := math.Abs(n.Predict1([]float64{a, b}) - (2*a - b + 0.5))
		worst = math.Max(worst, err)
	}
	if worst > 0.05 {
		t.Fatalf("linear fit worst error %g", worst)
	}
}

func TestLearnsXORWithHiddenLayer(t *testing.T) {
	cfg := Config{Inputs: 2, Hidden: []int{8}, Outputs: 1, LearningRate: 0.1, Momentum: 0.3, InitScale: 0.5}
	n := MustNew(cfg, rng.NewStream(11, "nn"))
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for epoch := 0; epoch < 4000; epoch++ {
		for _, d := range data {
			n.Train1([]float64{d[0], d[1]}, d[2])
		}
	}
	for _, d := range data {
		got := n.Predict1([]float64{d[0], d[1]})
		if math.Abs(got-d[2]) > 0.2 {
			t.Fatalf("XOR(%g,%g) = %g, want %g", d[0], d[1], got, d[2])
		}
	}
}

func TestTrainReducesLoss(t *testing.T) {
	n := MustNew(DefaultConfig(3), rng.NewStream(13, "nn"))
	x := []float64{0.3, -0.2, 0.9}
	first := n.Train1(x, 1.5)
	var last float64
	for i := 0; i < 200; i++ {
		last = n.Train1(x, 1.5)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %g, last %g", first, last)
	}
	if n.Trained() != 201 {
		t.Fatalf("Trained = %d, want 201", n.Trained())
	}
}

func TestNumParams(t *testing.T) {
	cfg := Config{Inputs: 4, Hidden: []int{8}, Outputs: 1, LearningRate: 0.1, InitScale: 0.1}
	n := MustNew(cfg, rng.NewStream(1, "nn"))
	want := 4*8 + 8 + 8*1 + 1
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestPredictIsPure(t *testing.T) {
	n := MustNew(DefaultConfig(2), rng.NewStream(19, "nn"))
	x := []float64{0.2, 0.8}
	a := n.Predict1(x)
	for i := 0; i < 10; i++ {
		if n.Predict1(x) != a {
			t.Fatal("repeated Predict on same input diverged")
		}
	}
}

// Property: predictions are finite for bounded inputs, before and after
// arbitrary bounded training.
func TestQuickFiniteOutputs(t *testing.T) {
	n := MustNew(DefaultConfig(3), rng.NewStream(23, "nn"))
	f := func(a, b, c int8, target int8) bool {
		x := []float64{float64(a) / 32, float64(b) / 32, float64(c) / 32}
		n.Train1(x, float64(target)/32)
		y := n.Predict1(x)
		return !math.IsNaN(y) && !math.IsInf(y, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a zero-hidden-layer network is exactly linear in its input:
// f(x) - f(0) is additive under scaling.
func TestQuickLinearityOfLinearNet(t *testing.T) {
	cfg := Config{Inputs: 2, Outputs: 1, LearningRate: 0.1, InitScale: 0.5}
	n := MustNew(cfg, rng.NewStream(29, "nn"))
	zero := n.Predict1([]float64{0, 0})
	f := func(a, b int8, kRaw uint8) bool {
		k := float64(kRaw%5) + 1
		x1, x2 := float64(a)/16, float64(b)/16
		base := n.Predict1([]float64{x1, x2}) - zero
		scaled := n.Predict1([]float64{k * x1, k * x2}) - zero
		return math.Abs(scaled-k*base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrain(b *testing.B) {
	n := MustNew(DefaultConfig(6), rng.NewStream(1, "bench"))
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Train1(x, 0.7)
	}
}

func BenchmarkPredict(b *testing.B) {
	n := MustNew(DefaultConfig(6), rng.NewStream(1, "bench"))
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Predict1(x)
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	a := MustNew(DefaultConfig(3), rng.NewStream(41, "nn"))
	x := []float64{0.2, -0.1, 0.5}
	for i := 0; i < 100; i++ {
		a.Train1(x, 0.7)
	}
	ws := a.Weights()
	if len(ws) != a.NumParams() {
		t.Fatalf("weights length %d, want %d", len(ws), a.NumParams())
	}
	b := MustNew(DefaultConfig(3), rng.NewStream(999, "other"))
	if err := b.SetWeights(ws); err != nil {
		t.Fatal(err)
	}
	if a.Predict1(x) != b.Predict1(x) {
		t.Fatal("restored network predicts differently")
	}
}

func TestSetWeightsWrongLength(t *testing.T) {
	n := MustNew(DefaultConfig(3), rng.NewStream(1, "nn"))
	if err := n.SetWeights(make([]float64, 3)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestWeightsIsACopy(t *testing.T) {
	n := MustNew(DefaultConfig(2), rng.NewStream(1, "nn"))
	ws := n.Weights()
	before := n.Predict1([]float64{0.1, 0.2})
	ws[0] += 100
	if n.Predict1([]float64{0.1, 0.2}) != before {
		t.Fatal("mutating the returned slice changed the network")
	}
}
