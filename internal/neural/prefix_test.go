package neural

import (
	"math"
	"testing"

	"rlsched/internal/rng"
)

// signedValue draws a weight or input for the prefix equivalence checks:
// a quarter are signed zeros, whose sums are where a reordered or skipped
// addition would first show (+0 + −0 is +0), the rest uniform in [−2, 2].
func signedValue(r *rng.Stream) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return r.Uniform(-2, 2)
	}
}

// prefixNet returns the agent's network shape (6 inputs, 8 tanh units, 1
// output) with every parameter drawn by signedValue from seed.
func prefixNet(seed uint64) *Network {
	r := rng.NewStream(seed, "prefix")
	n := MustNew(DefaultConfig(6), r.Split("init"))
	ws := n.Weights()
	for i := range ws {
		ws[i] = signedValue(r)
	}
	if err := n.SetWeights(ws); err != nil {
		panic(err)
	}
	return n
}

// samePrefixPredict reports whether PredictRest1 after SetPrefix(x[:k])
// is bit-for-bit Predict1(x).
func samePrefixPredict(n *Network, x []float64, k int) bool {
	want := n.Predict1(x)
	n.SetPrefix(x[:k])
	got := n.PredictRest1(x[k:])
	return math.Float64bits(got) == math.Float64bits(want)
}

// Property: the prefix pass is bitwise Predict1 for random weights and
// inputs with signed zeros, at every split point, and in particular at
// the agent's split (four state features, then opnum and a mode flag of 0
// or 1) across all candidates sharing one prefix.
func TestPrefixPredictMatchesPredict1(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		n := prefixNet(seed)
		r := rng.NewStream(seed, "inputs")
		x := make([]float64, 6)
		for i := range x {
			x[i] = signedValue(r)
		}
		for k := 0; k <= len(x); k++ {
			if !samePrefixPredict(n, x, k) {
				t.Fatalf("seed %d: prefix of %d inputs differs from Predict1 on %v", seed, k, x)
			}
		}
		n.SetPrefix(x[:4])
		for op := 1; op <= 8; op++ {
			for _, mode := range []float64{0, 1} {
				x[4], x[5] = float64(op)/8, mode
				want := n.Predict1(x)
				if got := n.PredictRest1(x[4:]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: candidate (%g, %g) scored %v, Predict1 %v", seed, x[4], x[5], got, want)
				}
			}
		}
	}
}

func TestPrefixLapsesOnWeightChange(t *testing.T) {
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0}
	for name, change := range map[string]func(n *Network){
		"Train":      func(n *Network) { n.Train1(x, 1) },
		"SetWeights": func(n *Network) { _ = n.SetWeights(n.Weights()) },
	} {
		n := MustNew(DefaultConfig(6), rng.NewStream(3, "nn"))
		n.SetPrefix(x[:4])
		change(n)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PredictRest1 on a stale prefix did not panic", name)
				}
			}()
			n.PredictRest1(x[4:])
		}()
	}
}

// FuzzPrefixPredictMatches checks the prefix pass against Predict1 for
// arbitrary networks (by seed), inputs and split points, NaN and infinite
// inputs included: both paths must produce the same bits.
func FuzzPrefixPredictMatches(f *testing.F) {
	f.Add(uint64(1), 0.5, -0.25, 1.0, 0.0, 0.375, 0.0, uint8(4))
	f.Add(uint64(2), math.Copysign(0, -1), 0.0, -1.5, 2.0, 1.0, 1.0, uint8(4))
	f.Add(uint64(3), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c, d, e, g float64, k uint8) {
		n := prefixNet(seed)
		x := []float64{a, b, c, d, e, g}
		split := int(k) % (len(x) + 1)
		if !samePrefixPredict(n, x, split) {
			t.Fatalf("seed %d: prefix of %d inputs differs from Predict1 on %v", seed, split, x)
		}
	})
}
