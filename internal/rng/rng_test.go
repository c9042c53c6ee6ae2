package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewStream(42, "a")
	b := NewStream(42, "a")
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := NewStream(42, "a")
	b := NewStream(43, "a")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewStream(7, "p")
	c1 := parent.Split("x")
	parent2 := NewStream(7, "p")
	c2 := parent2.Split("x")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("same-named children of identical parents diverged at draw %d", i)
		}
	}

	// Differently named children drawn at the same point must differ.
	p3 := NewStream(7, "p")
	p4 := NewStream(7, "p")
	d1 := p3.Split("x")
	d2 := p4.Split("y")
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently named children coincide on %d/100 draws", same)
	}
}

func TestSplitAdvancesParentDeterministically(t *testing.T) {
	a := NewStream(9, "a")
	b := NewStream(9, "a")
	a.Split("child")
	b.Split("child")
	if a.Uint64() != b.Uint64() {
		t.Fatal("parent state after Split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(1, "f")
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewStream(2, "f")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %g too far from 0.5", mean)
	}
}

func TestUniformBounds(t *testing.T) {
	r := NewStream(3, "u")
	for i := 0; i < 10000; i++ {
		v := r.Uniform(500, 1000)
		if v < 500 || v >= 1000 {
			t.Fatalf("Uniform(500,1000) out of range: %g", v)
		}
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	NewStream(1, "u").Uniform(2, 1)
}

func TestIntnUniformity(t *testing.T) {
	r := NewStream(4, "i")
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates >5%% from expectation %g", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for Intn(%d)", n)
				}
			}()
			NewStream(1, "i").Intn(n)
		}()
	}
}

func TestIntRangeInclusive(t *testing.T) {
	r := NewStream(5, "ir")
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(4, 6)
		if v < 4 || v > 6 {
			t.Fatalf("IntRange(4,6) out of range: %d", v)
		}
		seen[v] = true
	}
	for v := 4; v <= 6; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(4,6) never produced %d in 1000 draws", v)
		}
	}
}

func TestIntRangeSingleton(t *testing.T) {
	r := NewStream(5, "ir")
	for i := 0; i < 10; i++ {
		if v := r.IntRange(3, 3); v != 3 {
			t.Fatalf("IntRange(3,3) = %d", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewStream(6, "e")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatalf("Exp produced negative value %g", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp(5) sample mean %g too far from 5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewStream(9, "b")
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := NewStream(10, "b")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %g", rate)
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	r := NewStream(11, "w")
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %g, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZeroFallsBackUniform(t *testing.T) {
	r := NewStream(12, "w")
	weights := []float64{0, 0, 0, 0}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		idx := r.WeightedChoice(weights)
		if idx < 0 || idx >= 4 {
			t.Fatalf("index out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniform fallback only hit %d/4 indices", len(seen))
	}
}

func TestWeightedChoiceNegativeTreatedAsZero(t *testing.T) {
	r := NewStream(13, "w")
	weights := []float64{-5, 1}
	for i := 0; i < 1000; i++ {
		if r.WeightedChoice(weights) == 0 {
			t.Fatal("negative-weight index chosen")
		}
	}
}

// Property: Uniform(lo,hi) is always within bounds for arbitrary bounds.
func TestQuickUniformWithinBounds(t *testing.T) {
	r := NewStream(16, "q")
	f := func(a, b float64, span uint8) bool {
		lo := math.Mod(a, 1e6)
		hi := lo + float64(span) + math.Abs(math.Mod(b, 1e3))
		v := r.Uniform(lo, hi)
		return v >= lo && (v < hi || hi == lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) in [0,n) for arbitrary positive n.
func TestQuickIntnWithinBounds(t *testing.T) {
	r := NewStream(17, "q")
	f := func(n uint16) bool {
		m := int(n)%10000 + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Exp is non-negative for any positive mean.
func TestQuickExpNonNegative(t *testing.T) {
	r := NewStream(18, "q")
	f := func(m uint16) bool {
		mean := float64(m)/100 + 0.01
		return r.Exp(mean) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := NewStream(1, "bench")
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
