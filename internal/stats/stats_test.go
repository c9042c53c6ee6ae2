package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g", a.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if !almost(a.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %g", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.CI95() != 0 || a.Min() != 0 || a.Max() != 0 || a.CV() != 0 {
		t.Fatal("empty accumulator must return zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(7)
	if a.Mean() != 7 || a.Variance() != 0 || a.CI95() != 0 {
		t.Fatal("single observation should have zero spread")
	}
}

func TestCV(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{10, 10, 10})
	if a.CV() != 0 {
		t.Fatalf("constant data CV = %g", a.CV())
	}
	if got := CV([]float64{1, 3}); !almost(got, math.Sqrt2/2, 1e-12) {
		t.Fatalf("CV([1,3]) = %g", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 4))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 4))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI should shrink with n: %g vs %g", large.CI95(), small.CI95())
	}
}

// TestT975 pins the Student-t quantile behind CI95 against published
// t(0.975, df) values, on both sides of the table's end at df = 30.
func TestT975(t *testing.T) {
	for _, c := range []struct {
		df   int
		want float64
		tol  float64
	}{
		{1, 12.706, 1e-3}, {4, 2.776, 1e-3}, {9, 2.262, 1e-3}, {29, 2.045, 1e-3}, {100, 1.984, 1e-3},
		{31, 2.039513446, 1e-5}, {60, 2.000297822, 1e-5}, {120, 1.979930405, 1e-5},
	} {
		if got := t975(c.df); math.Abs(got-c.want) > c.tol {
			t.Errorf("t975(%d) = %.9f, want %.9f ± %g", c.df, got, c.want, c.tol)
		}
	}
	var a Accumulator
	a.AddAll([]float64{1, 2, 3, 4, 5})
	if want := 2.776445105 * a.StdDev() / math.Sqrt(5); !almost(a.CI95(), want, 1e-12) {
		t.Errorf("CI95 over 5 observations = %g, want t(0.975, 4)·s/√5 = %g", a.CI95(), want)
	}
}

func TestSummary(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{1, 2, 3})
	s := a.Summarize()
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("Summary.String empty")
	}
}

func TestMeanHelpers(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if mean([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("mean wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Fatalf("P0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("P100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Fatalf("P50 = %g", got)
	}
	// Interpolated: rank 0.25*4=1 exactly -> 20; 30th: rank 1.2 -> 20+0.2*15=23
	if got := Percentile(xs, 30); !almost(got, 23, 1e-12) {
		t.Fatalf("P30 = %g", got)
	}
	if Percentile([]float64{9}, 50) != 9 {
		t.Fatal("P50 of a single element")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated input")
	}
}

func TestMeanSeries(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3},
		{3, 4},
		{5, 6, 9},
	}
	got := MeanSeries(rows)
	want := []float64{3, 4, 6}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("MeanSeries = %v, want %v", got, want)
		}
	}
	if MeanSeries(nil) != nil {
		t.Fatal("MeanSeries(nil) should be nil")
	}
}

// Property: Welford matches the two-pass mean/variance computation.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 3
		}
		var a Accumulator
		a.AddAll(xs)
		m := mean(xs)
		ss := 0.0
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		wantVar := ss / float64(len(xs)-1)
		return almost(a.Mean(), m, 1e-9) && almost(a.Variance(), wantVar, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(xs, a), Percentile(xs, b)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return va <= vb+1e-9 && va >= lo-1e-9 && vb <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccumulator(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i % 1000))
	}
}

// mean is the two-pass reference the Welford accumulator is checked
// against: the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
