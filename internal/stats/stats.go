// Package stats provides the small statistics toolkit the experiment
// harness uses: streaming moment accumulation (Welford), coefficient of
// variation (the paper's heterogeneity metric), percentiles, and
// Student-t confidence intervals for multi-replication summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance using Welford's
// algorithm, which is numerically stable for long runs.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddAll folds a slice of observations.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the observation count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// CV returns the coefficient of variation (stddev/mean), the paper's
// service-heterogeneity metric [24]. Zero mean yields zero.
func (a *Accumulator) CV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.StdDev() / math.Abs(a.mean)
}

// Min and Max return the observed extremes (0 when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// CI95 returns the half-width of the 95% Student-t confidence interval
// on the mean, t(0.975, n−1)·s/√n (0 for n < 2). The figures replicate
// each point only a handful of times, where the normal quantile 1.96
// would understate the interval: t(0.975, 4) is 2.776.
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return t975(a.n-1) * a.StdDev() / math.Sqrt(float64(a.n))
}

// t975Table holds t(0.975, df) for df = 1…30.
var t975Table = [...]float64{
	12.706204736, 4.302652730, 3.182446305, 2.776445105, 2.570581836,
	2.446911851, 2.364624252, 2.306004135, 2.262157163, 2.228138852,
	2.200985160, 2.178812830, 2.160368656, 2.144786688, 2.131449546,
	2.119905299, 2.109815578, 2.100922040, 2.093024054, 2.085963447,
	2.079613845, 2.073873068, 2.068657610, 2.063898562, 2.059538553,
	2.055529439, 2.051830516, 2.048407142, 2.045229642, 2.042272456,
}

// t975 returns the 0.975 quantile of Student's t distribution with df
// degrees of freedom (df ≥ 1): exact to 9 decimals from a table up to
// df = 30, and above it the Cornish–Fisher expansion in 1/df around the
// normal quantile (Abramowitz & Stegun 26.7.5), whose error there is
// below 1e-5. It panics for df < 1.
func t975(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: t quantile with %d degrees of freedom", df))
	}
	if df <= len(t975Table) {
		return t975Table[df-1]
	}
	const z = 1.959963984540054 // normal 0.975 quantile
	z2 := z * z
	g1 := (z2 + 1) * z / 4
	g2 := ((5*z2+16)*z2 + 3) * z / 96
	g3 := (((3*z2+19)*z2+17)*z2 - 15) * z / 384
	g4 := ((((79*z2+776)*z2+1482)*z2-1920)*z2 - 945) * z / 92160
	v := float64(df)
	return z + (g1+(g2+(g3+g4/v)/v)/v)/v
}

// Summary is a value snapshot of an accumulator.
type Summary struct {
	N                  int
	Mean, StdDev, CI95 float64
	Min, Max, CV       float64
}

// Summarize captures the accumulator state.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), CI95: a.CI95(),
		Min: a.Min(), Max: a.Max(), CV: a.CV(),
	}
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95, s.N)
}

// CV computes the coefficient of variation of xs.
func CV(xs []float64) float64 {
	var a Accumulator
	a.AddAll(xs)
	return a.CV()
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanOfColumn averages column i across rows, skipping rows that are too
// short. Used to aggregate per-replication series into a mean series.
func MeanOfColumn(rows [][]float64, i int) float64 {
	var a Accumulator
	for _, row := range rows {
		if i < len(row) {
			a.Add(row[i])
		}
	}
	return a.Mean()
}

// MeanSeries averages equally long series element-wise; ragged tails are
// averaged over the rows that have them. Returns nil for no rows.
func MeanSeries(rows [][]float64) []float64 {
	maxLen := 0
	for _, row := range rows {
		if len(row) > maxLen {
			maxLen = len(row)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	for i := range out {
		out[i] = MeanOfColumn(rows, i)
	}
	return out
}
