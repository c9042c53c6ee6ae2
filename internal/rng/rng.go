// Package rng provides deterministic, stream-splittable pseudo-random
// number generation for the simulator.
//
// Every stochastic component of a simulation (arrival process, task sizes,
// platform generation, policy exploration, ...) draws from its own Stream so
// that changing the amount of randomness consumed by one component does not
// perturb the others. Streams are derived from a single experiment seed via
// SplitMix64, and the underlying generator is xoshiro256**, which is fast,
// has a 256-bit state and passes BigCrush.
//
// The package is self-contained (no math/rand dependency) so the simulator's
// reproducibility does not hinge on the standard library's generator
// evolving between Go releases.
package rng

import (
	"fmt"
	"math"
)

// Stream is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; give each goroutine (or simulation component) its own
// Stream via Split or NewStream.
type Stream struct {
	s    [4]uint64
	name string
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro state, per the xoshiro authors'
// recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream returns a Stream seeded from seed. The name is carried for
// diagnostics only and does not influence the generated sequence.
func NewStream(seed uint64, name string) *Stream {
	st := &Stream{name: name}
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

func (r *Stream) String() string {
	return fmt.Sprintf("rng.Stream(%s)", r.name)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child stream. The child's sequence is a
// deterministic function of the parent's state and the child name, and
// deriving a child advances the parent by exactly two draws, so sibling
// order is stable.
func (r *Stream) Split(name string) *Stream {
	seed := r.Uint64() ^ hashName(name)
	seed ^= r.Uint64() << 1
	return NewStream(seed, r.name+"/"+name)
}

// hashName is FNV-1a over the name, used to decorrelate same-position
// children with different names.
func hashName(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Float64 returns a uniform deviate in [0, 1). It uses the top 53 bits so
// results are uniform dyadic rationals.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform deviate in [lo, hi). It panics if hi < lo.
func (r *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: Uniform bounds inverted: [%g, %g)", lo, hi))
	}
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn(%d): n must be positive", n))
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// IntRange returns a uniform integer in [lo, hi] inclusive. Panics if
// hi < lo.
func (r *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange bounds inverted: [%d, %d]", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed deviate with the given mean
// (i.e. rate 1/mean). Used for Poisson-process inter-arrival times.
// Panics if mean <= 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp mean must be positive, got %g", mean))
	}
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -mean * math.Log(1-r.Float64())
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// WeightedChoice returns an index drawn proportionally to weights. Negative
// weights are treated as zero; if the total weight is zero it falls back to
// a uniform choice. Panics on an empty slice.
func (r *Stream) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice on empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
