package cluster

import (
	"hash/fnv"
	"time"
)

// Breaker defaults; see PoolOptions.
const (
	// DefaultBreakerThreshold is how many consecutive failures (lease or
	// probe) trip a worker's circuit breaker.
	DefaultBreakerThreshold = 3
)

// BreakerState is one worker's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: the cooldown elapsed and exactly one trial probe
	// is out; its outcome closes or re-opens the breaker.
	BreakerHalfOpen
	// BreakerOpen: the worker gets no leases and no probes until the
	// cooldown elapses.
	BreakerOpen
)

// String renders the conventional state names.
func (s BreakerState) String() string {
	switch s {
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return "closed"
	}
}

// breaker is one worker's circuit breaker. All methods are called under
// the pool mutex; the pool owns the clock (passing now keeps the
// breaker itself trivially testable).
type breaker struct {
	threshold int
	cooldown  time.Duration

	state    BreakerState
	fails    int // consecutive failures since the last success
	openedAt time.Time
}

// allow reports whether a request (lease or probe) may go out. An open
// breaker whose cooldown has elapsed grants exactly one half-open
// trial; further calls are refused until that trial settles.
func (b *breaker) allow(now time.Time) bool {
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	case BreakerHalfOpen:
		return false
	default:
		return true
	}
}

// success closes the breaker and clears the failure streak.
func (b *breaker) success() {
	b.state = BreakerClosed
	b.fails = 0
}

// failure records one more consecutive failure. The breaker opens when
// the streak reaches the threshold — or immediately if the half-open
// trial itself failed.
func (b *breaker) failure(now time.Time) {
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = now
	}
}

// backoffDelay is the capped exponential backoff a worker sits out
// before its attempt-th retry (1-based), with deterministic jitter: the
// delay lands in [base<<(attempt-1) / 2, base<<(attempt-1)), the exact
// point chosen by hashing (key, attempt). Same inputs, same delay —
// retries desynchronise across workers (different keys) yet replay
// identically, which keeps chaos schedules reproducible.
func backoffDelay(base, cap time.Duration, key string, attempt int) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d <<= 1
	}
	if cap > 0 && d > cap {
		d = cap
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	half := d / 2
	return half + time.Duration(uint64(half)*(h.Sum64()%1024)/1024)
}
