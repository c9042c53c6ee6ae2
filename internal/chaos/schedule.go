// Package chaos is a seedable, deterministic fault-injection harness
// for the cluster stack's two seams: the HTTP path between coordinator
// and workers (Transport wraps an http.RoundTripper) and the disk path
// under the cache spool and journal (FaultFS wraps an FS).
//
// Faults are driven by a Schedule: an ordered rule list plus a seed.
// Whether the nth operation matching a rule for a given key faults is a
// pure function of (seed, rule index, key, n) — not of wall-clock time,
// goroutine interleaving, or a shared RNG cursor — so the same schedule
// replays the same fault sequence per key no matter how concurrent
// operations race. That is what lets the chaos e2e suite assert
// byte-identical results without flaking.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// Kind names one injectable fault.
type Kind string

const (
	// None means the operation proceeds untouched.
	None Kind = ""
	// Latency delays the operation, then lets it proceed normally.
	Latency Kind = "latency"
	// Stall is Latency under the name fault schedules use for
	// straggler scenarios (a long delay followed by success).
	Stall Kind = "stall"
	// Drop fails an HTTP request before it reaches the server, like a
	// refused or reset connection.
	Drop Kind = "drop"
	// Err5xx synthesizes an HTTP 503 without contacting the server.
	Err5xx Kind = "5xx"
	// Garbage returns HTTP 200 with an unparsable body.
	Garbage Kind = "garbage"
	// Partition delivers the request but drops the response — the
	// one-way partition where the server did the work and the client
	// never learns.
	Partition Kind = "partition"
	// ENOSPC fails a filesystem write with a no-space error.
	ENOSPC Kind = "enospc"
	// TornWrite persists a prefix of the buffer, then fails — the
	// crash-mid-write shape journals must tolerate.
	TornWrite Kind = "torn"
	// BitFlip flips one deterministically chosen bit in the data read
	// back from disk.
	BitFlip Kind = "bitflip"
)

// Operation domains a Rule can match.
const (
	OpHTTP  = "http"
	OpRead  = "fs-read"
	OpWrite = "fs-write"
)

// Rule injects Fault into operations in domain Op whose key contains
// Match (empty matches everything). For HTTP the key is host+path; for
// the filesystem it is the file path. After skips the first After
// matching operations per key; Limit caps fires per key (0 =
// unlimited); Prob in (0, 1] fires probabilistically, decided by a
// seeded hash so replays agree.
type Rule struct {
	Op    string
	Match string
	Fault Kind
	Prob  float64
	Delay time.Duration
	After int
	Limit int
}

// Decision records one fired fault, for replay assertions and logs.
type Decision struct {
	Rule  int
	Op    string
	Key   string
	N     int // per-(rule,key) occurrence index, 0-based
	Fault Kind
	Delay time.Duration
}

func (d Decision) String() string {
	return fmt.Sprintf("rule=%d op=%s key=%s n=%d fault=%s", d.Rule, d.Op, d.Key, d.N, d.Fault)
}

type countKey struct {
	rule int
	key  string
}

// Schedule decides, deterministically per seed, which operations fault.
// Safe for concurrent use.
type Schedule struct {
	seed  uint64
	rules []Rule

	mu       sync.Mutex
	seen     map[countKey]int // operations observed per (rule, key)
	fired    map[countKey]int // faults fired per (rule, key)
	injected int              // faults fired in total
}

// NewSchedule builds a schedule from a seed and an ordered rule list.
// The first matching rule that fires wins for any given operation.
func NewSchedule(seed uint64, rules ...Rule) *Schedule {
	return &Schedule{
		seed:  seed,
		rules: rules,
		seen:  make(map[countKey]int),
		fired: make(map[countKey]int),
	}
}

// Decide classifies one operation. It returns the fault to inject (the
// zero Decision means none) and counts fired faults.
func (s *Schedule) Decide(op, key string) Decision {
	if s == nil {
		return Decision{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ri, r := range s.rules {
		if r.Op != op {
			continue
		}
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		ck := countKey{ri, key}
		n := s.seen[ck]
		s.seen[ck] = n + 1
		if n < r.After {
			continue
		}
		if r.Limit > 0 && s.fired[ck] >= r.Limit {
			continue
		}
		if r.Prob < 1 && s.draw(ri, key, n) >= r.Prob {
			continue
		}
		s.fired[ck]++
		s.injected++
		return Decision{Rule: ri, Op: op, Key: key, N: n, Fault: r.Fault, Delay: r.Delay}
	}
	return Decision{}
}

// draw maps (seed, rule, key, n) to a uniform float in [0, 1).
func (s *Schedule) draw(rule int, key string, n int) float64 {
	return float64(s.hash(rule, key, n)%1_000_000) / 1_000_000
}

// hash is the deterministic decision source: FNV-1a over the seed, the
// rule index, the operation key and its per-key occurrence count.
func (s *Schedule) hash(rule int, key string, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put64(&buf, s.seed)
	h.Write(buf[:])
	put64(&buf, uint64(rule))
	h.Write(buf[:])
	h.Write([]byte(key))
	put64(&buf, uint64(n))
	h.Write(buf[:])
	return h.Sum64()
}

// Fired reports how many faults the schedule has injected.
func (s *Schedule) Fired() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

func put64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}
