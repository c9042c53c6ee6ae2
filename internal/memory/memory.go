// Package memory implements the shared long-term learning memory of
// §III.B/§IV.B: every site agent records its recent learning experiences
// (bounded to 15 learning cycles per agent) in a store visible to all
// agents, and agents consult each other's experiences — in particular the
// action with the maximum learning value l_val — to improve decisions.
//
// The store is single-threaded by design: the discrete-event simulation
// engine serialises all agent activity, so the "communication link between
// the shared-learning memory and all agents" (assumed contention-free at
// uniform speed in the paper) is a plain method call here. Lookups scan
// agents in ascending ID order, so equal scores resolve alike in every run.
package memory

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rlsched/internal/grouping"
)

// CapacityPerAgent is the paper's bound: "Each agent is limited to keep
// and update 15 cycles of its learning experiences in the shared-learning
// memory" (§III.B).
const CapacityPerAgent = 15

// State is the observed node/site state vector the agent conditioned its
// action on: S_c(t) = (Load, q−, PP_1..m) summarised into fixed features.
type State struct {
	// Load is the total processing weight queued at the chosen node.
	Load float64
	// FreeSlots is q−, the available queue spaces at the chosen node.
	FreeSlots float64
	// MeanPower is the mean instantaneous processor power of the node (W).
	MeanPower float64
	// SiteLoad is the aggregate queued weight across the agent's site,
	// normalising for how congested the agent's domain was.
	SiteLoad float64
}

// distance is a squared Euclidean distance on normalised features. The
// builtin max follows math.Max's NaN and ±Inf rules and inlines.
func (s State) distance(o State) float64 {
	d := 0.0
	a := [...]float64{s.Load, s.FreeSlots, s.MeanPower, s.SiteLoad}
	b := [...]float64{o.Load, o.FreeSlots, o.MeanPower, o.SiteLoad}
	for i := range a {
		scale := max(1, max(math.Abs(a[i]), math.Abs(b[i])))
		diff := (a[i] - b[i]) / scale
		d += diff * diff
	}
	return d
}

// Similarity maps distance into (0, 1], 1 meaning identical states.
func (s State) Similarity(o State) float64 {
	return math.Exp(-s.distance(o))
}

// Action is the decision the agent took: the grouping parameters of
// §IV.D.1. (Placement is re-derived from the live node states at decision
// time, so it is not memorised.)
type Action struct {
	// Opnum is the group size the agent targeted.
	Opnum int
	// Mode is the merge policy (mixed or identical priority).
	Mode grouping.Mode
}

// Experience is one learning cycle's outcome: the (state, action) pair,
// its dual feedback (reward of Eq. 8, error of Eq. 9), and the resulting
// learning value l_val = reward/error (Eq. 7).
type Experience struct {
	// AgentID identifies the recording agent.
	AgentID int
	// Cycle is the agent-local learning-cycle index.
	Cycle int
	// At is the simulation time the feedback completed.
	At     float64
	State  State
	Action Action
	// Reward is rew_val (Eq. 8): deadline hits in the group.
	Reward float64
	// Error is err_tg (Eq. 9).
	Error float64
}

// ErrorFloor regularises Eq. 7: a null error would make l_val unbounded,
// letting one lucky perfect-fit group (often a singleton) dominate every
// remembered experience regardless of its reward. Flooring the error keeps
// the reward term — the paper's performance signal — commensurate with the
// energy-fit term. Typical err_tg values in this system are 0.3-1.5, so
// the floor binds only near-perfect fits.
const ErrorFloor = 0.25

// LVal computes Eq. 7, l_val = reward/error, with the error floored at
// ErrorFloor (infinite or NaN errors yield zero value).
func (e Experience) LVal() float64 {
	err := e.Error
	if math.IsInf(err, 1) || math.IsNaN(err) {
		return 0
	}
	if err < ErrorFloor {
		err = ErrorFloor
	}
	return e.Reward / err
}

// Shared is the shared learning memory: a bounded ring of experiences per
// agent, plus cheap aggregate counters. Every scan walks rings in
// ascending agent-ID order, so no result depends on map iteration order;
// byID serves only Record and ForAgent.
type Shared struct {
	capacity int
	rings    []*ring
	byID     map[int]*ring
	total    uint64
	// lookups/hits count Best/BestFor calls and how many found an
	// experience — the shared-memory hit rate probes report.
	lookups uint64
	hits    uint64
	// evictions counts experiences dropped by the per-agent bound, so
	// occupancy (total − evictions) and eviction pressure are visible in
	// run stats and /metrics without walking the rings.
	evictions uint64
}

// ring is one agent's retained experiences, oldest first, with each
// entry's LVal cached in lvals and their maximum (NaNs ignored) in max:
// the bounds that let lookups skip rings and entries that cannot win.
type ring struct {
	id    int
	exps  []Experience
	lvals []float64
	max   float64
}

// NewShared creates a memory with the paper's per-agent capacity.
func NewShared() *Shared { return NewSharedWithCapacity(CapacityPerAgent) }

// NewSharedWithCapacity allows tests and ablations to vary the bound.
// Capacity must be positive.
func NewSharedWithCapacity(capacity int) *Shared {
	if capacity <= 0 {
		panic(fmt.Sprintf("memory: capacity must be positive, got %d", capacity))
	}
	return &Shared{capacity: capacity, byID: make(map[int]*ring)}
}

// Record stores an experience, evicting the agent's oldest entry when the
// per-agent bound is reached. An agent's ring is allocated at full
// capacity on its first record, so later records allocate nothing.
func (m *Shared) Record(e Experience) {
	r := m.byID[e.AgentID]
	if r == nil {
		r = &ring{
			id:    e.AgentID,
			exps:  make([]Experience, 0, m.capacity),
			lvals: make([]float64, 0, m.capacity),
		}
		i, _ := slices.BinarySearchFunc(m.rings, r.id, func(r *ring, id int) int { return cmp.Compare(r.id, id) })
		m.rings = slices.Insert(m.rings, i, r)
		m.byID[r.id] = r
	}
	if n := len(r.exps); n >= m.capacity {
		copy(r.exps, r.exps[1:])
		copy(r.lvals, r.lvals[1:])
		r.exps, r.lvals = r.exps[:n-1], r.lvals[:n-1]
		m.evictions++
	}
	r.exps = append(r.exps, e)
	r.lvals = append(r.lvals, e.LVal())
	r.max = math.Inf(-1)
	for _, v := range r.lvals {
		if v > r.max {
			r.max = v
		}
	}
	m.total++
}

// TotalRecorded returns the lifetime count of recorded experiences
// (including evicted ones) — the basis for shared exploration decay: the
// more collective experience exists, the less the agents explore.
func (m *Shared) TotalRecorded() uint64 { return m.total }

// Agents returns the number of agents that have recorded at least once.
func (m *Shared) Agents() int { return len(m.rings) }

// ForAgent returns the retained experiences of one agent, oldest first.
// The returned slice is the internal ring; callers must not mutate it.
func (m *Shared) ForAgent(id int) []Experience {
	if r := m.byID[id]; r != nil {
		return r.exps
	}
	return nil
}

// Best returns the retained experience with the maximum learning value
// across all agents — the lookup the paper prescribes when an agent's
// reward regresses ("the agent immediately checks and learns the actions
// from the shared-learning memory — considering the action with the
// maximum learning value", §IV.C). ok is false when the memory is empty.
// Among exactly tied values the lowest agent ID wins, then that agent's
// oldest entry.
func (m *Shared) Best() (Experience, bool) {
	var best *Experience
	bestV := math.Inf(-1)
	for _, r := range m.rings {
		// A ring whose maximum l_val cannot strictly beat the running
		// best holds no winner (selection uses strict >), so skip it.
		if best != nil && r.max <= bestV {
			continue
		}
		for i, v := range r.lvals {
			if v > bestV || (best == nil && v == bestV) {
				best, bestV = &r.exps[i], v
			}
		}
	}
	return m.settle(best)
}

// BestFor returns the experience maximising similarity-weighted learning
// value for the given state: sim(state)·l_val. This lets agents prefer
// remembered actions taken under circumstances like the present one.
// Among exactly tied scores the lowest agent ID wins, then that agent's
// oldest entry.
func (m *Shared) BestFor(s State) (Experience, bool) {
	var best *Experience
	bestV := math.Inf(-1)
	for _, r := range m.rings {
		// Similarity lies in (0, 1], so sim·l_val is bounded above by
		// the ring's maximum l_val when positive and by 0 otherwise;
		// rings that cannot strictly beat the running best are skipped
		// without evaluating a single similarity.
		if best != nil && max(r.max, 0) <= bestV {
			continue
		}
		for i, lv := range r.lvals {
			// The ring bound, per entry.
			if best != nil && max(lv, 0) <= bestV {
				continue
			}
			d := r.exps[i].State.distance(s)
			// Now lv > bestV, and once bestV > 0 the entry wins only if
			// e^-d·lv > bestV. As e^d >= p = (1+d/32)^32, an entry with
			// p >= (lv/bestV)(1+1e-9) scores at most bestV(1−1e-9)
			// exactly; computing p, the quotient, Exp and the product
			// errs by under 1e-14 relative, so its computed score cannot
			// beat bestV either and Exp is skipped. A p that overflows
			// means Exp(-d) is 0: the score is 0 or NaN and cannot win.
			if bestV > 0 {
				p := 1 + d/32
				for range 5 {
					p *= p
				}
				if p >= lv/bestV*(1+1e-9) {
					continue
				}
			}
			if v := math.Exp(-d) * lv; v > bestV || (best == nil && v == bestV) {
				best, bestV = &r.exps[i], v
			}
		}
	}
	return m.settle(best)
}

// settle counts a lookup and returns its winner, if any.
func (m *Shared) settle(best *Experience) (Experience, bool) {
	m.lookups++
	if best == nil {
		return Experience{}, false
	}
	m.hits++
	return *best, true
}

// Candidate is one retained experience scored against a query state —
// the decision-audit view of a BestFor scan. Score is the selection
// criterion sim(state)·l_val; Similarity and LVal are its factors.
type Candidate struct {
	AgentID    int     `json:"agent"`
	Cycle      int     `json:"cycle"`
	Action     Action  `json:"action"`
	Similarity float64 `json:"similarity"`
	LVal       float64 `json:"lval"`
	Score      float64 `json:"score"`
}

// TopFor returns the k highest-scoring candidates for the given state,
// best first, appended to out (which may be nil). Ties are broken by
// (AgentID, Cycle), the order Best and BestFor scan in, so the result
// is deterministic. TopFor is an audit-only observation: it does not
// touch the lookup/hit counters, and it never prunes, so it may see
// candidates a pruned BestFor scan skipped — but the top entry always
// scores at least as high as BestFor's winner.
func (m *Shared) TopFor(s State, k int, out []Candidate) []Candidate {
	if k <= 0 {
		return out
	}
	base := len(out)
	better := func(a, b Candidate) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.AgentID != b.AgentID {
			return a.AgentID < b.AgentID
		}
		return a.Cycle < b.Cycle
	}
	for _, r := range m.rings {
		for i, e := range r.exps {
			c := Candidate{
				AgentID:    r.id,
				Cycle:      e.Cycle,
				Action:     e.Action,
				Similarity: e.State.Similarity(s),
				LVal:       r.lvals[i],
			}
			c.Score = c.Similarity * c.LVal
			if math.IsNaN(c.Score) {
				continue
			}
			if len(out)-base == k && !better(c, out[len(out)-1]) {
				continue
			}
			// Insertion sort into the bounded tail; k is small.
			pos := len(out)
			for pos > base && better(c, out[pos-1]) {
				pos--
			}
			if len(out)-base < k {
				out = append(out, Candidate{})
			}
			copy(out[pos+1:], out[pos:])
			out[pos] = c
		}
	}
	return out
}

// meanField averages one Experience field over retained experiences,
// skipping non-finite values (an unmeasurable turnaround estimate
// records an infinite error) so the mean stays representable in JSON.
// It sums in ring order: floating-point addition is not associative.
func (m *Shared) meanField(get func(Experience) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range m.rings {
		for _, e := range r.exps {
			v := get(e)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanReward returns the average reward over retained experiences
// (0 when empty) — the learning-progress signal probes sample.
func (m *Shared) MeanReward() float64 {
	return m.meanField(func(e Experience) float64 { return e.Reward })
}

// MeanError returns the average turnaround-estimate error over retained
// experiences (0 when empty).
func (m *Shared) MeanError() float64 {
	return m.meanField(func(e Experience) float64 { return e.Error })
}

// Lookups returns the lifetime Best/BestFor call count.
func (m *Shared) Lookups() uint64 { return m.lookups }

// Hits returns how many Best/BestFor calls found an experience.
func (m *Shared) Hits() uint64 { return m.hits }

// Evictions returns the lifetime count of experiences dropped by the
// per-agent capacity bound.
func (m *Shared) Evictions() uint64 { return m.evictions }

// Occupancy returns the number of currently retained experiences,
// derived from the lifetime counters (every recorded experience is
// either retained or was evicted) so it costs O(1).
func (m *Shared) Occupancy() uint64 { return m.total - m.evictions }

// HitRate returns the fraction of Best/BestFor lookups that found an
// experience (0 before the first lookup).
func (m *Shared) HitRate() float64 {
	if m.lookups == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.lookups)
}
