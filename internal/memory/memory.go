// Package memory implements the shared long-term learning memory of
// §III.B/§IV.B: every site agent records its recent learning experiences
// (bounded to 15 learning cycles per agent) in a store visible to all
// agents, and agents consult each other's experiences — the action whose
// learning value l_val, weighted by how similar its recorded state is to
// the present one, is highest — to improve decisions.
//
// The store is single-threaded by design: the discrete-event simulation
// engine serialises all agent activity, so the "communication link between
// the shared-learning memory and all agents" (assumed contention-free at
// uniform speed in the paper) is a plain method call here. Lookups walk
// the agents best-first, by their highest retained l_val, and settle
// equal scores by agent ID, so equal scores resolve alike in every run.
package memory

import (
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

// distance is a squared Euclidean distance on normalised features,
// summed feature by feature in field order.
func (s State) distance(o State) float64 {
	d := 0.0
	d += sqDiff(s.Load, o.Load)
	d += sqDiff(s.FreeSlots, o.FreeSlots)
	d += sqDiff(s.MeanPower, o.MeanPower)
	d += sqDiff(s.SiteLoad, o.SiteLoad)
	return d
}

// sqDiff is one feature's squared difference, scaled by the larger
// magnitude but at least 1. The builtin max follows math.Max's NaN and
// ±Inf rules and inlines.
func sqDiff(a, b float64) float64 {
	scale := max(1, max(math.Abs(a), math.Abs(b)))
	diff := (a - b) / scale
	return diff * diff
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
// agent, plus cheap aggregate counters. The rings are kept in two orders:
// by ascending agent ID, a list from lowest that every aggregate walks so
// no result depends on map iteration order, and best-first in order,
// which BestFor walks. byID serves only Record and ForAgent.
type Shared struct {
	capacity int
	lowest   *ring
	// order holds the rings by cached maximum l_val, descending, ties by
	// ascending agent ID; each ring knows its index in pos.
	order []*ring
	byID  map[int]*ring
	total uint64
	// lookups/hits count BestFor calls and how many found an experience
	// — the shared-memory hit rate probes report.
	lookups uint64
	hits    uint64
	// evictions counts experiences dropped by the per-agent bound, so
	// occupancy (total − evictions) and eviction pressure are visible in
	// run stats and /metrics without walking the rings.
	evictions uint64
}

// slot is what a lookup reads of one retained experience: its state, its
// cached LVal and its age, stored contiguously so the scan reads nothing
// else.
type slot struct {
	state State
	lval  float64
	// seq numbers the ring's records from 0, so a lower seq is older.
	seq uint64
}

// record is the rest of a retained experience: the agent ID is the
// ring's and the state is in the slot, so neither is stored twice.
type record struct {
	cycle       int
	at          float64
	action      Action
	reward, err float64
}

// ring is one agent's retained experiences: records oldest first, and a
// slot per record sorted best-first, by l_val descending, equal l_vals
// oldest first, NaN l_vals last. max caches the first slot's l_val (−Inf
// when there is no number): with the slot order, the bounds that let
// lookups stop before rings and entries that cannot win.
type ring struct {
	id    int
	recs  []record
	slots []slot
	seq   uint64 // records so far; recs[i] has seq seq−len(recs)+i
	max   float64
	pos   int
	next  *ring // the ring with the next higher agent ID
}

// first is the seq of the ring's oldest retained record.
func (r *ring) first() uint64 { return r.seq - uint64(len(r.recs)) }

// experience reassembles the experience a slot stands for.
func (r *ring) experience(sl *slot) Experience {
	c := &r.recs[sl.seq-r.first()]
	return Experience{
		AgentID: r.id, Cycle: c.cycle, At: c.at, State: sl.state,
		Action: c.action, Reward: c.reward, Error: c.err,
	}
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
			recs:  make([]record, 0, m.capacity),
			slots: make([]slot, 0, m.capacity),
			pos:   len(m.order),
		}
		// Rings are created once per agent, so a linear walk to the
		// ring's place in ID order costs little.
		link := &m.lowest
		for *link != nil && (*link).id < r.id {
			link = &(*link).next
		}
		r.next, *link = *link, r
		m.order = append(m.order, r)
		m.byID[r.id] = r
	}
	if n := len(r.recs); n >= m.capacity {
		oldest := r.first()
		copy(r.recs, r.recs[1:])
		r.recs = r.recs[:n-1]
		for i := range r.slots {
			if r.slots[i].seq == oldest {
				r.slots = slices.Delete(r.slots, i, i+1)
				break
			}
		}
		m.evictions++
	}
	r.recs = append(r.recs, record{
		cycle: e.Cycle, at: e.At, action: e.Action, reward: e.Reward, err: e.Error,
	})
	// The new slot is the youngest: it goes after every slot with an
	// l_val at least as high, and a NaN goes last.
	sl := slot{state: e.State, lval: e.LVal(), seq: r.seq}
	r.seq++
	i := len(r.slots)
	for i > 0 && !math.IsNaN(sl.lval) && !(r.slots[i-1].lval >= sl.lval) {
		i--
	}
	r.slots = slices.Insert(r.slots, i, sl)
	r.max = r.slots[0].lval
	if math.IsNaN(r.max) {
		r.max = math.Inf(-1)
	}
	m.reorder(r)
	m.total++
}

// ahead reports whether ring a precedes ring b in best-first order.
func ahead(a, b *ring) bool {
	return a.max > b.max || a.max == b.max && a.id < b.id
}

// reorder moves r to its place in the best-first order by insertion; the
// other rings keep their relative order, so only r's neighbours shift.
func (m *Shared) reorder(r *ring) {
	i := r.pos
	for ; i > 0 && ahead(r, m.order[i-1]); i-- {
		m.order[i] = m.order[i-1]
		m.order[i].pos = i
	}
	for ; i+1 < len(m.order) && ahead(m.order[i+1], r); i++ {
		m.order[i] = m.order[i+1]
		m.order[i].pos = i
	}
	m.order[i], r.pos = r, i
}

// TotalRecorded returns the lifetime count of recorded experiences
// (including evicted ones) — the basis for shared exploration decay: the
// more collective experience exists, the less the agents explore.
func (m *Shared) TotalRecorded() uint64 { return m.total }

// Agents returns the number of agents that have recorded at least once.
func (m *Shared) Agents() int { return len(m.order) }

// ForAgent returns a copy of the retained experiences of one agent,
// oldest first.
func (m *Shared) ForAgent(id int) []Experience {
	r := m.byID[id]
	if r == nil {
		return nil
	}
	out := make([]Experience, len(r.recs))
	for i := range r.slots {
		sl := &r.slots[i]
		out[sl.seq-r.first()] = r.experience(sl)
	}
	return out
}

// BestFor returns the experience maximising similarity-weighted learning
// value for the given state: sim(state)·l_val. This lets agents prefer
// remembered actions taken under circumstances like the present one.
// Among exactly tied scores the lowest agent ID wins, then that agent's
// oldest entry.
func (m *Shared) BestFor(s State) (Experience, bool) {
	var best *ring
	var bestSlot *slot
	bestV := math.Inf(-1)
	for _, r := range m.order {
		// Similarity lies in [0, 1], so sim·l_val is bounded above by
		// the l_val when positive and by 0 otherwise. A ring whose bound
		// cannot beat the running best, or only tie it from a higher
		// agent ID, holds no winner. Once the best is positive neither
		// can any later ring: their maxima are no higher, and an equal
		// maximum comes with a higher ID.
		if best != nil {
			if b := max(r.max, 0); b < bestV || b == bestV && r.id > best.id {
				if bestV > 0 {
					break
				}
				continue
			}
		}
		for i := range r.slots {
			sl := &r.slots[i]
			lv := sl.lval
			// The same bound per entry. Slots run by l_val descending,
			// NaNs last, so an entry below the best (or NaN, which never
			// wins) ends the ring, and so does an equal bound in a ring
			// with a higher ID than the winner's. In the winner's own
			// ring an equal bound can still win the tie if it is older.
			if best != nil {
				b := max(lv, 0)
				if !(b >= bestV) || b == bestV && r.id > best.id {
					break
				}
				if b == bestV && r == best && sl.seq > bestSlot.seq {
					continue
				}
			}
			d := sl.state.distance(s)
			// Now lv >= bestV, and once bestV > 0 the entry wins only if
			// e^-d·lv >= bestV. As e^d >= p = (1+d/32)^32, an entry with
			// p >= (lv/bestV)(1+1e-9) scores at most bestV(1−1e-9)
			// exactly; computing p, the quotient, Exp and the product
			// errs by under 1e-14 relative, so its computed score cannot
			// reach bestV either and Exp is skipped. A p that overflows
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
			v := math.Exp(-d) * lv
			if v > bestV || v == bestV && (best == nil || r.id < best.id || r == best && sl.seq < bestSlot.seq) {
				best, bestSlot, bestV = r, sl, v
			}
		}
	}
	m.lookups++
	if best == nil {
		return Experience{}, false
	}
	m.hits++
	return best.experience(bestSlot), true
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
// (AgentID, Cycle), as BestFor breaks them, so the result is
// deterministic. TopFor is an audit-only observation: it does not
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
	// Each ring is scanned oldest first, as BestFor's ties resolve.
	byAge := make([]*slot, m.capacity)
	for r := m.lowest; r != nil; r = r.next {
		for i := range r.slots {
			byAge[r.slots[i].seq-r.first()] = &r.slots[i]
		}
		for j := range r.recs {
			sl := byAge[j]
			c := Candidate{
				AgentID:    r.id,
				Cycle:      r.recs[j].cycle,
				Action:     r.recs[j].action,
				Similarity: sl.state.Similarity(s),
				LVal:       sl.lval,
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

// meanField averages one field over retained experiences, skipping
// non-finite values (an unmeasurable turnaround estimate records an
// infinite error) so the mean stays representable in JSON. It sums in
// agent-ID order, oldest first: floating-point addition is not
// associative.
func (m *Shared) meanField(get func(*record) float64) float64 {
	sum, n := 0.0, 0
	for r := m.lowest; r != nil; r = r.next {
		for i := range r.recs {
			v := get(&r.recs[i])
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
	return m.meanField(func(c *record) float64 { return c.reward })
}

// MeanError returns the average turnaround-estimate error over retained
// experiences (0 when empty).
func (m *Shared) MeanError() float64 {
	return m.meanField(func(c *record) float64 { return c.err })
}

// Lookups returns the lifetime BestFor call count.
func (m *Shared) Lookups() uint64 { return m.lookups }

// Hits returns how many BestFor calls found an experience.
func (m *Shared) Hits() uint64 { return m.hits }

// Evictions returns the lifetime count of experiences dropped by the
// per-agent capacity bound.
func (m *Shared) Evictions() uint64 { return m.evictions }

// Occupancy returns the number of currently retained experiences,
// derived from the lifetime counters (every recorded experience is
// either retained or was evicted) so it costs O(1).
func (m *Shared) Occupancy() uint64 { return m.total - m.evictions }

// HitRate returns the fraction of BestFor lookups that found an
// experience (0 before the first lookup).
func (m *Shared) HitRate() float64 {
	if m.lookups == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.lookups)
}
