package memory

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rlsched/internal/grouping"
)

func exp(agent, cycle int, reward, errv float64) Experience {
	return Experience{
		AgentID: agent, Cycle: cycle, Reward: reward, Error: errv,
		Action: Action{Opnum: cycle%5 + 1, Mode: grouping.ModeMixed},
	}
}

func TestCapacityEviction(t *testing.T) {
	m := NewShared()
	for i := 0; i < 40; i++ {
		m.Record(exp(1, i, float64(i), 1))
	}
	ring := m.ForAgent(1)
	if len(ring) != CapacityPerAgent {
		t.Fatalf("retained %d experiences, want %d", len(ring), CapacityPerAgent)
	}
	if ring[0].Cycle != 40-CapacityPerAgent {
		t.Fatalf("oldest retained cycle %d, want %d", ring[0].Cycle, 40-CapacityPerAgent)
	}
	if ring[len(ring)-1].Cycle != 39 {
		t.Fatalf("newest retained cycle %d, want 39", ring[len(ring)-1].Cycle)
	}
	if m.TotalRecorded() != 40 {
		t.Fatalf("TotalRecorded %d, want 40", m.TotalRecorded())
	}
	if m.Occupancy() != CapacityPerAgent {
		t.Fatalf("Occupancy %d, want %d", m.Occupancy(), CapacityPerAgent)
	}
}

func TestPerAgentIsolation(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 5, 1))
	m.Record(exp(2, 0, 7, 1))
	if len(m.ForAgent(1)) != 1 || len(m.ForAgent(2)) != 1 {
		t.Fatal("agents should have one experience each")
	}
	if m.Agents() != 2 {
		t.Fatalf("Agents = %d, want 2", m.Agents())
	}
}

// TestBestAcrossAgents: with every state equal to the query, similarity
// is 1 and BestFor picks the maximum l_val across agents.
func TestBestAcrossAgents(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 5, 1))  // l_val 5
	m.Record(exp(2, 0, 9, 1))  // l_val 9 <- best
	m.Record(exp(3, 0, 20, 4)) // l_val 5
	best, ok := m.BestFor(State{})
	if !ok || best.AgentID != 2 {
		t.Fatalf("BestFor = agent %d (ok=%v), want agent 2", best.AgentID, ok)
	}
}

func TestBestEmpty(t *testing.T) {
	m := NewShared()
	if _, ok := m.BestFor(State{}); ok {
		t.Fatal("empty memory must report no BestFor")
	}
}

func TestLValEq7(t *testing.T) {
	e := Experience{Reward: 6, Error: 2}
	if got := e.LVal(); got != 3 {
		t.Fatalf("LVal = %g, want 3", got)
	}
}

func TestLValNullErrorFloored(t *testing.T) {
	perfect := Experience{Reward: 4, Error: 0}
	imperfect := Experience{Reward: 4, Error: 0.5}
	if perfect.LVal() <= imperfect.LVal() {
		t.Fatal("null error must dominate any imperfect fit at equal reward")
	}
	if math.IsInf(perfect.LVal(), 1) {
		t.Fatal("LVal must stay finite")
	}
}

func TestLValInfiniteErrorIsWorthless(t *testing.T) {
	e := Experience{Reward: 10, Error: math.Inf(1)}
	if e.LVal() != 0 {
		t.Fatalf("infinite error should zero the learning value, got %g", e.LVal())
	}
}

func TestBestForPrefersSimilarStates(t *testing.T) {
	m := NewShared()
	near := exp(1, 0, 5, 1)
	near.State = State{Load: 10, FreeSlots: 2, MeanPower: 60, SiteLoad: 30}
	far := exp(2, 0, 6, 1) // slightly higher l_val but dissimilar state
	far.State = State{Load: 1000, FreeSlots: 0, MeanPower: 95, SiteLoad: 5000}
	m.Record(near)
	m.Record(far)
	query := State{Load: 11, FreeSlots: 2, MeanPower: 61, SiteLoad: 31}
	best, ok := m.BestFor(query)
	if !ok || best.AgentID != 1 {
		t.Fatalf("BestFor chose agent %d, want the similar-state agent 1", best.AgentID)
	}
}

func TestSimilarityProperties(t *testing.T) {
	a := State{Load: 5, FreeSlots: 3, MeanPower: 70, SiteLoad: 20}
	if s := a.Similarity(a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self-similarity %g, want 1", s)
	}
	b := State{Load: 500, FreeSlots: 0, MeanPower: 95, SiteLoad: 2000}
	if a.Similarity(b) >= a.Similarity(a) {
		t.Fatal("dissimilar state must score below identical state")
	}
	if a.Similarity(b) <= 0 {
		t.Fatal("similarity must stay positive")
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	a := State{Load: 5, FreeSlots: 3, MeanPower: 70, SiteLoad: 20}
	b := State{Load: 8, FreeSlots: 1, MeanPower: 50, SiteLoad: 90}
	if math.Abs(a.Similarity(b)-b.Similarity(a)) > 1e-12 {
		t.Fatal("similarity not symmetric")
	}
}

func TestCustomCapacity(t *testing.T) {
	m := NewSharedWithCapacity(2)
	for i := 0; i < 5; i++ {
		m.Record(exp(1, i, 1, 1))
	}
	if m.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d, want 2", m.Occupancy())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	NewSharedWithCapacity(0)
}

// Property: the per-agent bound holds for any recording sequence, and the
// retained entries are always the most recent ones in order.
func TestQuickBoundAndRecency(t *testing.T) {
	f := func(agents []uint8) bool {
		m := NewShared()
		counts := map[int]int{}
		for _, a := range agents {
			id := int(a % 4)
			m.Record(exp(id, counts[id], 1, 1))
			counts[id]++
		}
		for id, total := range counts {
			ring := m.ForAgent(id)
			if len(ring) > CapacityPerAgent {
				return false
			}
			wantFirst := total - len(ring)
			for k, e := range ring {
				if e.Cycle != wantFirst+k {
					return false
				}
			}
		}
		return m.TotalRecorded() == uint64(len(agents))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: with every state equal to the query, BestFor returns the
// maximum l_val over retained entries.
func TestQuickBestIsMax(t *testing.T) {
	f := func(rewards []uint8) bool {
		if len(rewards) == 0 {
			return true
		}
		m := NewShared()
		maxV := math.Inf(-1)
		for i, r := range rewards {
			e := exp(i%3, i, float64(r), 1)
			m.Record(e)
		}
		// Recompute max over what is retained.
		for id := 0; id < 3; id++ {
			for _, e := range m.ForAgent(id) {
				if e.LVal() > maxV {
					maxV = e.LVal()
				}
			}
		}
		best, ok := m.BestFor(State{})
		return ok && best.LVal() == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordAndBestFor(b *testing.B) {
	m := NewShared()
	for i := 0; i < b.N; i++ {
		m.Record(exp(i%8, i, float64(i%17), float64(i%5)+0.1))
		if i%10 == 0 {
			m.BestFor(State{})
		}
	}
}

func TestLookupCounters(t *testing.T) {
	m := NewShared()
	if m.Lookups() != 0 || m.HitRate() != 0 {
		t.Fatal("fresh memory should report zero lookups and hit rate")
	}
	m.BestFor(State{})        // miss: empty
	m.BestFor(State{Load: 1}) // miss: empty
	m.Record(exp(1, 0, 5, 1))
	m.BestFor(State{})        // hit
	m.BestFor(State{Load: 1}) // hit
	if m.Lookups() != 4 {
		t.Fatalf("Lookups = %d, want 4", m.Lookups())
	}
	if got := m.HitRate(); got != 0.5 {
		t.Fatalf("HitRate = %g, want 0.5", got)
	}
}

func TestMeanRewardAndError(t *testing.T) {
	m := NewShared()
	if m.MeanReward() != 0 || m.MeanError() != 0 {
		t.Fatal("empty memory means should be 0")
	}
	m.Record(exp(1, 0, 2, 1))
	m.Record(exp(1, 1, 4, 3))
	if got := m.MeanReward(); got != 3 {
		t.Fatalf("MeanReward = %g, want 3", got)
	}
	if got := m.MeanError(); got != 2 {
		t.Fatalf("MeanError = %g, want 2", got)
	}
}

// TestMeanSkipsNonFinite pins the probe-facing contract: a null-error
// experience stores Error = +Inf (see LVal), and the mean must stay
// finite — and JSON-marshalable — regardless.
func TestMeanSkipsNonFinite(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 2, math.Inf(1)))
	m.Record(exp(1, 1, 4, 6))
	if got := m.MeanError(); got != 6 {
		t.Fatalf("MeanError = %g, want 6 (the +Inf experience skipped)", got)
	}
	m2 := NewShared()
	m2.Record(exp(1, 0, 1, math.Inf(1)))
	if got := m2.MeanError(); got != 0 || math.IsInf(got, 0) {
		t.Fatalf("all-Inf MeanError = %g, want finite 0", got)
	}
}

// TestMeanSumsInAgentOrder pins the determinism of the probe-facing
// means: the float sum of the rewards below depends on the order of
// addition (cancelling the two large terms first leaves 1), so a
// map-ordered sum would drift between calls. Summed in agent-ID order
// (1e16 + 1 rounds to 1e16, then -1e16) the mean is exactly 0.
func TestMeanSumsInAgentOrder(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 1e16, 1))
	m.Record(exp(2, 0, 1, 1))
	m.Record(exp(3, 0, -1e16, 1))
	for i := 0; i < 50; i++ {
		if got := m.MeanReward(); got != 0 {
			t.Fatalf("call %d: MeanReward = %g, want 0 (agent-ID order)", i, got)
		}
	}
}

// bruteBestFor is the unpruned reference scan, in ascending agent ID
// below agents and oldest entry first; the pruned BestFor must select the
// identical experience, ties included.
func bruteBestFor(m *Shared, s State, agents int) (Experience, float64, bool) {
	var best Experience
	bestV := math.Inf(-1)
	found := false
	for id := 0; id < agents; id++ {
		for _, e := range m.ForAgent(id) {
			if v := e.State.Similarity(s) * e.LVal(); v > bestV || (!found && v == bestV) {
				best, bestV, found = e, v, true
			}
		}
	}
	return best, bestV, found
}

// checkLookups fails unless BestFor(q) picks the same entry — identified
// by agent and cycle, so NaN fields compare — as the brute-force scan
// over agent IDs below agents.
func checkLookups(t *testing.T, m *Shared, q State, agents int, step string) {
	t.Helper()
	wantE, wantV, wantOK := bruteBestFor(m, q, agents)
	gotE, gotOK := m.BestFor(q)
	if gotOK != wantOK || gotOK && (gotE.AgentID != wantE.AgentID || gotE.Cycle != wantE.Cycle) {
		t.Fatalf("%s: BestFor = %+v (%v), brute force %+v (%v, v=%g)", step, gotE, gotOK, wantE, wantOK, wantV)
	}
}

// slotAhead reports whether slot a precedes slot b within a ring: l_val
// descending, NaNs last, equal l_vals (and NaNs) oldest first.
func slotAhead(a, b slot) bool {
	aNaN, bNaN := math.IsNaN(a.lval), math.IsNaN(b.lval)
	switch {
	case aNaN != bNaN:
		return bNaN
	case aNaN || a.lval == b.lval:
		return a.seq < b.seq
	}
	return a.lval > b.lval
}

// checkOrder fails unless the best-first orders hold: every ring appears
// once in m.order, at the index it records, sorted by cached maximum
// l_val descending and then agent ID ascending; each ring's slots are one
// per record, sorted by slotAhead, each caching its experience's LVal;
// and each cached maximum is the maximum of the ring's l_vals, NaNs
// ignored.
func checkOrder(t *testing.T, m *Shared, step string) {
	t.Helper()
	n := 0
	for r := m.lowest; r != nil; r = r.next {
		if r.next != nil && r.next.id <= r.id {
			t.Fatalf("%s: agent %d followed by agent %d in ID order", step, r.id, r.next.id)
		}
		n++
	}
	if len(m.order) != n {
		t.Fatalf("%s: %d rings in best-first order, %d by ID", step, len(m.order), n)
	}
	for i, r := range m.order {
		if r.pos != i || m.byID[r.id] != r {
			t.Fatalf("%s: ring %d at order index %d records pos %d", step, r.id, i, r.pos)
		}
		if i > 0 && !ahead(m.order[i-1], r) {
			p := m.order[i-1]
			t.Fatalf("%s: order index %d (agent %d, max %g) before agent %d (max %g)", step, i-1, p.id, p.max, r.id, r.max)
		}
		if len(r.slots) != len(r.recs) {
			t.Fatalf("%s: agent %d has %d slots for %d records", step, r.id, len(r.slots), len(r.recs))
		}
		first := r.first()
		seen := make([]bool, len(r.recs))
		for k, sl := range r.slots {
			if k > 0 && !slotAhead(r.slots[k-1], sl) {
				t.Fatalf("%s: agent %d slot %d %+v before slot %+v", step, r.id, k-1, r.slots[k-1], sl)
			}
			j := sl.seq - first
			if sl.seq < first || j >= uint64(len(r.recs)) || seen[j] {
				t.Fatalf("%s: agent %d slot %d has seq %d, retained seqs start at %d", step, r.id, k, sl.seq, first)
			}
			seen[j] = true
		}
		exps := m.ForAgent(r.id)
		for k := range r.slots {
			sl := &r.slots[k]
			if lv := exps[sl.seq-first].LVal(); math.Float64bits(sl.lval) != math.Float64bits(lv) {
				t.Fatalf("%s: agent %d slot %d caches l_val %g, its experience gives %g", step, r.id, k, sl.lval, lv)
			}
		}
		want := math.Inf(-1)
		for _, e := range exps {
			if lv := e.LVal(); lv > want {
				want = lv
			}
		}
		if r.max != want {
			t.Fatalf("%s: agent %d caches max %g, its l_vals give %g", step, r.id, r.max, want)
		}
	}
}

// TestPrunedLookupMatchesBruteForce pins the pruned BestFor against an
// exhaustive scan, and the best-first orders after every record,
// including negative and zero learning values, across many agents and
// evictions: first on tie-free data, then on data full of exact ties.
func TestPrunedLookupMatchesBruteForce(t *testing.T) {
	m := NewShared()
	// Deterministic pseudo-random fill: 60 agents, enough records per
	// agent to evict, rewards that produce negative, zero and positive
	// l_vals.
	next := uint64(12345)
	rnd := func() float64 {
		next = next*6364136223846793005 + 1442695040888963407
		return float64(next>>11) / float64(1<<53)
	}
	for i := 0; i < 2000; i++ {
		e := Experience{
			AgentID: int(rnd() * 60),
			Cycle:   i,
			// Continuous rewards spanning negatives keep l_vals exact-
			// tie-free, so this phase checks the pruning alone; the next
			// phase checks the tie order.
			Reward: rnd()*4 - 1,
			Error:  rnd()*2 + 0.1,
			State: State{
				Load: rnd() * 100, FreeSlots: rnd() * 10,
				MeanPower: rnd() * 300, SiteLoad: rnd() * 500,
			},
			Action: Action{Opnum: int(rnd()*5) + 1, Mode: grouping.ModeMixed},
		}
		m.Record(e)
		checkOrder(t, m, fmt.Sprintf("step %d", i))
		if i%50 != 0 {
			continue
		}
		q := State{Load: rnd() * 100, FreeSlots: rnd() * 10, MeanPower: rnd() * 300, SiteLoad: rnd() * 500}
		wantE, wantV, wantOK := bruteBestFor(m, q, 60)
		gotE, gotOK := m.BestFor(q)
		if gotOK != wantOK || gotE != wantE {
			t.Fatalf("step %d: BestFor = %+v (%v), brute force %+v (%v, v=%g)", i, gotE, gotOK, wantE, wantOK, wantV)
		}
	}

	// Tie-heavy phase: integer rewards, errors below ErrorFloor (so every
	// l_val is 4·reward) and states drawn from a pool of three, queried
	// with the same three, so equal scores across agents and within a
	// ring are the rule. Agents are recorded in a shuffled order so ring
	// creation order differs from ID order.
	m = NewShared()
	pool := []State{
		{Load: 10, FreeSlots: 2, MeanPower: 60, SiteLoad: 30},
		{Load: 12, FreeSlots: 1, MeanPower: 80, SiteLoad: 90},
		{Load: 400, MeanPower: 100, SiteLoad: 2000},
	}
	for i := 0; i < 2000; i++ {
		m.Record(Experience{
			AgentID: (int(rnd()*40) * 7) % 40,
			Cycle:   i,
			Reward:  float64(int(rnd()*5) - 1),
			Error:   rnd() * ErrorFloor,
			State:   pool[int(rnd()*3)],
		})
		checkOrder(t, m, fmt.Sprintf("tie step %d", i))
		if i%25 == 0 {
			checkLookups(t, m, pool[int(rnd()*3)], 40, fmt.Sprintf("tie step %d", i))
		}
	}
}

// TestRingOrder pins the best-first ring order in the two cases that
// move rings: equal maxima recorded in shuffled agent-ID order must line
// up by ascending ID, and evicting a ring's maximum must move that ring
// down past the rings it no longer beats. BestFor must still match the
// brute-force scan, whose ties go to the lowest ID.
func TestRingOrder(t *testing.T) {
	ids := func(m *Shared) []int {
		var out []int
		for _, r := range m.order {
			out = append(out, r.id)
		}
		return out
	}
	t.Run("equal maxima", func(t *testing.T) {
		m := NewShared()
		for k, a := range rand.New(rand.NewSource(7)).Perm(12) {
			// Agents 0-5 top out at l_val 8, agents 6-11 at 4.
			reward := 2.0
			if a < 6 {
				reward = 4
			}
			m.Record(exp(a, 0, reward, 0.5))
			m.Record(exp(a, 1, 1, 1))
			checkOrder(t, m, fmt.Sprintf("record %d", k))
			checkLookups(t, m, State{}, 12, fmt.Sprintf("record %d", k))
		}
		if got, want := fmt.Sprint(ids(m)), "[0 1 2 3 4 5 6 7 8 9 10 11]"; got != want {
			t.Fatalf("best-first order %s, want %s", got, want)
		}
		if e, _ := m.BestFor(State{}); e.AgentID != 0 || e.Cycle != 0 {
			t.Fatalf("BestFor under equal maxima chose agent %d cycle %d, want agent 0 cycle 0", e.AgentID, e.Cycle)
		}
	})
	t.Run("evicted maximum", func(t *testing.T) {
		m := NewSharedWithCapacity(3)
		m.Record(exp(0, 0, 9, 1)) // agent 0 leads with l_val 9
		m.Record(exp(1, 0, 5, 1))
		m.Record(exp(2, 0, 3, 1))
		m.Record(exp(0, 1, 1, 1))
		m.Record(exp(0, 2, 2, 1))
		if got, want := fmt.Sprint(ids(m)), "[0 1 2]"; got != want {
			t.Fatalf("order before eviction %s, want %s", got, want)
		}
		// The fourth record evicts agent 0's l_val 9, leaving max 2.
		m.Record(exp(0, 3, 1, 1))
		checkOrder(t, m, "after eviction")
		if got, want := fmt.Sprint(ids(m)), "[1 2 0]"; got != want {
			t.Fatalf("order after eviction %s, want %s", got, want)
		}
		checkLookups(t, m, State{}, 3, "after eviction")
		// Agent 3's infinite error makes its l_val 0; agent 4's NaN l_val
		// is ignored, so its max is −Inf and it sits last until a finite
		// record lifts it.
		m.Record(exp(3, 0, math.Inf(1), math.Inf(1)))
		m.Record(Experience{AgentID: 4, Reward: math.NaN(), Error: 1})
		checkOrder(t, m, "NaN ring")
		if got, want := fmt.Sprint(ids(m)), "[1 2 0 3 4]"; got != want {
			t.Fatalf("order with worthless rings %s, want %s", got, want)
		}
		m.Record(exp(4, 1, 6, 1))
		checkOrder(t, m, "NaN ring lifted")
		if got, want := fmt.Sprint(ids(m)), "[4 1 2 0 3]"; got != want {
			t.Fatalf("order after lifting agent 4 %s, want %s", got, want)
		}
		checkLookups(t, m, State{}, 5, "NaN ring lifted")
	})
}

// TestPrunedLookupTiesKeepValue: under exact ties the lowest agent ID
// wins, on every call, and the winning value is the true maximum.
func TestPrunedLookupTiesKeepValue(t *testing.T) {
	m := NewShared()
	for _, a := range rand.New(rand.NewSource(3)).Perm(50) {
		m.Record(exp(a, a, 3, 0.1)) // all floored to l_val 12
	}
	q := State{Load: 1}
	for i := 0; i < 20; i++ {
		e, ok := m.BestFor(q)
		if !ok {
			t.Fatal("BestFor found nothing")
		}
		if v := e.State.Similarity(q) * e.LVal(); math.Abs(v-12*State{}.Similarity(q)) > 1e-12 {
			t.Fatalf("BestFor tie value %g, want %g", v, 12*State{}.Similarity(q))
		}
		if e.AgentID != 0 {
			t.Fatalf("call %d: BestFor under ties chose agent %d, want 0", i, e.AgentID)
		}
	}
}

// TestBestForCutoffBoundary pins the exactness of BestFor's distance
// cutoff where it matters: candidates whose score e^-d·l_val lands within
// a few ulps of the running best (above, equal and below it), and
// candidates so far away that Exp(-d) underflows to 0.
func TestBestForCutoffBoundary(t *testing.T) {
	q := State{}
	for _, x := range []float64{0.001, 0.3, 0.7, 1} { // d = x² with Load x
		for _, lead := range []float64{1, 3.7, 1e-300, 1e300} {
			d := State{Load: x}.distance(q)
			m := NewShared()
			// Agent 0 sets the running best at distance 0: score = lead.
			m.Record(Experience{AgentID: 0, Reward: lead, Error: 1})
			// Agents 1..13 sit at distance d with l_vals stepping through
			// the ulps around lead/e^-d, so their computed scores fall
			// below, on and above lead.
			base := lead / math.Exp(-d)
			lv := base
			for k := 0; k < 6; k++ {
				lv = math.Nextafter(lv, 0)
			}
			for a := 1; a <= 13; a++ {
				m.Record(Experience{AgentID: a, Cycle: a, Reward: lv, Error: 1, State: State{Load: x}})
				lv = math.Nextafter(lv, math.Inf(1))
			}
			checkLookups(t, m, q, 15, fmt.Sprintf("x=%g lead=%g", x, lead))
			// Far entries: ±MaxFloat features make the distance +Inf, so
			// Exp(-d) is 0 whatever the l_val, and the near entries keep
			// the lead.
			far := State{Load: -math.MaxFloat64, SiteLoad: math.MaxFloat64}
			for a := 15; a < 20; a++ {
				m.Record(Experience{AgentID: a, Cycle: a, Reward: math.MaxFloat64 / 4, Error: 1, State: far})
			}
			m.Record(Experience{AgentID: 20, Cycle: 20, Reward: math.Inf(1), Error: 1, State: far})
			checkLookups(t, m, State{Load: math.MaxFloat64}, 21, fmt.Sprintf("far x=%g lead=%g", x, lead))
		}
	}
	// Only far entries: every score is 0 (or NaN for the infinite l_val),
	// so the tie goes to the lowest agent.
	m := NewShared()
	far := State{Load: math.MaxFloat64}
	m.Record(Experience{AgentID: 3, Reward: math.Inf(1), Error: 1, State: far})
	m.Record(Experience{AgentID: 5, Reward: 2, Error: 1, State: far})
	m.Record(Experience{AgentID: 4, Reward: 7, Error: 1, State: far})
	checkLookups(t, m, State{Load: -math.MaxFloat64}, 6, "only far")
	if e, _ := m.BestFor(State{Load: -math.MaxFloat64}); e.AgentID != 4 {
		t.Fatalf("only-far BestFor chose agent %d, want 4 (lowest finite l_val tie)", e.AgentID)
	}
}

// TestLookupsAllocFree pins that lookups, and records into an agent's
// full ring, allocate nothing.
func TestLookupsAllocFree(t *testing.T) {
	m := NewShared()
	for i := 0; i < 40*CapacityPerAgent; i++ {
		e := exp(i%40, i, float64(i%7), 0.3+float64(i%5)/4)
		e.State = State{Load: float64(i % 13), SiteLoad: float64(i % 29)}
		m.Record(e)
	}
	q := State{Load: 5, SiteLoad: 11}
	if n := testing.AllocsPerRun(100, func() { sinkExperience, _ = m.BestFor(q) }); n != 0 {
		t.Fatalf("BestFor allocates %g per call, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { m.Record(exp(i%40, i, 1, 1)); i++ }); n != 0 {
		t.Fatalf("Record into a full ring allocates %g per call, want 0", n)
	}
}

// fuzzValues are the special floats the fuzzer draws rewards, errors and
// state features from, besides plain byte values.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, ErrorFloor, 3, 1e-300, 1e300,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// FuzzBestForMatchesBruteForce decodes records and a query from bytes
// and checks BestFor against the brute-force scan, and the best-first
// ring order, after every record. Each record
// takes six bytes: agent, reward, error and three state bytes; the last
// bytes left over pick the query.
func FuzzBestForMatchesBruteForce(f *testing.F) {
	f.Add([]byte{0, 10, 4, 1, 2, 3, 1, 10, 4, 1, 2, 3, 2, 200, 13, 9, 9, 9, 7})
	f.Add([]byte{3, 251, 1, 0, 0, 0, 2, 251, 1, 0, 0, 0, 1, 251, 1, 0, 0, 0})
	f.Add([]byte{0, 252, 252, 250, 250, 250, 1, 5, 255, 253, 251, 0, 4, 4, 4})
	f.Add([]byte("shared learning memory, fuzzed"))
	// Only negative scores: the entry with the lower l_val wins, because
	// similarity shrinks a negative score towards 0.
	f.Add([]byte("1B00000A00000"))
	val := func(b byte) float64 {
		if i := 255 - int(b); i < len(fuzzValues) {
			return fuzzValues[i]
		}
		return float64(b%32) - 4
	}
	state := func(b []byte) State {
		return State{Load: val(b[0]), FreeSlots: val(b[1]) / 4, MeanPower: val(b[2]) * 10, SiteLoad: val(b[0] ^ b[2])}
	}
	const agents = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewSharedWithCapacity(4)
		for i := 0; len(data) >= 6; i++ {
			m.Record(Experience{
				AgentID: int(data[0] % agents), Cycle: i,
				Reward: val(data[1]), Error: val(data[2]) / 8,
				State: state(data[3:6]),
			})
			data = data[6:]
			checkOrder(t, m, fmt.Sprintf("record %d", i))
			q := State{}
			if len(data) >= 3 {
				q = state(data[:3])
			}
			checkLookups(t, m, q, agents, fmt.Sprintf("record %d", i))
		}
	})
}

// BenchmarkBestFor times one similarity-weighted lookup over full rings
// (15 entries per agent) at the paper's 5 sites, the scale workload's
// 250 and the large preset's 5,000, filled from a fixed seed with
// rewards and errors in the ranges real runs record, and queried with a
// rotating set of states.
func BenchmarkBestFor(b *testing.B) {
	for _, agents := range []int{5, 250, 5000} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(1))
			state := func() State {
				return State{
					Load: rnd.Float64() * 400, FreeSlots: float64(rnd.Intn(8)),
					MeanPower: 60 + rnd.Float64()*60, SiteLoad: rnd.Float64() * 2000,
				}
			}
			m := NewShared()
			for c := 0; c < CapacityPerAgent; c++ {
				for a := 0; a < agents; a++ {
					e := exp(a, c, float64(rnd.Intn(7)), 0.1+rnd.Float64()*1.4)
					e.State = state()
					m.Record(e)
				}
			}
			queries := make([]State, 64)
			for i := range queries {
				queries[i] = state()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkExperience, _ = m.BestFor(queries[i%len(queries)])
			}
		})
	}
}

var sinkExperience Experience
