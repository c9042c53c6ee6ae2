package memory

import (
	"math"
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
	if m.Len() != CapacityPerAgent {
		t.Fatalf("Len %d, want %d", m.Len(), CapacityPerAgent)
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

func TestBestAcrossAgents(t *testing.T) {
	m := NewShared()
	m.Record(exp(1, 0, 5, 1))  // l_val 5
	m.Record(exp(2, 0, 9, 1))  // l_val 9 <- best
	m.Record(exp(3, 0, 20, 4)) // l_val 5
	best, ok := m.Best()
	if !ok || best.AgentID != 2 {
		t.Fatalf("Best = agent %d (ok=%v), want agent 2", best.AgentID, ok)
	}
}

func TestBestEmpty(t *testing.T) {
	m := NewShared()
	if _, ok := m.Best(); ok {
		t.Fatal("empty memory must report no best")
	}
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

func TestBestActionDefault(t *testing.T) {
	m := NewShared()
	def := Action{Opnum: 3, Mode: grouping.ModeIdentical}
	if got := m.BestAction(State{}, def); got != def {
		t.Fatalf("BestAction on empty memory = %+v, want default", got)
	}
	rec := exp(1, 0, 9, 1)
	rec.Action = Action{Opnum: 5, Mode: grouping.ModeMixed}
	m.Record(rec)
	if got := m.BestAction(State{}, def); got != rec.Action {
		t.Fatalf("BestAction = %+v, want %+v", got, rec.Action)
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

func TestMeanLVal(t *testing.T) {
	m := NewShared()
	if m.MeanLVal() != 0 {
		t.Fatal("empty memory mean l_val should be 0")
	}
	m.Record(exp(1, 0, 4, 1))
	m.Record(exp(1, 1, 8, 1))
	if got := m.MeanLVal(); got != 6 {
		t.Fatalf("MeanLVal = %g, want 6", got)
	}
}

func TestCustomCapacity(t *testing.T) {
	m := NewSharedWithCapacity(2)
	for i := 0; i < 5; i++ {
		m.Record(exp(1, i, 1, 1))
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	NewSharedWithCapacity(0)
}

func TestStateVectorLength(t *testing.T) {
	v := State{Load: 1, FreeSlots: 2, MeanPower: 3, SiteLoad: 4}.Vector()
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v", v)
		}
	}
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

// Property: Best always returns the maximum l_val over retained entries.
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
		best, ok := m.Best()
		return ok && best.LVal() == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordAndBest(b *testing.B) {
	m := NewShared()
	for i := 0; i < b.N; i++ {
		m.Record(exp(i%8, i, float64(i%17), float64(i%5)+0.1))
		if i%10 == 0 {
			m.Best()
		}
	}
}

func TestLookupCounters(t *testing.T) {
	m := NewShared()
	if m.Lookups() != 0 || m.HitRate() != 0 {
		t.Fatal("fresh memory should report zero lookups and hit rate")
	}
	m.Best()           // miss: empty
	m.BestFor(State{}) // miss: empty
	m.Record(exp(1, 0, 5, 1))
	m.Best()           // hit
	m.BestFor(State{}) // hit
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

// bruteBest and bruteBestFor are the unpruned reference scans; the
// pruned Best/BestFor must select the identical experience.
func bruteBest(m *Shared) (Experience, float64, bool) {
	var best Experience
	bestV := math.Inf(-1)
	found := false
	for id := 0; id < 1<<16; id++ {
		for _, e := range m.ForAgent(id) {
			if v := e.LVal(); v > bestV || (!found && v == bestV) {
				best, bestV, found = e, v, true
			}
		}
	}
	return best, bestV, found
}

func bruteBestFor(m *Shared, s State) (Experience, float64, bool) {
	var best Experience
	bestV := math.Inf(-1)
	found := false
	for id := 0; id < 1<<16; id++ {
		for _, e := range m.ForAgent(id) {
			if v := e.State.Similarity(s) * e.LVal(); v > bestV || (!found && v == bestV) {
				best, bestV, found = e, v, true
			}
		}
	}
	return best, bestV, found
}

// TestPrunedLookupMatchesBruteForce pins the ring-max pruning in
// Best/BestFor against exhaustive scans, including negative and zero
// learning values, across many agents and evictions.
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
			// tie-free: under a tie, which maximiser wins depends on map
			// iteration order (with or without pruning), so an entry-wise
			// comparison is only meaningful on tie-free data.
			Reward: rnd()*4 - 1,
			Error:  rnd()*2 + 0.1,
			State: State{
				Load: rnd() * 100, FreeSlots: rnd() * 10,
				MeanPower: rnd() * 300, SiteLoad: rnd() * 500,
			},
			Action: Action{Opnum: int(rnd()*5) + 1, Mode: grouping.ModeMixed},
		}
		m.Record(e)
		if i%50 != 0 {
			continue
		}
		wantE, wantV, wantOK := bruteBest(m)
		gotE, gotOK := m.Best()
		if gotOK != wantOK || gotE != wantE {
			t.Fatalf("step %d: Best = %+v (%v), brute force %+v (%v, v=%g)", i, gotE, gotOK, wantE, wantOK, wantV)
		}
		q := State{Load: rnd() * 100, FreeSlots: rnd() * 10, MeanPower: rnd() * 300, SiteLoad: rnd() * 500}
		wantE, wantV, wantOK = bruteBestFor(m, q)
		gotE, gotOK = m.BestFor(q)
		if gotOK != wantOK || gotE != wantE {
			t.Fatalf("step %d: BestFor = %+v (%v), brute force %+v (%v, v=%g)", i, gotE, gotOK, wantE, wantOK, wantV)
		}
	}
}

// TestPrunedLookupTiesKeepValue: under exact l_val ties the winning
// entry is iteration-order-dependent (it always was), but the winning
// value must still be the true maximum.
func TestPrunedLookupTiesKeepValue(t *testing.T) {
	m := NewShared()
	for a := 0; a < 50; a++ {
		m.Record(exp(a, a, 3, 0.1)) // all floored to l_val 12
	}
	e, ok := m.Best()
	if !ok || e.LVal() != 12 {
		t.Fatalf("Best under ties = %+v (%v), want l_val 12", e, ok)
	}
	q := State{Load: 1}
	e, ok = m.BestFor(q)
	if !ok {
		t.Fatal("BestFor found nothing")
	}
	if v := e.State.Similarity(q) * e.LVal(); math.Abs(v-12*State{}.Similarity(q)) > 1e-12 {
		t.Fatalf("BestFor tie value %g, want %g", v, 12*State{}.Similarity(q))
	}
}
