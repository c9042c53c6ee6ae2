// Package audit implements the bounded, opt-in decision-audit recorder:
// the policy-introspection layer that makes the RL scheduling loop
// explainable. Each audited decision captures the simulation time, the
// acting agent, the observed memory.State, the chosen action, the
// explore-vs-exploit kind, the exploration rate in force, the top
// candidates a shared-memory scan would offer, and — once the group the
// action produced completes — the dual reward/error feedback.
//
// Retention follows the internal/probe discipline: decisions append
// until a bound, then every other retained decision is dropped and the
// keep-stride doubles, so memory stays O(cap) on multi-million-task
// runs while coverage stays uniform over the whole run. Every rewrite
// of history bumps an epoch counter so streaming consumers know to
// refetch. Learning curves (reward, TD-error, exploration ratio,
// shared-memory hit rate, exploration rate) are folded the same way
// probe series are: per-point means over a doubling sample stride.
//
// The recorder is strictly an observer: it draws no randomness and
// schedules no simulation events, so an audited run is byte-identical
// to an unaudited one, and a nil recorder costs a single branch per
// decision site.
package audit

import (
	"math"
	"sync"

	"rlsched/internal/memory"
	"rlsched/internal/probe"
)

// Decision kinds. Policies with introspection support (Adaptive-RL)
// annotate each choice; decisions from policies that do not annotate
// are recorded as KindPolicy.
const (
	// KindKeep marks a sticky decision: the grouping epoch had not ended,
	// so the action previously in force was kept without re-deciding.
	KindKeep = "keep"
	// KindExplore marks an ε-greedy trial (§IV.B).
	KindExplore = "explore"
	// KindExploit marks a best-believed choice: the network argmax, the
	// memory's best rewarded experience, or the default action.
	KindExploit = "exploit"
	// KindFallback marks the §IV.C reward-regression override: the action
	// came straight from the shared memory's entry with the highest
	// similarity-weighted l_val.
	KindFallback = "fallback"
	// KindPolicy marks a decision by a policy without audit annotations.
	KindPolicy = "policy"
)

// maxKindAgents bounds the per-agent kind counters that feed the
// rl_decisions_total{agent,kind} metric; agents beyond the bound fold
// into OverflowAgent so a 5000-site run cannot explode label
// cardinality.
const maxKindAgents = 32

// OverflowAgent is the pseudo agent ID aggregating decision counts of
// agents beyond the per-agent metric bound.
const OverflowAgent = -1

// Config bounds a Recorder. The zero value selects the defaults.
type Config struct {
	// MaxDecisions bounds the retained decision reservoir. Default 512,
	// clamped to at least 8 and rounded down to even so decimation
	// halves it exactly.
	MaxDecisions int
	// TopK is how many shared-memory candidates are captured per
	// decision. Default 3, capped at 16.
	TopK int
	// MaxPoints bounds each learning-curve series. Default 256, clamped
	// to at least 8 and even.
	MaxPoints int
	// MaxAgentSeries caps how many distinct agents get per-agent
	// reward/TD-error curves (the aggregate curves always exist).
	// Default 8.
	MaxAgentSeries int
}

func (c Config) withDefaults() Config {
	c.MaxDecisions = probe.ClampPoints(c.MaxDecisions, 512)
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.TopK > 16 {
		c.TopK = 16
	}
	c.MaxPoints = probe.ClampPoints(c.MaxPoints, 256)
	if c.MaxAgentSeries <= 0 {
		c.MaxAgentSeries = 8
	}
	return c
}

// Note is a policy's annotation of one choice, handed to the engine
// through the scheduling context. The zero Note (no annotation) records
// as KindPolicy.
type Note struct {
	// Kind is one of the Kind constants.
	Kind string
	// State is the observed state vector the action was conditioned on
	// (zero for sticky or unannotated decisions).
	State memory.State
	// Epsilon is the exploration rate in force at the decision.
	Epsilon float64
	// Candidates are the top-scored shared-memory candidates for State,
	// best first.
	Candidates []memory.Candidate
	// HitRate is the shared memory's cumulative lookup hit rate at the
	// decision (filled by the engine, not the policy).
	HitRate float64
}

// Decision is one retained audited decision.
type Decision struct {
	// Seq is the zero-based index of the decision in the run's full
	// decision stream (retained decisions keep their original Seq).
	Seq   uint64       `json:"seq"`
	T     float64      `json:"t"`
	Agent int          `json:"agent"`
	Kind  string       `json:"kind"`
	State memory.State `json:"state"`
	// Action is the grouping action chosen.
	Action memory.Action `json:"action"`
	// Epsilon is the exploration rate in force (0 for keep/policy kinds).
	Epsilon float64 `json:"epsilon"`
	// Candidates are the top shared-memory candidates at decision time.
	Candidates []memory.Candidate `json:"candidates,omitempty"`
	// Fed reports whether the dual feedback landed on this decision;
	// Reward, Error and FeedbackAt are meaningful only when it did.
	Fed        bool    `json:"fed"`
	Reward     float64 `json:"reward"`
	Error      float64 `json:"error"`
	FeedbackAt float64 `json:"feedback_at"`
}

// feedRef links an in-flight group to the decision that produced it.
type feedRef struct {
	agent int
	seq   uint64
}

// Recorder is the bounded decision-audit store. All methods are safe
// for concurrent use: the engine records single-threadedly, but the
// daemon snapshots live recorders from HTTP handlers.
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	total     uint64 // decisions observed (retained or not)
	stride    uint64 // a decision is retained when Seq % stride == 0
	decisions []Decision
	epoch     uint64 // bumped whenever retained history is rewritten

	kinds      map[string]uint64
	agentKinds map[int]map[string]uint64
	latest     map[int]uint64  // agent -> Seq of its latest decision
	open       map[int]feedRef // group ID -> decision awaiting feedback

	// curves are the learning curves in creation order, folded into the
	// same bounded reservoir probe series use.
	curves   []*probe.Reservoir
	curveIdx map[string]*probe.Reservoir
	// perAgent tracks which agents own per-agent curves (bounded by
	// MaxAgentSeries).
	perAgent map[int]bool

	decided  uint64 // re-decisions (explore/exploit/fallback)
	explored uint64
	fed      uint64
}

// NewRecorder creates a Recorder with the given bounds.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{
		cfg:        cfg.withDefaults(),
		stride:     1,
		kinds:      make(map[string]uint64),
		agentKinds: make(map[int]map[string]uint64),
		latest:     make(map[int]uint64),
		open:       make(map[int]feedRef),
		curveIdx:   make(map[string]*probe.Reservoir),
		perAgent:   make(map[int]bool),
	}
}

// CandidateBudget returns how many shared-memory candidates the policy
// should capture for the decision it is about to record: TopK when that
// decision lands on the reservoir's keep stride, 0 otherwise. Retained
// decisions always sit on the stride, so skipping the (linear) memory
// scan for off-stride decisions loses nothing from the log while
// removing most of the audit's per-decision cost on long runs.
func (r *Recorder) CandidateBudget() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total%r.stride != 0 {
		return 0
	}
	return r.cfg.TopK
}

// Decision records one scheduling decision. An empty note kind is
// recorded as KindPolicy (a policy without audit annotations).
func (r *Recorder) Decision(t float64, agent int, act memory.Action, note Note) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kind := note.Kind
	if kind == "" {
		kind = KindPolicy
	}
	seq := r.total
	r.total++
	r.kinds[kind]++
	r.bumpAgentKind(agent, kind)
	r.latest[agent] = seq

	if kind == KindExplore || kind == KindExploit || kind == KindFallback {
		r.decided++
		explored := 0.0
		if kind == KindExplore {
			r.explored++
			explored = 1
		}
		r.curveAdd("epsilon", "rl", "", t, note.Epsilon)
		r.curveAdd("exploration_ratio", "rl", "fraction", t, explored)
	}
	r.curveAdd("memory_hit_rate", "rl", "fraction", t, note.HitRate)

	if seq%r.stride == 0 {
		r.decisions = append(r.decisions, Decision{
			Seq: seq, T: t, Agent: agent, Kind: kind,
			State: note.State, Action: act,
			Epsilon: note.Epsilon, Candidates: note.Candidates,
		})
		if len(r.decisions) == r.cfg.MaxDecisions {
			r.decimate()
		}
	}
}

// decimate drops every other retained decision and doubles the keep
// stride. Retained Seqs are always exact multiples of the stride, so
// position i holds Seq i*stride — the invariant Feedback relies on.
func (r *Recorder) decimate() {
	half := len(r.decisions) / 2
	for i := 0; i < half; i++ {
		r.decisions[i] = r.decisions[2*i]
	}
	// Release the candidate slices of the dropped half.
	for i := half; i < len(r.decisions); i++ {
		r.decisions[i] = Decision{}
	}
	r.decisions = r.decisions[:half]
	r.stride *= 2
	r.epoch++
}

// Assigned links a freshly placed group to the acting agent's latest
// decision, so the group's eventual feedback lands on it.
func (r *Recorder) Assigned(agent, groupID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq, ok := r.latest[agent]; ok {
		r.open[groupID] = feedRef{agent: agent, seq: seq}
	}
}

// Feedback attributes a completed group's dual feedback to the decision
// that produced it (when that decision is still retained) and feeds the
// reward/TD-error learning curves.
func (r *Recorder) Feedback(groupID int, t, reward, errv float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.open[groupID]
	if !ok {
		return
	}
	delete(r.open, groupID)
	r.fed++
	r.curveAdd("reward", "rl", "", t, reward)
	if r.agentCurves(ref.agent) {
		r.curveAdd(agentSeries(ref.agent, "reward"), "rl", "", t, reward)
	}
	if !math.IsInf(errv, 0) && !math.IsNaN(errv) {
		r.curveAdd("td_error", "rl", "", t, errv)
		if r.agentCurves(ref.agent) {
			r.curveAdd(agentSeries(ref.agent, "td_error"), "rl", "", t, errv)
		}
	}
	if ref.seq%r.stride == 0 {
		i := int(ref.seq / r.stride)
		if i < len(r.decisions) && r.decisions[i].Seq == ref.seq {
			d := &r.decisions[i]
			d.Fed, d.Reward, d.Error, d.FeedbackAt = true, reward, errv, t
		}
	}
}

// agentSeries names a per-agent curve, e.g. "agent3.reward".
func agentSeries(agent int, metric string) string {
	// Small positive IDs dominate; build without fmt to keep the audited
	// hot path cheap.
	var buf [24]byte
	b := append(buf[:0], "agent"...)
	b = appendInt(b, agent)
	b = append(b, '.')
	b = append(b, metric...)
	return string(b)
}

// appendInt appends the decimal form of v (strconv.AppendInt without
// the import noise for negative overflow agents).
func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// agentCurves reports whether the agent owns per-agent curves, claiming
// a slot if the bound allows.
func (r *Recorder) agentCurves(agent int) bool {
	if r.perAgent[agent] {
		return true
	}
	if len(r.perAgent) >= r.cfg.MaxAgentSeries {
		return false
	}
	r.perAgent[agent] = true
	return true
}

// bumpAgentKind counts one decision for the rl_decisions_total metric,
// folding agents beyond the cardinality bound into OverflowAgent.
func (r *Recorder) bumpAgentKind(agent int, kind string) {
	kinds := r.agentKinds[agent]
	if kinds == nil {
		if len(r.agentKinds) >= maxKindAgents {
			agent = OverflowAgent
			kinds = r.agentKinds[agent]
		}
		if kinds == nil {
			kinds = make(map[string]uint64, 4)
			r.agentKinds[agent] = kinds
		}
	}
	kinds[kind]++
}

// curveAdd routes one sample into a (lazily created) curve.
func (r *Recorder) curveAdd(name, family, unit string, t, v float64) {
	c := r.curveIdx[name]
	if c == nil {
		c = probe.NewReservoir(name, family, unit, r.cfg.MaxPoints)
		r.curveIdx[name] = c
		r.curves = append(r.curves, c)
	}
	if c.Add(t, v) {
		r.epoch++
	}
}

// TotalDecisions returns the lifetime decision count, retained or not.
func (r *Recorder) TotalDecisions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// KindCounts returns a copy of the per-kind decision counters.
func (r *Recorder) KindCounts() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.kinds))
	for k, v := range r.kinds {
		out[k] = v
	}
	return out
}

// AgentKindCounts returns a copy of the per-agent per-kind counters;
// agents beyond the internal bound appear as OverflowAgent.
func (r *Recorder) AgentKindCounts() map[int]map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]map[string]uint64, len(r.agentKinds))
	for a, kinds := range r.agentKinds {
		m := make(map[string]uint64, len(kinds))
		for k, v := range kinds {
			m[k] = v
		}
		out[a] = m
	}
	return out
}

// Snapshot returns the recorder's current state as a wire Log plus the
// epoch it was taken at.
func (r *Recorder) Snapshot() (Log, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	log := Log{
		Total:   r.total,
		Stride:  r.stride,
		Fed:     r.fed,
		Kinds:   make(map[string]uint64, len(r.kinds)),
		Decided: r.decided,
	}
	if r.decided > 0 {
		log.ExplorationRatio = float64(r.explored) / float64(r.decided)
	}
	for k, v := range r.kinds {
		log.Kinds[k] = v
	}
	log.Decisions = make([]Decision, len(r.decisions))
	copy(log.Decisions, r.decisions)
	log.Retained = len(log.Decisions)
	log.Curves = make([]probe.Series, 0, len(r.curves))
	for _, c := range r.curves {
		log.Curves = append(log.Curves, c.Series())
	}
	return log, r.epoch
}
