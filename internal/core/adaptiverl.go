// Package core implements Adaptive-RL, the paper's contribution (§IV): a
// reinforcement-learning scheduling agent per resource site that
//
//   - observes the state S_c(t) = (Load, q−, PP_1..m) of its compute nodes,
//   - acts by grouping newly arrived tasks (adaptive opnum + merge mode,
//     §IV.D.1) and placing each group on the node whose processing
//     capacity is most favourable (minimum err_tg, Eq. 9),
//   - learns from the dual feedback signals — reward (deadline hits,
//     Eq. 8) and error (group/capacity mismatch, Eq. 9) — combined into
//     the learning value l_val = reward/error (Eq. 7),
//   - shares its experiences through the bounded shared learning memory
//     (§III.B), which accelerates exploration decay for every agent, and
//   - falls back to the remembered action with maximum l_val whenever its
//     reward regresses (§IV.C).
//
// A small neural network (per the structure of [10]) approximates the
// expected learning value of candidate grouping actions under the current
// state and is trained online from completed-group feedback.
package core

import (
	"fmt"
	"math"

	"rlsched/internal/audit"
	"rlsched/internal/grouping"
	"rlsched/internal/memory"
	"rlsched/internal/neural"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Config exposes the Adaptive-RL hyper-parameters. The paper fixes none of
// them numerically; defaults are documented here and swept by the ablation
// benches.
type Config struct {
	// Epsilon0 is the initial exploration rate.
	Epsilon0 float64
	// ExplorationScale is the experience count at which exploration has
	// decayed to Epsilon0/e. Experience is counted across ALL agents when
	// UseSharedMemory is set — the mechanism behind the paper's "fast
	// learning process" claim (§V.B Exp 1).
	ExplorationScale float64
	// EpsilonFloor keeps a minimum amount of trial-and-error.
	EpsilonFloor float64
	// UseSharedMemory toggles the shared learning memory (ablation).
	UseSharedMemory bool
	// UseErrorFeedback toggles the err_tg signal; when false the agent
	// learns from reward alone (ablation of the dual-feedback design).
	UseErrorFeedback bool
	// UseNeuralNet toggles the l_val function approximator.
	UseNeuralNet bool
	// DefaultOpnum seeds the group size before any learning.
	DefaultOpnum int
	// MinTrainSamples gates NN exploitation until it has seen enough
	// feedback.
	MinTrainSamples int
	// ManageIdleSleep is an extension beyond the paper: when set, the
	// agent puts processors of work-less nodes into the platform's sleep
	// state (the engine wakes them on demand, paying the resume ramp).
	// Combined with a deep sleep level this trades response time for
	// idle energy — the [12] mechanism driven by the paper's scheduler.
	ManageIdleSleep bool
	// PreserveLearning is an extension beyond the paper: the policy keeps
	// its networks, shared memory and exploration decay across engine
	// runs, so one trained instance can be re-used on subsequent
	// workloads (transfer learning). The paper hints at this direction —
	// "the amount of time taken for learning reduces as the system
	// evolves" (§IV.B) — but evaluates fresh agents only.
	PreserveLearning bool
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Epsilon0:         1.0,
		ExplorationScale: 250,
		EpsilonFloor:     0.02,
		UseSharedMemory:  true,
		UseErrorFeedback: true,
		UseNeuralNet:     true,
		DefaultOpnum:     4,
		MinTrainSamples:  40,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Epsilon0 < 0 || c.Epsilon0 > 1:
		return fmt.Errorf("core: Epsilon0 %g out of [0,1]", c.Epsilon0)
	case c.ExplorationScale <= 0:
		return fmt.Errorf("core: ExplorationScale must be positive, got %g", c.ExplorationScale)
	case c.EpsilonFloor < 0 || c.EpsilonFloor > c.Epsilon0:
		return fmt.Errorf("core: EpsilonFloor %g out of [0, Epsilon0]", c.EpsilonFloor)
	case c.DefaultOpnum < 1:
		return fmt.Errorf("core: DefaultOpnum must be >= 1, got %d", c.DefaultOpnum)
	case c.MinTrainSamples < 0:
		return fmt.Errorf("core: MinTrainSamples must be >= 0, got %d", c.MinTrainSamples)
	}
	return nil
}

// agentState is the per-agent learning state.
type agentState struct {
	net *neural.Network
	// lastAction is the grouping action currently in force. The agent
	// commits to one action per group-formation epoch (re-deciding when a
	// group closes), so the merge buffers are not churned between modes
	// on every arrival.
	lastAction memory.Action
	// redecide marks that the current epoch ended (a group was formed)
	// and the next arrival should trigger a fresh action selection.
	redecide bool
	// useMemoryNext is the §IV.C reward-regression flag: when set, the
	// next action comes straight from the shared memory's max-l_val entry.
	useMemoryNext bool
	// ownExperience counts this agent's completed groups (exploration
	// basis when shared memory is disabled).
	ownExperience int
	// local memory used when sharing is disabled.
	local *memory.Shared
}

// groupCtx remembers what the agent knew when it acted, so feedback can be
// attributed correctly.
type groupCtx struct {
	state  memory.State
	action memory.Action
}

// AdaptiveRL implements sched.Policy.
type AdaptiveRL struct {
	cfg    Config
	agents map[int]*agentState
	groups map[int]groupCtx
	// ownShared is the policy-owned memory used when PreserveLearning is
	// set, surviving across engine runs.
	ownShared *memory.Shared
	// feature scratch buffer to avoid per-decision allocations.
	feat  []float64
	stats DebugStats
	// epsAt and eps memoise epsilon for one experience count: the count
	// moves once per learning cycle, epsilon is read on every decision.
	epsAt  float64
	eps    float64
	epsSet bool
}

// New creates an Adaptive-RL policy with the given configuration.
func New(cfg Config) (*AdaptiveRL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &AdaptiveRL{
		cfg:    cfg,
		agents: make(map[int]*agentState),
		groups: make(map[int]groupCtx),
		feat:   make([]float64, 6),
	}, nil
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config) *AdaptiveRL {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// NewDefault creates the policy with DefaultConfig.
func NewDefault() *AdaptiveRL { return MustNew(DefaultConfig()) }

// Name implements sched.Policy.
func (p *AdaptiveRL) Name() string { return "adaptive-rl" }

// Init implements sched.Policy.
func (p *AdaptiveRL) Init(ctx *sched.Context) {
	if p.cfg.PreserveLearning && p.ownShared == nil {
		p.ownShared = memory.NewShared()
	}
	for _, ag := range ctx.Agents() {
		if p.cfg.PreserveLearning {
			if _, ok := p.agents[ag.ID]; ok {
				continue // keep the trained state across runs
			}
		}
		st := &agentState{
			lastAction: memory.Action{Opnum: p.cfg.DefaultOpnum, Mode: grouping.ModeMixed},
			redecide:   true,
		}
		if p.cfg.UseNeuralNet {
			st.net = neural.MustNew(neural.DefaultConfig(len(p.feat)), ctx.Rand.Split(fmt.Sprintf("nn-%d", ag.ID)))
		}
		if !p.cfg.UseSharedMemory {
			st.local = memory.NewShared()
		}
		p.agents[ag.ID] = st
	}
}

// epsilon returns the current exploration rate for an agent. With shared
// memory the decay is driven by the collective experience of all agents;
// without it, each agent decays on its own (slower) clock.
func (p *AdaptiveRL) epsilon(ctx *sched.Context, st *agentState) float64 {
	var experience float64
	switch {
	case p.cfg.PreserveLearning:
		experience = float64(p.ownShared.TotalRecorded())
	case p.cfg.UseSharedMemory:
		experience = float64(ctx.Memory.TotalRecorded())
	default:
		experience = float64(st.ownExperience)
	}
	if !p.epsSet || experience != p.epsAt {
		eps := p.cfg.Epsilon0 * math.Exp(-experience/p.cfg.ExplorationScale)
		p.epsAt, p.eps, p.epsSet = experience, math.Max(p.cfg.EpsilonFloor, eps), true
	}
	return p.eps
}

// mem returns the memory the agent learns from: the policy-owned store
// when learning persists across runs, the engine's shared memory
// otherwise (or the agent's private one with sharing ablated).
func (p *AdaptiveRL) mem(ctx *sched.Context, st *agentState) *memory.Shared {
	switch {
	case p.cfg.PreserveLearning:
		return p.ownShared
	case p.cfg.UseSharedMemory:
		return ctx.Memory
	default:
		return st.local
	}
}

// siteState summarises the agent's site into a memory.State for action
// conditioning.
func siteState(ctx *sched.Context, ag *sched.Agent) memory.State {
	infos := ctx.SiteNodeInfos(ag.Site)
	var load, slots, power float64
	for _, ni := range infos {
		load += ni.QueuedWeight
		slots += float64(ni.FreeSlots)
		power += ni.MeanPower()
	}
	n := float64(len(infos))
	if n == 0 {
		return memory.State{}
	}
	return memory.State{
		Load:      load / n,
		FreeSlots: slots / n,
		MeanPower: power / n,
		SiteLoad:  load,
	}
}

// stateFeatures is how many leading network inputs encode the state; the
// action features follow them.
const stateFeatures = 4

// features encodes (state, action) for the network, roughly normalised.
func (p *AdaptiveRL) features(s memory.State, a memory.Action, maxOpnum int) []float64 {
	p.feat[0] = s.Load / 50
	p.feat[1] = s.FreeSlots / 8
	p.feat[2] = s.MeanPower / 95
	p.feat[3] = s.SiteLoad / 200
	p.actionFeatures(a, maxOpnum)
	return p.feat
}

// actionFeatures encodes the action into the feature buffer after the
// state features and returns that tail.
func (p *AdaptiveRL) actionFeatures(a memory.Action, maxOpnum int) []float64 {
	modeFlag := 0.0
	if a.Mode == grouping.ModeIdentical {
		modeFlag = 1
	}
	p.feat[stateFeatures] = float64(a.Opnum) / float64(maxOpnum)
	p.feat[stateFeatures+1] = modeFlag
	return p.feat[stateFeatures:]
}

// lvalTarget squashes an l_val into (0, 1) for stable regression.
func lvalTarget(lval float64) float64 { return lval / (1 + lval) }

// ChooseAction implements sched.Policy: the trial-and-error action
// selection of §IV.B, with the reward-regression override of §IV.C. The
// agent keeps the action in force for one group-formation epoch; §IV.B's
// "action" is the grouping of newly arriving tasks, not a per-task choice.
func (p *AdaptiveRL) ChooseAction(ctx *sched.Context, ag *sched.Agent, _ *workload.Task) sched.Action {
	st := p.agents[ag.ID]
	if !st.redecide && !st.useMemoryNext {
		if ctx.Audit != nil {
			ctx.SetAuditNote(audit.Note{Kind: audit.KindKeep})
		}
		return sched.Action{Opnum: st.lastAction.Opnum, Mode: st.lastAction.Mode}
	}
	st.redecide = false
	state := siteState(ctx, ag)
	maxOp := ctx.MaxOpnum()
	// Hoisted out of the case guard so the audit note can record it; the
	// computation draws no randomness, so hoisting keeps the run's RNG
	// draw sequence — and therefore its results — identical.
	eps := p.epsilon(ctx, st)

	var action memory.Action
	kind := audit.KindExploit
	switch {
	case st.useMemoryNext:
		// Reward regressed: adopt the remembered action with max l_val
		// (§IV.C); a memory with no rewarding experience yet teaches
		// nothing, so the agent then keeps its current action.
		st.useMemoryNext = false
		action = st.lastAction
		if e, ok := p.mem(ctx, st).BestFor(state); ok && e.LVal() > 0 {
			action = e.Action
		}
		p.stats.MemoryFallback++
		kind = audit.KindFallback
	case ctx.Rand.Bool(eps):
		// Explore. Half the trials perturb the current action locally
		// (opnum ±1) — cheap probes of the neighbourhood — and half jump
		// globally. The merge mode leans toward the mixed policy, which
		// the paper notes incurs no grouping delay (§IV.D.1);
		// identical-priority grouping is still tried.
		if ctx.Rand.Bool(0.5) {
			op := st.lastAction.Opnum + 1 - 2*ctx.Rand.Intn(2)
			if op < 1 {
				op = 1
			}
			if op > maxOp {
				op = maxOp
			}
			action = memory.Action{Opnum: op, Mode: st.lastAction.Mode}
		} else {
			action = memory.Action{
				Opnum: 1 + ctx.Rand.Intn(maxOp),
				Mode:  grouping.ModeMixed,
			}
			if ctx.Rand.Bool(0.15) {
				action.Mode = grouping.ModeIdentical
			}
		}
		p.stats.Explore++
		kind = audit.KindExplore
	default:
		action = p.exploit(ctx, st, state, maxOp)
		p.stats.Exploit++
	}
	if ctx.Audit != nil {
		note := audit.Note{Kind: kind, State: state, Epsilon: eps}
		// The budget is zero for decisions the reservoir will not retain,
		// sparing the linear memory scan on the vast majority of decisions
		// once the keep stride has grown.
		if k := ctx.Audit.CandidateBudget(); k > 0 {
			note.Candidates = p.mem(ctx, st).TopFor(state, k, nil)
		}
		ctx.SetAuditNote(note)
	}
	if action.Opnum < len(p.stats.OpnumChosen) {
		p.stats.OpnumChosen[action.Opnum]++
	}
	if action.Mode == grouping.ModeIdentical {
		p.stats.IdenticalChosen++
	}
	st.lastAction = action
	return sched.Action{Opnum: action.Opnum, Mode: action.Mode}
}

// exploit picks the best-believed action: the network's argmax over the
// candidate action grid when it is trained and discriminating, otherwise
// the memory's best rewarded experience, otherwise the default action.
// The gates matter: while the system has produced no rewarding feedback
// yet (e.g. during a congested warm-up every group misses its deadline),
// both the network surface and the memory are flat, and an argmax over
// noise would lock onto an arbitrary — typically degenerate — action.
func (p *AdaptiveRL) exploit(ctx *sched.Context, st *agentState, state memory.State, maxOp int) memory.Action {
	def := memory.Action{Opnum: p.cfg.DefaultOpnum, Mode: grouping.ModeMixed}
	if p.cfg.UseNeuralNet && st.net != nil && st.net.Trained() >= uint64(p.cfg.MinTrainSamples) {
		best := def
		bestV, minV := math.Inf(-1), math.Inf(1)
		// Every candidate shares the state features: the network sums them
		// once and each candidate adds only its action terms.
		st.net.SetPrefix(p.features(state, def, maxOp)[:stateFeatures])
		for op := 1; op <= maxOp; op++ {
			for _, mode := range [...]grouping.Mode{grouping.ModeMixed, grouping.ModeIdentical} {
				a := memory.Action{Opnum: op, Mode: mode}
				v := st.net.PredictRest1(p.actionFeatures(a, maxOp))
				if v > bestV {
					best, bestV = a, v
				}
				if v < minV {
					minV = v
				}
			}
		}
		// Only trust a value surface that actually discriminates between
		// actions.
		if bestV-minV > 0.02 {
			return best
		}
	}
	if e, ok := p.mem(ctx, st).BestFor(state); ok && e.LVal() > 0 {
		return e.Action
	}
	return def
}

// PlaceGroup implements sched.Policy: ε-greedy over the minimum-err_tg
// node — the "most favorable resource" matching of §IV.D.1.
func (p *AdaptiveRL) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	st := p.agents[ag.ID]
	if ctx.Rand.Bool(p.epsilon(ctx, st)) {
		return candidates[ctx.Rand.Intn(len(candidates))].Node
	}
	return sched.BestFitNode(g, candidates)
}

// OnAssigned implements sched.Policy: records the acting context so the
// delayed reward can be attributed (§IV.C: the error arrives immediately,
// the reward only after the whole group completes).
func (p *AdaptiveRL) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, node *platform.Node) {
	st := p.agents[ag.ID]
	ni := ctx.NodeInfo(node)
	p.groups[g.ID] = groupCtx{
		state:  ni.MemoryState(ctx.SiteLoad(ag.Site)),
		action: st.lastAction,
	}
	// A group just formed and was placed: the epoch ends and the next
	// arrival re-decides the grouping action.
	st.redecide = true
}

// OnGroupComplete implements sched.Policy: folds the dual feedback into
// the learning value, trains the network, records the experience, and
// applies the reward-regression rule.
func (p *AdaptiveRL) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	st := p.agents[ag.ID]
	gctx, ok := p.groups[g.ID]
	if !ok {
		panic(fmt.Sprintf("core: completed group %d was never assigned", g.ID))
	}
	delete(p.groups, g.ID)

	errv := g.ErrTG
	if !p.cfg.UseErrorFeedback {
		// Reward-only ablation: treat every placement as a unit error so
		// l_val degenerates to the raw reward.
		errv = 1
	}
	exp := memory.Experience{
		AgentID: ag.ID,
		Cycle:   ag.Cycles,
		At:      ctx.Now(),
		State:   gctx.state,
		Action:  gctx.action,
		Reward:  float64(g.Reward()),
		Error:   errv,
	}
	p.mem(ctx, st).Record(exp)
	st.ownExperience++

	if p.cfg.UseNeuralNet && st.net != nil {
		p.trainNet(ctx, st, exp)
	}

	// §IV.C: if the reward decreased versus the previous action, consult
	// the shared memory for the max-l_val action next time.
	if float64(g.Reward()) < ag.LastReward {
		st.useMemoryNext = true
	}
}

// trainNet fits the network toward the observed (squashed) learning value.
func (p *AdaptiveRL) trainNet(ctx *sched.Context, st *agentState, exp memory.Experience) {
	x := p.features(exp.State, exp.Action, ctx.MaxOpnum())
	st.net.Train1(x, lvalTarget(exp.LVal()))
}

// OnProcessorIdle implements sched.Policy. The paper's Adaptive-RL keeps
// processors at p_min — its energy efficiency comes from matching and
// utilisation (§III.C). With the ManageIdleSleep extension enabled, the
// agent additionally sleeps processors of nodes that hold no work.
func (p *AdaptiveRL) OnProcessorIdle(ctx *sched.Context, proc *platform.Processor) {
	if !p.cfg.ManageIdleSleep {
		return
	}
	if ni := ctx.NodeInfo(proc.Node); ni.QueuedGroups == 0 {
		ctx.Sleep(proc)
	}
}

// OnTick implements sched.Policy.
func (p *AdaptiveRL) OnTick(*sched.Context) {}

// DebugStats reports action-selection counters for diagnostics and tests.
type DebugStats struct {
	Explore, Exploit, MemoryFallback int
	OpnumChosen                      [16]int
	IdenticalChosen                  int
}

// Stats returns a copy of the policy's selection counters.
func (p *AdaptiveRL) Stats() DebugStats { return p.stats }
