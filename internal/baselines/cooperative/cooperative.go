// Package cooperative implements a game-theoretic comparison policy after
// Subrata, Zomaya & Landfeldt ([19] in the paper): cooperative power-aware
// scheduling in grids, where each scheduler treats job placement as a game
// and steers its placement mix toward an equilibrium that balances
// response time against power consumption.
//
// The paper lists game-theoretic strategies among the energy-management
// families its related work covers but does not evaluate one; this policy
// extends the comparison set. Each agent keeps a mixed placement strategy
// over its site's nodes and updates it with multiplicative weights
// (log-linear learning) against an exponentially smoothed per-node cost
//
//	cost(n) = α · completionTime(n) + (1−α) · meanPower(n)/p_max
//
// observed from its own completed groups — best-response dynamics whose
// fixed points are the equilibria of the underlying congestion game.
package cooperative

import (
	"fmt"
	"math"

	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Config holds the policy parameters.
type Config struct {
	// Opnum is the fixed group size.
	Opnum int
	// Alpha weighs response time against power in the cost (1 = pure
	// performance player, 0 = pure power player).
	Alpha float64
	// LearningRate is the multiplicative-weights step (eta).
	LearningRate float64
	// CostSmoothing is the EMA factor for observed per-node costs.
	CostSmoothing float64
	// MinWeight keeps every node playable so costs stay observable.
	MinWeight float64
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Opnum:         3,
		Alpha:         0.7,
		LearningRate:  0.3,
		CostSmoothing: 0.3,
		MinWeight:     0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Opnum < 1:
		return fmt.Errorf("cooperative: Opnum must be >= 1, got %d", c.Opnum)
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("cooperative: Alpha %g out of [0,1]", c.Alpha)
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("cooperative: LearningRate %g out of (0,1]", c.LearningRate)
	case c.CostSmoothing <= 0 || c.CostSmoothing > 1:
		return fmt.Errorf("cooperative: CostSmoothing %g out of (0,1]", c.CostSmoothing)
	case c.MinWeight < 0 || c.MinWeight >= 0.5:
		return fmt.Errorf("cooperative: MinWeight %g out of [0, 0.5)", c.MinWeight)
	}
	return nil
}

// agentState is one player's mixed strategy and cost beliefs over its
// site's nodes (indexed by node position within the site).
type agentState struct {
	weights []float64
	cost    []float64
	seen    []bool
}

// Policy implements sched.Policy.
type Policy struct {
	cfg    Config
	agents map[int]*agentState
	// groupNode remembers where each in-flight group went.
	groupNode map[int]int
	// enqueueAt remembers when, for the completion-time cost.
	enqueueAt map[int]float64
	// weights is PlaceGroup's scratch: the candidates' strategy weights.
	weights []float64
}

// New creates the policy with the given configuration.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg:       cfg,
		agents:    make(map[int]*agentState),
		groupNode: make(map[int]int),
		enqueueAt: make(map[int]float64),
	}, nil
}

// NewDefault creates the policy with DefaultConfig.
func NewDefault() *Policy {
	p, err := New(DefaultConfig())
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sched.Policy.
func (p *Policy) Name() string { return "cooperative-game" }

// Init implements sched.Policy.
func (p *Policy) Init(ctx *sched.Context) {
	for _, ag := range ctx.Agents() {
		n := len(ag.Site.Nodes)
		st := &agentState{
			weights: make([]float64, n),
			cost:    make([]float64, n),
			seen:    make([]bool, n),
		}
		for i := range st.weights {
			st.weights[i] = 1 / float64(n)
		}
		p.agents[ag.ID] = st
	}
}

// ChooseAction implements sched.Policy: non-adaptive grouping.
func (p *Policy) ChooseAction(*sched.Context, *sched.Agent, *workload.Task) sched.Action {
	return sched.Action{Opnum: p.cfg.Opnum, Mode: grouping.ModeMixed}
}

// nodeIndex locates a node within its site.
func nodeIndex(site *platform.Site, node *platform.Node) int {
	for i, n := range site.Nodes {
		if n == node {
			return i
		}
	}
	return -1
}

// PlaceGroup implements sched.Policy: sample a candidate from the mixed
// strategy restricted to the offered (non-full) nodes.
func (p *Policy) PlaceGroup(ctx *sched.Context, ag *sched.Agent, _ *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	st := p.agents[ag.ID]
	weights := p.weights[:0]
	for _, c := range candidates {
		w := 0.0
		if idx := nodeIndex(ag.Site, c.Node); idx >= 0 {
			w = st.weights[idx]
		}
		weights = append(weights, w)
	}
	p.weights = weights
	return candidates[ctx.Rand.WeightedChoice(weights)].Node
}

// OnAssigned implements sched.Policy: remember the placement for the cost
// observation.
func (p *Policy) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, node *platform.Node) {
	p.groupNode[g.ID] = nodeIndex(ag.Site, node)
	p.enqueueAt[g.ID] = ctx.Now()
}

// OnGroupComplete implements sched.Policy: fold the observed cost into the
// node's belief.
func (p *Policy) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	st := p.agents[ag.ID]
	idx, ok := p.groupNode[g.ID]
	if !ok || idx < 0 {
		return
	}
	delete(p.groupNode, g.ID)
	start := p.enqueueAt[g.ID]
	delete(p.enqueueAt, g.ID)

	node := ag.Site.Nodes[idx]
	ni := ctx.NodeInfo(node)
	// Completion time normalised to O(1) by the mean task ACT scale.
	duration := (ctx.Now() - start) / 100
	power := ni.MeanPower() / 95
	cost := p.cfg.Alpha*duration + (1-p.cfg.Alpha)*power
	if st.seen[idx] {
		st.cost[idx] += p.cfg.CostSmoothing * (cost - st.cost[idx])
	} else {
		st.cost[idx] = cost
		st.seen[idx] = true
	}
}

// OnProcessorIdle implements sched.Policy.
func (p *Policy) OnProcessorIdle(*sched.Context, *platform.Processor) {}

// OnTick implements sched.Policy: the best-response step. Each agent
// multiplies node weights by exp(−eta·cost) and renormalises, flooring at
// MinWeight so every node keeps being sampled (and its cost observable).
func (p *Policy) OnTick(ctx *sched.Context) {
	for _, ag := range ctx.Agents() {
		st := p.agents[ag.ID]
		total := 0.0
		for i := range st.weights {
			if st.seen[i] {
				st.weights[i] *= math.Exp(-p.cfg.LearningRate * st.cost[i])
			}
			total += st.weights[i]
		}
		if total <= 0 {
			continue
		}
		floor := p.cfg.MinWeight / float64(len(st.weights))
		renorm := 0.0
		for i := range st.weights {
			st.weights[i] /= total
			if st.weights[i] < floor {
				st.weights[i] = floor
			}
			renorm += st.weights[i]
		}
		for i := range st.weights {
			st.weights[i] /= renorm
		}
	}
}

// Weights exposes an agent's current mixed strategy for tests.
func (p *Policy) Weights(agentID int) []float64 {
	st, ok := p.agents[agentID]
	if !ok {
		return nil
	}
	return append([]float64(nil), st.weights...)
}
