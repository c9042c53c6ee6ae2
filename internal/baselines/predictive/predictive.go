// Package predictive implements the prediction-based learning baseline
// after Berral et al. ([13] in the paper), induced into the same system
// model and scheduling strategy as Adaptive-RL (§V.B, Experiment 1).
//
// Per the paper's description of [13]: instead of reacting dynamically,
// the policy estimates in advance the impact of work on a resource in
// terms of performance and power; a supervised machine-learning model is
// trained from observed system information (loads, completion times); and
// the consolidation objective is to execute all tasks with a minimum
// number of resources while keeping user satisfaction (deadlines).
//
// Here the model is an online linear regressor over (group, node)
// features predicting the group's completion duration. Placement
// consolidates: it scans candidates from most- to least-loaded and takes
// the first whose predicted completion still meets the group's tightest
// deadline, falling back to the fastest candidate when no one qualifies.
package predictive

import (
	"fmt"
	"math"

	"rlsched/internal/grouping"
	"rlsched/internal/neural"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Config holds the baseline's parameters.
type Config struct {
	// Opnum is the fixed group size.
	Opnum int
	// LearningRate is the regressor's SGD step.
	LearningRate float64
	// MinSamples gates consolidation until the model has seen feedback;
	// before that, placement is least-loaded.
	MinSamples int
	// SafetyMargin inflates predictions when checking deadlines (a 1.2
	// margin requires 20% headroom).
	SafetyMargin float64
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Opnum:        3,
		LearningRate: 0.02,
		MinSamples:   25,
		SafetyMargin: 1.1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Opnum < 1:
		return fmt.Errorf("predictive: Opnum must be >= 1, got %d", c.Opnum)
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("predictive: LearningRate %g out of (0,1]", c.LearningRate)
	case c.MinSamples < 0:
		return fmt.Errorf("predictive: negative MinSamples")
	case c.SafetyMargin < 1:
		return fmt.Errorf("predictive: SafetyMargin %g must be >= 1", c.SafetyMargin)
	}
	return nil
}

const numFeatures = 5

// Policy implements sched.Policy.
type Policy struct {
	cfg Config
	// model is a linear regressor (no hidden layer) over normalised
	// (group, node) features -> completion duration (in 100s of t units).
	model *neural.Network
	// pending holds the features captured at assignment, keyed by group.
	pending map[int][numFeatures]float64
	samples int
	feat    [numFeatures]float64
	// order is PlaceGroup's scratch copy of the candidates.
	order []sched.NodeInfo
}

// New creates the baseline with the given configuration.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg:     cfg,
		pending: make(map[int][numFeatures]float64),
	}, nil
}

// NewDefault creates the baseline with DefaultConfig.
func NewDefault() *Policy {
	p, err := New(DefaultConfig())
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sched.Policy.
func (p *Policy) Name() string { return "prediction-based" }

// Init implements sched.Policy.
func (p *Policy) Init(ctx *sched.Context) {
	cfg := neural.Config{
		Inputs:       numFeatures,
		Outputs:      1,
		LearningRate: p.cfg.LearningRate,
		InitScale:    0.1,
	}
	p.model = neural.MustNew(cfg, ctx.Rand.Split("predictive-model"))
}

// features encodes a (group, node) pair into p.feat and returns it as a
// slice, valid until the next call.
func (p *Policy) features(g *grouping.Group, ni sched.NodeInfo) []float64 {
	p.feat[0] = g.PW() / 100
	p.feat[1] = float64(g.Len()) / 6
	p.feat[2] = ni.Node.Capacity() / 1000
	p.feat[3] = ni.QueuedWeight / 100
	p.feat[4] = float64(ni.IdleProcs) / 6
	return p.feat[:]
}

// predictDuration returns the model's completion-duration estimate
// (clamped non-negative), in time units.
func (p *Policy) predictDuration(g *grouping.Group, ni sched.NodeInfo) float64 {
	d := p.model.Predict1(p.features(g, ni)) * 100
	if d < 0 {
		return 0
	}
	return d
}

// ChooseAction implements sched.Policy: non-adaptive grouping.
func (p *Policy) ChooseAction(*sched.Context, *sched.Agent, *workload.Task) sched.Action {
	return sched.Action{Opnum: p.cfg.Opnum, Mode: grouping.ModeMixed}
}

// PlaceGroup implements sched.Policy: consolidation under predicted
// deadline satisfaction.
func (p *Policy) PlaceGroup(ctx *sched.Context, _ *sched.Agent, g *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	if p.samples < p.cfg.MinSamples {
		return sched.LeastLoadedNode(candidates)
	}
	// Tightest absolute deadline slack of the group.
	now := ctx.Now()
	slack := math.Inf(1)
	for _, t := range g.Tasks {
		slack = math.Min(slack, t.AbsoluteDeadline()-now)
	}
	// Most-loaded first: consolidate onto already-busy resources.
	p.order = append(p.order[:0], candidates...)
	order := p.order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].QueuedWeight > order[j-1].QueuedWeight; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ni := range order {
		if p.predictDuration(g, ni)*p.cfg.SafetyMargin <= slack {
			return ni.Node
		}
	}
	// Nobody predicted to satisfy: take the highest-capacity candidate.
	best := order[0]
	for _, ni := range order[1:] {
		if ni.Node.Capacity() > best.Node.Capacity() {
			best = ni
		}
	}
	return best.Node
}

// OnAssigned implements sched.Policy: capture the training features.
func (p *Policy) OnAssigned(ctx *sched.Context, _ *sched.Agent, g *grouping.Group, node *platform.Node) {
	p.features(g, ctx.NodeInfo(node))
	p.pending[g.ID] = p.feat
}

// OnGroupComplete implements sched.Policy: supervised update with the
// observed completion duration.
func (p *Policy) OnGroupComplete(ctx *sched.Context, _ *sched.Agent, g *grouping.Group) {
	x, ok := p.pending[g.ID]
	if !ok {
		panic(fmt.Sprintf("predictive: completed group %d was never assigned", g.ID))
	}
	delete(p.pending, g.ID)
	duration := ctx.Now() - g.EnqueuedAt
	p.model.Train(x[:], []float64{duration / 100})
	p.samples++
}

// OnProcessorIdle implements sched.Policy.
func (p *Policy) OnProcessorIdle(*sched.Context, *platform.Processor) {}

// OnTick implements sched.Policy.
func (p *Policy) OnTick(*sched.Context) {}

// Samples exposes the training count for tests.
func (p *Policy) Samples() int { return p.samples }
