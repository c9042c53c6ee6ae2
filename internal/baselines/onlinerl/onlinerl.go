// Package onlinerl implements the Online-RL baseline, an extended version
// of Tesauro et al.'s reinforcement-learning power controller ([11] in the
// paper), induced into the same system model and scheduling strategy as
// Adaptive-RL (§V.B, Experiment 1).
//
// Per the paper's description of [11]: the system state is characterised
// by performance, power and load-intensity metrics; the reward signal is
// response time divided by total power consumed in a decision interval;
// the controller discovers the optimal level of CPU throttling in a given
// state; and it regulates clock speed to keep power close to, but not
// over, a power cap that follows a simple random-walk policy.
//
// Scheduling differences from Adaptive-RL: the grouping action is fixed
// (no adaptive opnum, mixed-priority merging), there is no shared memory
// — each agent decays its exploration on its own experience only, which
// is why its utilisation curve rises later (Figures 9/10) — and its
// learning targets the power/performance trade-off rather than the
// group/capacity match.
package onlinerl

import (
	"fmt"
	"math"

	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Config holds the baseline's parameters.
type Config struct {
	// Opnum is the fixed group size.
	Opnum int
	// Epsilon0 and ExplorationScale control per-agent ε-greedy placement;
	// the scale is in units of the agent's OWN completed groups, so decay
	// is much slower than Adaptive-RL's shared schedule.
	Epsilon0, ExplorationScale float64
	// EpsilonFloor bounds exploration from below.
	EpsilonFloor float64
	// ThrottleLevels are the discrete CPU-throttle actions.
	ThrottleLevels []float64
	// LearningRate is the Q-update step for the throttle controller.
	LearningRate float64
	// PowercapMin and PowercapMax bound the random-walk power cap, as
	// fractions of a node's aggregate peak power.
	PowercapMin, PowercapMax float64
	// PowercapStep is the random-walk step per decision interval.
	PowercapStep float64
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Opnum:            3,
		Epsilon0:         1.0,
		ExplorationScale: 150, // per agent — far slower than Adaptive-RL's shared decay
		EpsilonFloor:     0.05,
		ThrottleLevels:   []float64{0.95, 1.0},
		LearningRate:     0.2,
		PowercapMin:      0.9,
		PowercapMax:      1.0,
		PowercapStep:     0.02,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Opnum < 1:
		return fmt.Errorf("onlinerl: Opnum must be >= 1, got %d", c.Opnum)
	case c.Epsilon0 < 0 || c.Epsilon0 > 1:
		return fmt.Errorf("onlinerl: Epsilon0 %g out of [0,1]", c.Epsilon0)
	case c.ExplorationScale <= 0:
		return fmt.Errorf("onlinerl: ExplorationScale must be positive")
	case len(c.ThrottleLevels) == 0:
		return fmt.Errorf("onlinerl: no throttle levels")
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("onlinerl: LearningRate %g out of (0,1]", c.LearningRate)
	case c.PowercapMin <= 0 || c.PowercapMax > 1 || c.PowercapMin > c.PowercapMax:
		return fmt.Errorf("onlinerl: powercap range [%g,%g] invalid", c.PowercapMin, c.PowercapMax)
	case c.PowercapStep < 0:
		return fmt.Errorf("onlinerl: negative PowercapStep")
	}
	for i, l := range c.ThrottleLevels {
		if l <= 0 || l > 1 {
			return fmt.Errorf("onlinerl: throttle level %d = %g out of (0,1]", i, l)
		}
	}
	return nil
}

// loadBuckets discretises node queue occupancy into the state space.
const loadBuckets = 3

// nodeState is the per-node throttle controller.
type nodeState struct {
	// q[s][a] estimates the cost (RT × power) of throttle action a in
	// occupancy state s; the controller minimises it.
	q [loadBuckets][]float64
	// visits counts updates for diagnostics.
	visits int
	// action is the currently applied throttle index.
	action int
	// powercap is the node's random-walk cap as a fraction of peak.
	powercap float64
	// Interval baselines for the reward computation.
	lastEnergy  float64
	lastElapsed float64
	// allowed is allowedActions' result, reused every decision interval.
	allowed []int
}

// agentState tracks per-agent placement learning.
type agentState struct {
	cycles int
}

// Policy implements sched.Policy.
type Policy struct {
	cfg    Config
	nodes  map[int]*nodeState
	agents map[int]*agentState
	// interval response-time baseline (global).
	lastCompleted int
	lastRTSum     float64
}

// New creates the baseline with the given configuration.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg:    cfg,
		nodes:  make(map[int]*nodeState),
		agents: make(map[int]*agentState),
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
func (p *Policy) Name() string { return "online-rl" }

// Init implements sched.Policy.
func (p *Policy) Init(ctx *sched.Context) {
	for _, ag := range ctx.Agents() {
		p.agents[ag.ID] = &agentState{}
	}
	for _, n := range ctx.Platform().Nodes() {
		ns := &nodeState{
			action:   len(p.cfg.ThrottleLevels) - 1, // start at full speed
			powercap: p.cfg.PowercapMax,
		}
		for s := range ns.q {
			ns.q[s] = make([]float64, len(p.cfg.ThrottleLevels))
		}
		p.nodes[n.ID] = ns
	}
}

// epsilon is the per-agent exploration rate.
func (p *Policy) epsilon(st *agentState) float64 {
	eps := p.cfg.Epsilon0 * math.Exp(-float64(st.cycles)/p.cfg.ExplorationScale)
	return math.Max(p.cfg.EpsilonFloor, eps)
}

// ChooseAction implements sched.Policy: fixed-size, mixed-priority
// grouping — the [11] controller does not adapt the TG technique.
func (p *Policy) ChooseAction(*sched.Context, *sched.Agent, *workload.Task) sched.Action {
	return sched.Action{Opnum: p.cfg.Opnum, Mode: grouping.ModeMixed}
}

// PlaceGroup implements sched.Policy: ε-greedy best-fit with the slow
// per-agent exploration schedule.
func (p *Policy) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	st := p.agents[ag.ID]
	if ctx.Rand.Bool(p.epsilon(st)) {
		return candidates[ctx.Rand.Intn(len(candidates))].Node
	}
	return sched.BestFitNode(g, candidates)
}

// OnAssigned implements sched.Policy.
func (p *Policy) OnAssigned(*sched.Context, *sched.Agent, *grouping.Group, *platform.Node) {}

// OnGroupComplete implements sched.Policy.
func (p *Policy) OnGroupComplete(_ *sched.Context, ag *sched.Agent, _ *grouping.Group) {
	p.agents[ag.ID].cycles++
}

// OnProcessorIdle implements sched.Policy: [11] keeps CPUs available at
// all workload conditions (no sleep states).
func (p *Policy) OnProcessorIdle(*sched.Context, *platform.Processor) {}

// OnTick implements sched.Policy: the decision interval. For every node:
// evaluate the last interval's cost (mean response time × node power),
// update Q for the applied action, walk the power cap, and choose the next
// throttle level (ε-greedy over min cost, constrained by the cap).
func (p *Policy) OnTick(ctx *sched.Context) {
	now := ctx.Now()
	col := ctx.Metrics()
	completed := col.Completed()
	rtSum := col.AveRT() * float64(completed)
	intervalRT := 0.0
	if d := completed - p.lastCompleted; d > 0 {
		intervalRT = (rtSum - p.lastRTSum) / float64(d)
	}
	p.lastCompleted, p.lastRTSum = completed, rtSum

	pl := ctx.Platform()
	pl.AdvanceAll(now)
	for _, node := range pl.Nodes() {
		ns := p.nodes[node.ID]
		p.updateNode(ctx, node, ns, intervalRT, now)
	}
}

func (p *Policy) updateNode(ctx *sched.Context, node *platform.Node, ns *nodeState, intervalRT, now float64) {
	// Interval power: node energy delta over elapsed time.
	energyNow := node.Energy()
	elapsed := now - ns.lastElapsed
	power := 0.0
	if elapsed > 0 {
		power = (energyNow - ns.lastEnergy) / elapsed
	}
	ns.lastEnergy, ns.lastElapsed = energyNow, now

	// Cost signal: response time × power ("response time divided by total
	// power" is [11]'s reward to maximise with RT inverted; as a cost we
	// minimise the product). Normalise so Q stays O(1).
	cost := intervalRT / 100 * power / 95
	s := p.occupancyState(ctx, node)
	q := ns.q[s]
	q[ns.action] += p.cfg.LearningRate * (cost - q[ns.action])
	ns.visits++

	// Random-walk power cap.
	step := (ctx.Rand.Float64()*2 - 1) * p.cfg.PowercapStep
	ns.powercap = math.Min(p.cfg.PowercapMax, math.Max(p.cfg.PowercapMin, ns.powercap+step))

	// Next action: ε-greedy min-cost, filtered by the cap (busy power of
	// level l relative to peak must not exceed the cap).
	allowed := ns.allowedActions(p.cfg.ThrottleLevels, node)
	var next int
	if ctx.Rand.Bool(0.05) {
		next = allowed[ctx.Rand.Intn(len(allowed))]
	} else {
		next = allowed[0]
		for _, a := range allowed[1:] {
			if q[a] < q[next] {
				next = a
			}
		}
	}
	ns.action = next
	level := p.cfg.ThrottleLevels[next]
	for _, proc := range node.Processors {
		proc.SetThrottle(level, now)
	}
}

// occupancyState buckets the node's queue occupancy into the state space.
func (p *Policy) occupancyState(ctx *sched.Context, node *platform.Node) int {
	ni := ctx.NodeInfo(node)
	switch {
	case ni.QueuedGroups == 0:
		return 0
	case ni.FreeSlots > 0:
		return 1
	default:
		return 2
	}
}

// allowedActions returns throttle indices whose busy power respects the
// power cap; the lowest level is always allowed so the set is never empty.
// The result is the node's scratch, valid until the next call.
func (ns *nodeState) allowedActions(levels []float64, node *platform.Node) []int {
	out := ns.allowed[:0]
	for i, l := range levels {
		// Busy power fraction of peak at throttle l, for the node's mean
		// power profile: (pmin + (pmax-pmin)·l)/pmax.
		frac := 0.0
		for _, proc := range node.Processors {
			frac += (proc.PMinW + (proc.PMaxW-proc.PMinW)*l) / proc.PMaxW
		}
		frac /= float64(len(node.Processors))
		if frac <= ns.powercap || i == 0 {
			out = append(out, i)
		}
	}
	ns.allowed = out
	return out
}

// NodeVisits exposes the per-node update counts for tests.
func (p *Policy) NodeVisits() map[int]int {
	out := make(map[int]int, len(p.nodes))
	for id, ns := range p.nodes {
		out[id] = ns.visits
	}
	return out
}
