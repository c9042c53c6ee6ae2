// Package qplus implements the Q+ learning baseline, an extended
// Q-learning power manager after Tan et al. ([12] in the paper), induced
// into the same system model and scheduling strategy as Adaptive-RL
// (§V.B, Experiment 1).
//
// Per the paper's description of [12]: an agent chooses between go_sleep
// and go_active whenever the system leaves one state for another; the
// Q-value it minimises is the product of power consumption and delay; and
// multiple Q-values are updated each cycle at various learning rates to
// speed learning up. Scheduling is otherwise non-adaptive: fixed group
// size, mixed-priority merging and least-loaded placement.
package qplus

import (
	"fmt"

	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Actions of the power manager.
const (
	actionActive = 0
	actionSleep  = 1
	numActions   = 2
)

// States: whether the processor's node has queued work.
const (
	stateQueueEmpty = 0
	stateQueueBusy  = 1
	numStates       = 2
)

// Config holds the baseline's parameters.
type Config struct {
	// Opnum is the fixed group size.
	Opnum int
	// LearningRates are the multiple rates of the [12] multi-Q update;
	// the controller acts on the average of the per-rate tables.
	LearningRates []float64
	// Epsilon is the (constant) exploration rate of the sleep decision.
	Epsilon float64
	// WakePenaltyFactor scales the delay penalty attributed to a sleep
	// decision that had to be woken for work.
	WakePenaltyFactor float64
}

// DefaultConfig returns the tuned defaults.
func DefaultConfig() Config {
	return Config{
		Opnum:             3,
		LearningRates:     []float64{0.05, 0.15, 0.4},
		Epsilon:           0.1,
		WakePenaltyFactor: 0.5,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Opnum < 1:
		return fmt.Errorf("qplus: Opnum must be >= 1, got %d", c.Opnum)
	case len(c.LearningRates) == 0:
		return fmt.Errorf("qplus: no learning rates")
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("qplus: Epsilon %g out of [0,1]", c.Epsilon)
	case c.WakePenaltyFactor < 0:
		return fmt.Errorf("qplus: negative WakePenaltyFactor")
	}
	for i, lr := range c.LearningRates {
		if lr <= 0 || lr > 1 {
			return fmt.Errorf("qplus: learning rate %d = %g out of (0,1]", i, lr)
		}
	}
	return nil
}

// decision is a pending sleep/active choice awaiting its observed cost.
type decision struct {
	state      int
	action     int
	at         float64
	tasksRun   int
	energyThen float64
}

// procState is the per-processor Q-learner: one table per learning rate
// (the [12] multi-rate update), acted on via their mean.
type procState struct {
	q [][numStates][numActions]float64 // indexed by learning-rate
	// pending is nil or &slot: arming a decision reuses the slot rather
	// than allocating one.
	pending *decision
	slot    decision
	updates int
}

// Policy implements sched.Policy.
type Policy struct {
	cfg   Config
	procs map[int]*procState
}

// New creates the baseline with the given configuration.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg, procs: make(map[int]*procState)}, nil
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
func (p *Policy) Name() string { return "q+-learning" }

// Init implements sched.Policy.
func (p *Policy) Init(ctx *sched.Context) {
	for _, proc := range ctx.Platform().Processors() {
		ps := &procState{q: make([][numStates][numActions]float64, len(p.cfg.LearningRates))}
		p.procs[proc.ID] = ps
	}
}

// ChooseAction implements sched.Policy: non-adaptive grouping.
func (p *Policy) ChooseAction(*sched.Context, *sched.Agent, *workload.Task) sched.Action {
	return sched.Action{Opnum: p.cfg.Opnum, Mode: grouping.ModeMixed}
}

// PlaceGroup implements sched.Policy: least-loaded placement — the [12]
// power manager does not learn task placement.
func (p *Policy) PlaceGroup(_ *sched.Context, _ *sched.Agent, _ *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	return sched.LeastLoadedNode(candidates)
}

// OnAssigned implements sched.Policy.
func (p *Policy) OnAssigned(*sched.Context, *sched.Agent, *grouping.Group, *platform.Node) {}

// OnGroupComplete implements sched.Policy.
func (p *Policy) OnGroupComplete(*sched.Context, *sched.Agent, *grouping.Group) {}

// meanQ averages the multi-rate tables for action selection.
func (ps *procState) meanQ(state, action int) float64 {
	sum := 0.0
	for _, tbl := range ps.q {
		sum += tbl[state][action]
	}
	return sum / float64(len(ps.q))
}

// settle evaluates a pending decision against the observed outcome and
// updates every Q-table at its own learning rate.
func (p *Policy) settle(proc *platform.Processor, ps *procState, now float64) {
	d := ps.pending
	if d == nil {
		return
	}
	ps.pending = nil
	elapsed := now - d.at
	if elapsed <= 0 {
		return
	}
	var cost float64
	woken := proc.TasksRun() > d.tasksRun
	if d.action == actionSleep {
		cost = proc.PSleepW * elapsed
		if woken {
			// Delay penalty: the wake latency stalled work — the
			// power×delay product of [12].
			cost += p.cfg.WakePenaltyFactor * proc.WakeLatency * proc.PMaxW
		}
	} else {
		cost = proc.PMinW * elapsed
	}
	// Normalise to O(1): full idle power over one time unit == 1.
	cost /= proc.PMaxW

	for i, lr := range p.cfg.LearningRates {
		q := &ps.q[i][d.state][d.action]
		*q += lr * (cost - *q)
	}
	ps.updates++
}

// OnProcessorIdle implements sched.Policy: the go_sleep / go_active choice
// of [12], taken whenever a processor ends up idle with nothing to run.
func (p *Policy) OnProcessorIdle(ctx *sched.Context, proc *platform.Processor) {
	ps := p.procs[proc.ID]
	now := ctx.Now()
	p.settle(proc, ps, now)

	state := stateQueueEmpty
	if ni := ctx.NodeInfo(proc.Node); ni.QueuedGroups > 0 {
		state = stateQueueBusy
	}
	var action int
	if ctx.Rand.Bool(p.cfg.Epsilon) {
		action = ctx.Rand.Intn(numActions)
	} else if ps.meanQ(state, actionSleep) < ps.meanQ(state, actionActive) {
		action = actionSleep
	} else {
		action = actionActive
	}
	ps.slot = decision{
		state: state, action: action, at: now,
		tasksRun: proc.TasksRun(),
	}
	ps.pending = &ps.slot
	if action == actionSleep {
		ctx.Sleep(proc)
	}
}

// OnTick implements sched.Policy: settle stale decisions so sleeping
// processors that were never touched still generate feedback.
func (p *Policy) OnTick(ctx *sched.Context) {
	now := ctx.Now()
	for _, proc := range ctx.Platform().Processors() {
		ps := p.procs[proc.ID]
		if ps.pending != nil && now-ps.pending.at > 0 {
			// Preserve the decision context, then re-arm the same choice
			// so long sleeps keep accruing (cheap) cost.
			d := *ps.pending
			p.settle(proc, ps, now)
			if proc.State() == platform.StateSleep {
				ps.slot = decision{
					state: d.state, action: d.action, at: now,
					tasksRun: proc.TasksRun(),
				}
				ps.pending = &ps.slot
			}
		}
	}
}

// Updates exposes total Q-update counts for tests.
func (p *Policy) Updates() int {
	n := 0
	for _, ps := range p.procs {
		n += ps.updates
	}
	return n
}
