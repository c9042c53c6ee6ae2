package sched

import (
	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/workload"
)

// Greedy is a non-learning reference policy: fixed group size, mixed-mode
// merging, and best-fit placement that minimises err_tg (Eq. 9) against
// the live node capacities. It serves as the deterministic baseline for
// engine tests and as the no-learning arm of the cmd/experiments
// -ablations table.
type Greedy struct {
	// Opnum is the fixed group size (clamped by the engine).
	Opnum int
	// Mode is the fixed merge mode.
	Mode grouping.Mode
}

// NewGreedy returns the reference policy with a group size of 3.
func NewGreedy() *Greedy { return &Greedy{Opnum: 3, Mode: grouping.ModeMixed} }

// Name implements Policy.
func (g *Greedy) Name() string { return "greedy" }

// Init implements Policy.
func (g *Greedy) Init(*Context) {}

// ChooseAction implements Policy.
func (g *Greedy) ChooseAction(*Context, *Agent, *workload.Task) Action {
	return Action{Opnum: g.Opnum, Mode: g.Mode}
}

// PlaceGroup implements Policy: best-fit by err_tg, breaking ties toward
// the lighter queue.
func (g *Greedy) PlaceGroup(_ *Context, _ *Agent, grp *grouping.Group, candidates []NodeInfo) *platform.Node {
	return BestFitNode(grp, candidates)
}

// OnAssigned implements Policy.
func (g *Greedy) OnAssigned(*Context, *Agent, *grouping.Group, *platform.Node) {}

// OnGroupComplete implements Policy.
func (g *Greedy) OnGroupComplete(*Context, *Agent, *grouping.Group) {}

// OnProcessorIdle implements Policy.
func (g *Greedy) OnProcessorIdle(*Context, *platform.Processor) {}

// OnTick implements Policy.
func (g *Greedy) OnTick(*Context) {}

// BestFitNode returns the most favourable candidate for the group: among
// the nodes whose estimated availability (queued backlog divided by
// aggregate speed) is within a small slack of the minimum, it picks the
// one minimising err_tg (Eq. 9) — load first, capacity match second,
// mirroring how the agent's state S_c(t) couples Load and q− with the
// processing capacities. Ties break by node ID. Returns nil for an empty
// candidate list. Exported because every learned policy uses it as its
// exploitation move.
func BestFitNode(g *grouping.Group, candidates []NodeInfo) *platform.Node {
	if len(candidates) == 0 {
		return nil
	}
	// availSlack tolerates small availability differences so the err_tg
	// match can pick among nearly-equally-loaded nodes.
	const availSlack = 1.0
	minAvail := availOf(candidates[0])
	for _, c := range candidates[1:] {
		if a := availOf(c); a < minAvail {
			minAvail = a
		}
	}
	pw := g.PW()
	var best *platform.Node
	bestErr := 0.0
	for _, c := range candidates {
		if availOf(c) > minAvail+availSlack {
			continue
		}
		e := grouping.ErrTGFor(pw, c.Node.Capacity())
		if best == nil || e < bestErr || (e == bestErr && c.Node.ID < best.ID) {
			best, bestErr = c.Node, e
		}
	}
	return best
}

// availOf estimates when a node could start new work: its outstanding
// computational volume — queued backlog plus the remainder of in-flight
// executions — divided by its aggregate speed.
func availOf(ni NodeInfo) float64 {
	speed := ni.Node.TotalSpeed()
	if speed <= 0 {
		return 0
	}
	return (ni.QueuedWork + ni.InflightWork) / speed
}

// LeastLoadedNode returns the candidate with the smallest queued weight
// (ties toward higher capacity, then smaller node ID). Exported for
// baseline policies.
func LeastLoadedNode(candidates []NodeInfo) *platform.Node {
	if len(candidates) == 0 {
		return nil
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		switch {
		case c.QueuedWeight < best.QueuedWeight:
			best = c
		case c.QueuedWeight == best.QueuedWeight && c.Node.Capacity() > best.Node.Capacity():
			best = c
		case c.QueuedWeight == best.QueuedWeight && c.Node.Capacity() == best.Node.Capacity() && c.Node.ID < best.Node.ID:
			best = c
		}
	}
	return best.Node
}
