// Package sched implements the dynamic scheduling framework the paper's
// evaluation runs every learning approach on ("the learning approaches are
// induced into the same system model and scheduling strategy", §V.B).
//
// The engine owns the mechanics that are common to all policies: Poisson
// arrivals routed to per-site agents, the merge buffers, bounded node
// queues of task groups, task dispatch in EDF order, the split process
// that feeds idle processors (§IV.D.2), sleep/wake transitions, energy
// sampling and metric collection. A Policy supplies only the decisions
// that differentiate the four approaches of Experiment 1: the grouping
// action (opnum + merge mode), group placement, power-state choices for
// idle processors, and whatever learning it performs on the feedback the
// engine delivers.
package sched

import (
	"fmt"

	"rlsched/internal/audit"
	"rlsched/internal/grouping"
	"rlsched/internal/memory"
	"rlsched/internal/metrics"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/workload"
)

// Action is the grouping decision taken per arriving task (§IV.D.1):
// the target group size and the merge mode.
type Action struct {
	Opnum int
	Mode  grouping.Mode
}

// NodeInfo is the engine's view of one node offered to a policy at
// placement time — the observed state S_c(t) = (Load, q−, PP_1..m) of
// §IV.B plus derived conveniences.
//
// A NodeInfo is a snapshot valid only for the duration of the policy call
// it was passed to (or the Context call that produced it): the engine
// reuses the backing storage — in particular ProcPower — on the next view
// of the same node. Policies that need state beyond the call must copy the
// values they care about (see MemoryState, which copies by construction).
type NodeInfo struct {
	Node *platform.Node
	// QueuedGroups is the number of groups currently occupying slots.
	QueuedGroups int
	// FreeSlots is q−, the available queue spaces.
	FreeSlots int
	// QueuedWeight is Load: the summed processing weight (Eq. 10) of the
	// queued groups, including the partially executed head.
	QueuedWeight float64
	// QueuedWork is the computational backlog in MI: the sizes of all
	// queued tasks that have not started executing yet.
	QueuedWork float64
	// InflightWork is the remaining computational volume (MI) of the
	// tasks currently executing on the node's processors.
	InflightWork float64
	// ProcPower lists the instantaneous power draw PP_j of each processor.
	ProcPower []float64
	// IdleProcs and SleepProcs count processors in the respective states.
	IdleProcs, SleepProcs int
}

// MeanPower averages ProcPower (0 for an empty slice).
func (ni NodeInfo) MeanPower() float64 {
	if len(ni.ProcPower) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range ni.ProcPower {
		sum += p
	}
	return sum / float64(len(ni.ProcPower))
}

// MemoryState converts the node view into the shared-memory state vector.
func (ni NodeInfo) MemoryState(siteLoad float64) memory.State {
	return memory.State{
		Load:      ni.QueuedWeight,
		FreeSlots: float64(ni.FreeSlots),
		MeanPower: ni.MeanPower(),
		SiteLoad:  siteLoad,
	}
}

// Agent is a per-site scheduler instance (§III.B: "In each resource site,
// an agent resides"). The engine owns its mechanics; policies attach their
// learning state by agent ID.
type Agent struct {
	// ID equals the site ID.
	ID int
	// Site is the resource site this agent manages.
	Site *platform.Site
	// Merger holds the open merge buffers.
	Merger *grouping.Merger

	backlog []*grouping.Group
	// Cycles counts completed learning cycles (group completions).
	Cycles int
	// LastReward is the reward of the most recent completed group, used
	// for the paper's reward-regression rule (§IV.C).
	LastReward float64
}

// BacklogLen returns the number of groups awaiting a free queue slot.
func (a *Agent) BacklogLen() int { return len(a.backlog) }

// Policy is the decision surface distinguishing the learning approaches.
// All methods run inside the single-threaded simulation loop.
//
// The *grouping.Group passed to PlaceGroup, OnAssigned and
// OnGroupComplete is engine-owned: the engine reuses the struct and its
// Tasks slice for a later group once OnGroupComplete returns. A policy
// keeps no pointer to a group or its Tasks past that call, and keys any
// per-group state it keeps by g.ID.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Init is called once before the first arrival.
	Init(ctx *Context)
	// ChooseAction picks the grouping action for a task arriving at the
	// agent. The engine clamps Opnum to [1, MaxOpnum].
	ChooseAction(ctx *Context, ag *Agent, t *workload.Task) Action
	// PlaceGroup selects a node for a closed group from candidates (all
	// nodes of the agent's site that have a free queue slot; never empty).
	// Returning nil, or a node not among the candidates, makes the engine
	// fall back to the least-loaded candidate. The candidates slice and
	// the NodeInfos in it are engine-owned scratch, valid only until the
	// call returns.
	PlaceGroup(ctx *Context, ag *Agent, g *grouping.Group, candidates []NodeInfo) *platform.Node
	// OnAssigned is feedback immediately after placement: the error value
	// err_tg (Eq. 9) is already recorded on the group. The paper notes the
	// agent receives the error right after assignment (§IV.C).
	OnAssigned(ctx *Context, ag *Agent, g *grouping.Group, node *platform.Node)
	// OnGroupComplete delivers the reward feedback (Eq. 8) once every
	// member task finished (§IV.C).
	OnGroupComplete(ctx *Context, ag *Agent, g *grouping.Group)
	// OnProcessorIdle is called when a processor transitions to idle with
	// no dispatchable work at its node; the policy may put it to sleep via
	// ctx.Sleep (the go_sleep action of the Q+ baseline).
	OnProcessorIdle(ctx *Context, proc *platform.Processor)
	// OnTick runs every Config.TickInterval time units — the decision
	// interval used by policies that regulate power states or throttles.
	OnTick(ctx *Context)
}

// Context is the engine façade policies act through.
type Context struct {
	engine *Engine
	// Rand is the policy's private exploration stream.
	Rand *rng.Stream
	// Memory is the shared learning memory (§III.B). All policies may use
	// it; only Adaptive-RL does.
	Memory *memory.Shared
	// Audit is the decision recorder when the run is audited, nil
	// otherwise. Policies never record through it directly — they check it
	// for nil to skip annotation work, and hand the engine a Note via
	// SetAuditNote; the engine records the decision after validation.
	Audit *audit.Recorder

	auditNote  audit.Note
	auditNoted bool
}

// SetAuditNote annotates the decision the policy is about to return from
// ChooseAction. The engine consumes the note when it records the decision;
// a choice without a note is recorded as a plain "policy" decision.
// Calling it with Audit == nil is harmless but pointless — guard on
// ctx.Audit before doing any work to build the note.
func (c *Context) SetAuditNote(n audit.Note) {
	c.auditNote = n
	c.auditNoted = true
}

// takeAuditNote returns and clears the pending note, so a policy that
// annotates one decision cannot leak its note onto the next.
func (c *Context) takeAuditNote() audit.Note {
	if !c.auditNoted {
		return audit.Note{}
	}
	n := c.auditNote
	c.auditNote = audit.Note{}
	c.auditNoted = false
	return n
}

// Now returns the current simulation time.
func (c *Context) Now() float64 { return c.engine.sim.Now() }

// Platform returns the target system.
func (c *Context) Platform() *platform.Platform { return c.engine.pl }

// MaxOpnum returns the cap on group sizes: the maximum processor count of
// any node (§IV.D.1).
func (c *Context) MaxOpnum() int { return c.engine.maxOpnum }

// NodeInfo builds the engine's current view of a node.
func (c *Context) NodeInfo(n *platform.Node) NodeInfo { return c.engine.nodeInfo(n) }

// SiteNodeInfos returns views of every node in a site. Like the
// candidates handed to PlaceGroup, the slice is engine-owned scratch: the
// next SiteNodeInfos call overwrites it, and each view's ProcPower is
// refreshed by the next view of the same node (see NodeInfo). Copy what
// must outlive the current policy call.
func (c *Context) SiteNodeInfos(s *platform.Site) []NodeInfo {
	e := c.engine
	out := e.siteBuf[:0]
	for _, n := range s.Nodes {
		out = append(out, e.nodeInfo(n))
	}
	e.siteBuf = out
	return out
}

// SiteLoad returns the total queued processing weight across a site.
func (c *Context) SiteLoad(s *platform.Site) float64 {
	sum := 0.0
	for _, n := range s.Nodes {
		sum += c.engine.queuedWeight(n)
	}
	return sum
}

// Sleep transitions an idle processor into the deep-sleep state. It is a
// no-op unless the processor is currently idle.
func (c *Context) Sleep(p *platform.Processor) {
	c.engine.sleepProcessor(p)
}

// Metrics exposes the run's collector (read-only use by policies that
// learn from aggregate performance, e.g. the Online-RL reward signal).
func (c *Context) Metrics() *metrics.Collector { return c.engine.col }

// Agents returns the engine's agents (stable order by site ID).
func (c *Context) Agents() []*Agent { return c.engine.agents }

// validateAction clamps a policy's action to legal bounds.
func (c *Context) validateAction(a Action) Action {
	if a.Opnum < 1 {
		a.Opnum = 1
	}
	if a.Opnum > c.engine.maxOpnum {
		a.Opnum = c.engine.maxOpnum
	}
	if a.Mode != grouping.ModeMixed && a.Mode != grouping.ModeIdentical {
		panic(fmt.Sprintf("sched: policy returned invalid merge mode %d", int(a.Mode)))
	}
	return a
}
