// Package grouping implements the paper's adaptive task-grouping (TG)
// technique (§IV.D): the merge process that folds newly arrived tasks into
// EDF-ordered groups ahead of assignment, the processing-weight indicator
// pw (Eq. 10) and the error feedback err_tg (Eq. 9). The split process
// of §IV.D.2 lives in the scheduler, which feeds idle processors from the
// next waiting group without changing its membership.
//
// A task group is the unit of scheduling: it occupies exactly one slot in
// a node's queue and its member tasks fan out over the node's processors.
package grouping

import (
	"fmt"
	"math"

	"rlsched/internal/workload"
)

// Mode selects how the merge process combines priorities (§IV.D.1).
type Mode int

const (
	// ModeMixed merges tasks of any priority into the same group in
	// arrival order. No grouping delay, but pw is a blunter indicator.
	ModeMixed Mode = iota
	// ModeIdentical groups tasks of the same priority together, making
	// pw an accurate priority signal at the cost of slower group closure.
	ModeIdentical
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMixed:
		return "mixed"
	case ModeIdentical:
		return "identical"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Group is a set of tasks scheduled as one unit (§IV.D).
type Group struct {
	// ID is unique per simulation run.
	ID int
	// Tasks are the members in EDF order. They are fixed once the group
	// is closed: the cached processing weight depends on them.
	Tasks []*workload.Task
	// Mode records which merge policy built the group.
	Mode Mode
	// Priority is the shared class for identical-priority groups; for
	// mixed groups it is the highest priority present.
	Priority workload.Priority
	// CreatedAt is when the group was closed for assignment.
	CreatedAt float64
	// NodeID is the node the group was assigned to (-1 before placement).
	NodeID int
	// EnqueuedAt is when the group entered the node queue.
	EnqueuedAt float64

	// ErrTG is the error feedback of Eq. 9, recorded at assignment.
	ErrTG float64

	dispatched int
	finished   int
	deadlineOK int
	// pw caches PW(Tasks) for groups closed by a Merger, which never
	// change afterwards; pwCached marks it set.
	pw       float64
	pwCached bool
}

// Len returns the number of member tasks.
func (g *Group) Len() int { return len(g.Tasks) }

// PW implements Eq. 10: pw = Σ s_i / Σ d_i over the group, the processing
// weight used to match groups to node capacities. An empty group has zero
// weight. A group closed by a Merger returns the value computed when it
// closed, bit-identical to summing its tasks again.
func (g *Group) PW() float64 {
	if g.pwCached {
		return g.pw
	}
	return PW(g.Tasks)
}

// PW computes Eq. 10 for any task slice.
func PW(tasks []*workload.Task) float64 {
	dl := workload.TotalDeadline(tasks)
	if dl <= 0 {
		return 0
	}
	return workload.TotalSize(tasks) / dl
}

// ProcFitness computes pw / PC_c: how the group's processing weight sits
// against the capacity of the node it is assigned to (Eq. 9 numerator).
// A fitness of 1 is a perfect match. Panics on non-positive capacity.
func ProcFitness(pw, capacity float64) float64 {
	if capacity <= 0 {
		panic(fmt.Sprintf("grouping: non-positive node capacity %g", capacity))
	}
	return pw / capacity
}

// ErrTG implements Eq. 9: err_tg = |1 − 1/proc_fitness|. A null error
// means the group weight matches the node capacity exactly; undersized
// groups (fitness → 0) are penalised unboundedly, oversized groups
// approach an error of 1. Zero fitness maps to +Inf.
func ErrTG(procFitness float64) float64 {
	if procFitness <= 0 {
		return math.Inf(1)
	}
	return math.Abs(1 - 1/procFitness)
}

// ErrTGFor combines the two steps for a task group on a node capacity.
func ErrTGFor(pw, capacity float64) float64 {
	return ErrTG(ProcFitness(pw, capacity))
}

// NoteDispatched records that one member task started executing.
func (g *Group) NoteDispatched() {
	g.dispatched++
	if g.dispatched > len(g.Tasks) {
		panic(fmt.Sprintf("grouping: group %d dispatched %d of %d tasks", g.ID, g.dispatched, len(g.Tasks)))
	}
}

// NoteFinished records one member completion and whether it met its
// deadline; it returns true when the whole group is complete — the moment
// the reward feedback of Eq. 8 becomes available to the agent.
func (g *Group) NoteFinished(metDeadline bool) bool {
	g.finished++
	if g.finished > len(g.Tasks) {
		panic(fmt.Sprintf("grouping: group %d finished %d of %d tasks", g.ID, g.finished, len(g.Tasks)))
	}
	if metDeadline {
		g.deadlineOK++
	}
	return g.finished == len(g.Tasks)
}

// Dispatched returns how many member tasks have started.
func (g *Group) Dispatched() int { return g.dispatched }

// Reward implements Eq. 8: the number of member tasks that met their
// deadline (only meaningful once Complete).
func (g *Group) Reward() int { return g.deadlineOK }

// NextUndispatched returns the EDF-first task that has not started yet,
// or nil when the group is fully dispatched.
func (g *Group) NextUndispatched() *workload.Task {
	if g.dispatched < len(g.Tasks) {
		return g.Tasks[g.dispatched]
	}
	return nil
}

// Groups issues the groups of one simulation run: unique IDs in closing
// order, and the free list that recycles closed groups and their task
// buffers. Every Merger of a run shares one, so a run's group and buffer
// allocations stop growing once its peak of live groups is reached.
type Groups struct {
	nextID int
	free   []*Group
	bufs   [][]*workload.Task
	bufCap int
}

// NewGroups creates the run's group source. bufCap sizes every task
// buffer it allocates; the scheduler passes the largest opnum it allows
// (MaxOpnum), so any recycled buffer fits any group.
func NewGroups(bufCap int) *Groups { return &Groups{bufCap: bufCap} }

// Release hands a completed group back for reuse. The caller must hold no
// reference to g or its Tasks afterwards. The task buffer is cleared so it
// pins no task while it waits on the free list.
func (gs *Groups) Release(g *Group) {
	clear(g.Tasks)
	gs.bufs = append(gs.bufs, g.Tasks[:0])
	g.Tasks = nil
	gs.free = append(gs.free, g)
}

// buffer returns an empty task buffer for a new merge buffer: a released
// one when there is one, else a fresh one with room for opnum tasks.
func (gs *Groups) buffer(opnum int) []*workload.Task {
	if n := len(gs.bufs); n > 0 {
		b := gs.bufs[n-1]
		gs.bufs = gs.bufs[:n-1]
		return b
	}
	return make([]*workload.Task, 0, max(opnum, gs.bufCap))
}

// group returns a released group, or a new one, for the caller to
// overwrite whole.
func (gs *Groups) group() *Group {
	if n := len(gs.free); n > 0 {
		g := gs.free[n-1]
		gs.free = gs.free[:n-1]
		return g
	}
	return new(Group)
}

// Merger performs the merge process (§IV.D.1): it accumulates arriving
// tasks into open groups and closes a group when it reaches the opnum the
// agent chose. One Merger serves one agent.
type Merger struct {
	mode   Mode
	groups *Groups

	// open groups: a single buffer in mixed mode, one per priority class
	// in identical mode.
	mixed     []*workload.Task
	byPrio    [3][]*workload.Task
	openSince [4]float64 // arrival time of the oldest open task per buffer
}

// NewMerger creates a merger in the given mode that draws its groups, IDs
// and task buffers from groups (the scheduler shares one across its
// agents so IDs are global).
func NewMerger(mode Mode, groups *Groups) *Merger {
	return &Merger{mode: mode, groups: groups}
}

// SetMode switches the merge policy. Open buffers are retained; tasks
// already buffered close under the new policy's rules (mixed mode drains
// per-priority buffers as its own).
func (m *Merger) SetMode(mode Mode) { m.mode = mode }

// Add merges one arriving task and closes a group when the relevant
// buffer reaches opnum (the optimal group size the agent chose; §IV.D.1
// caps it at the processors of a node — the caller enforces the cap).
// It returns the closed group or nil. now is the arrival time.
func (m *Merger) Add(t *workload.Task, opnum int, now float64) *Group {
	if opnum < 1 {
		opnum = 1
	}
	if m.mode == ModeMixed {
		if len(m.mixed) == 0 {
			m.openSince[3] = now
			m.mixed = m.groups.buffer(opnum)
		}
		m.mixed = append(m.mixed, t)
		if len(m.mixed) >= opnum {
			return m.closeMixed(now)
		}
		return nil
	}
	p := t.Priority
	if len(m.byPrio[p]) == 0 {
		m.openSince[p] = now
		m.byPrio[p] = m.groups.buffer(opnum)
	}
	m.byPrio[p] = append(m.byPrio[p], t)
	if len(m.byPrio[p]) >= opnum {
		return m.closePrio(p, now)
	}
	return nil
}

// Pending returns the total number of buffered (not yet grouped) tasks.
func (m *Merger) Pending() int {
	n := len(m.mixed)
	for _, b := range m.byPrio {
		n += len(b)
	}
	return n
}

// BufferClass indexes the merge buffers for timeout policies: 0..2 are
// the identical-priority buffers (low/medium/high), 3 is the mixed buffer.
const BufferMixed = 3

// FlushExpired closes every buffer whose oldest task has waited longer
// than its class timeout and appends the closed groups to dst, returning
// the extended slice (so a caller can reuse one buffer). timeouts is
// indexed by buffer class (priority value, or BufferMixed); urgent classes
// get short timeouts so tight-deadline tasks are not held back to fill a
// group, while patient classes may wait and fill (§IV.D.1: "a task group
// with a small pw is required to be executed as early as possible;
// otherwise, the task group allows some delays").
func (m *Merger) FlushExpired(dst []*Group, now float64, timeouts [4]float64) []*Group {
	for p := range m.byPrio {
		if len(m.byPrio[p]) > 0 && now-m.openSince[p] >= timeouts[p] {
			dst = append(dst, m.closePrio(workload.Priority(p), now))
		}
	}
	if len(m.mixed) > 0 && now-m.openSince[BufferMixed] >= timeouts[BufferMixed] {
		dst = append(dst, m.closeMixed(now))
	}
	return dst
}

func (m *Merger) closeMixed(now float64) *Group {
	tasks := m.mixed
	m.mixed = nil
	return m.finish(tasks, ModeMixed, now)
}

func (m *Merger) closePrio(p workload.Priority, now float64) *Group {
	tasks := m.byPrio[p]
	m.byPrio[p] = nil
	return m.finish(tasks, ModeIdentical, now)
}

func (m *Merger) finish(tasks []*workload.Task, mode Mode, now float64) *Group {
	workload.SortEDF(tasks)
	prio := workload.PriorityLow
	for _, t := range tasks {
		if t.Priority > prio {
			prio = t.Priority
		}
	}
	g := m.groups.group()
	*g = Group{
		ID:        m.groups.nextID,
		Tasks:     tasks,
		Mode:      mode,
		Priority:  prio,
		CreatedAt: now,
		NodeID:    -1,
		pw:        PW(tasks),
		pwCached:  true,
	}
	m.groups.nextID++
	return g
}
