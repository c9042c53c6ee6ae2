// Package platform implements the paper's system model (§III.B): a set of
// loosely connected resource sites, each containing heterogeneous compute
// nodes, each of which holds a small set of processors fronted by a bounded
// queue of task groups.
//
// Processors are the unit of execution and the dominant energy consumer
// (§I, §III.C). Each processor tracks a power-state timeline (busy / idle /
// sleep) from which the energy model integrates consumption, and exposes a
// throttle level used by the Online-RL baseline ([11]) that trades clock
// speed for power.
package platform

import (
	"fmt"
	"math"
)

// PowerState is the instantaneous operating state of a processor.
type PowerState int

const (
	// StateIdle draws p_min: the processor is powered and available but
	// not executing (§III.C: idle power ≈ 50% of peak [8]).
	StateIdle PowerState = iota
	// StateBusy draws peak power scaled by the throttle level.
	StateBusy
	// StateSleep is a deep low-power state used by the Q+ baseline ([12]);
	// waking from it costs WakeLatency.
	StateSleep
	// StateWaking is the sleep→available transition: the processor is not
	// yet usable but already draws peak power (the resume ramp), which is
	// what makes sleep/wake thrashing expensive.
	StateWaking
	// StateFailed models the §I failure mode (overheating-induced
	// freezes): the processor is down, draws no power, and any in-flight
	// execution is lost until a repair completes.
	StateFailed
)

// String names the state for traces.
func (s PowerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateBusy:
		return "busy"
	case StateSleep:
		return "sleep"
	case StateWaking:
		return "waking"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// Power and timing constants not pinned by the paper; documented in
// DESIGN.md §2 as chosen-once defaults.
const (
	// DefaultSleepPowerW is the deep-sleep draw (W). The paper's Q+
	// baseline [12] assumes a sleep state far below idle.
	DefaultSleepPowerW = 5.0
	// DefaultWakeLatency is the sleep→idle transition time in time units;
	// during the transition the processor draws peak power (resume ramp).
	DefaultWakeLatency = 2.0
	// MinThrottle bounds how far the Online-RL baseline may clock down.
	MinThrottle = 0.5
)

// Processor models a single CPU (§III.B): speed in MIPS, peak and idle
// wattage, a power-state timeline and cumulative time/energy accounting.
type Processor struct {
	// ID is unique across the platform; Index is the position within the
	// owning node.
	ID, Index int
	// Node points back to the owning node.
	Node *Node

	// SpeedMIPS is sp_j, drawn uniformly from [500, 1000] (§V.A).
	SpeedMIPS float64
	// PMaxW is peak power at 100% utilisation. §III.B: randomly selected
	// in [80, 95] W and proportional to processing capacity.
	PMaxW float64
	// PMinW is idle power (≈50% of peak; §V.A uses 48 W against a 95 W peak).
	PMinW float64
	// PSleepW is deep-sleep power.
	PSleepW float64
	// WakeLatency is the sleep→available delay in time units.
	WakeLatency float64

	// Throttle scales the clock: effective speed = SpeedMIPS·Throttle and
	// busy power = PMinW + (PMaxW−PMinW)·Throttle^PowerExponent. It is
	// clamped to [MinThrottle, 1]. The Online-RL baseline and the engine's
	// lazy-DVFS extension move it off 1.
	Throttle float64
	// PowerExponent shapes busy power in the throttle: 1 (or 0, the
	// zero value) is the paper's §III.B proportional model; ~3 models
	// realistic DVFS where power falls cubically with clock speed,
	// making the lazy-DVFS extension worthwhile.
	PowerExponent float64

	state      PowerState
	lastChange float64
	// power caches InstantPower for the current state and throttle. It is
	// valid once powerSet is true: SetState and SetThrottle recompute it,
	// and a hand-built literal computes it on first use, so the power
	// fields must not be edited after that.
	power    float64
	powerSet bool

	// pl is the owning platform, whose breakpoint log this processor
	// replays (nil for a processor built outside Generate), and seen
	// counts the log's breakpoints already folded in.
	pl   *Platform
	seen int

	// Cumulative dwell time per power state (indexed by PowerState) and
	// integrated energy (W·time unit).
	dwell  [numStates]float64
	energy float64
	// tasksRun counts completed task executions, for utilisation reports.
	tasksRun int
}

// numStates sizes the per-state dwell buckets.
const numStates = int(StateFailed) + 1

// bucket maps a state to its dwell bucket; a state outside the enumeration
// is accounted (and powered) as idle.
func bucket(s PowerState) int {
	if s < 0 || int(s) >= numStates {
		return int(StateIdle)
	}
	return int(s)
}

// EffectiveSpeed returns the throttled execution speed in MIPS.
func (p *Processor) EffectiveSpeed() float64 { return p.SpeedMIPS * p.Throttle }

// InstantPower returns the draw of the current state in watts.
func (p *Processor) InstantPower() float64 {
	if !p.powerSet {
		p.power, p.powerSet = p.powerOf(), true
	}
	return p.power
}

// powerOf computes the draw of the current state from the power fields.
func (p *Processor) powerOf() float64 {
	switch p.state {
	case StateBusy:
		exp := p.PowerExponent
		if exp <= 0 {
			exp = 1
		}
		return p.PMinW + (p.PMaxW-p.PMinW)*math.Pow(p.Throttle, exp)
	case StateSleep:
		return p.PSleepW
	case StateWaking:
		return p.PMaxW
	case StateFailed:
		return 0
	default:
		return p.PMinW
	}
}

// State returns the current power state.
func (p *Processor) State() PowerState { return p.state }

// Advance integrates time and energy up to now without changing state.
// Calling it with a timestamp earlier than the last update panics.
func (p *Processor) Advance(now float64) {
	p.catchUp()
	one := [1]float64{now}
	p.fold(one[:], 0)
	if pl := p.pl; pl != nil {
		if now != pl.last {
			pl.clean = false
		}
		if now > pl.hi {
			pl.hi = now
		}
	}
}

// catchUp folds the platform breakpoints this processor has not seen yet.
// Every read of the accounting calls it first.
func (p *Processor) catchUp() {
	if pl := p.pl; pl != nil && p.seen != len(pl.log) {
		p.fold(pl.log, p.seen) // the log and an index, not a subslice: keeps catchUp inlinable
	}
}

// fold integrates the current state's draw over the intervals ending at
// each of times[from:] in turn: per interval the same jitter clamp, dwell
// add and power·dt add as one Advance, so a folded run of breakpoints
// rounds exactly like advancing the processor at each of them. Callers
// fold the unseen breakpoints first, so afterwards the whole log is seen.
func (p *Processor) fold(times []float64, from int) {
	pw := p.InstantPower()
	slot := &p.dwell[bucket(p.state)]
	last, dwell, energy := p.lastChange, *slot, p.energy
	for _, now := range times[from:] {
		dt := now - last
		if dt < 0 {
			if dt > -1e-9 { // tolerate float jitter
				dt = 0
			} else {
				panic(fmt.Sprintf("platform: processor %d time moved backwards: %g -> %g", p.ID, last, now))
			}
		}
		dwell += dt
		energy += pw * dt
		last = now
	}
	p.lastChange, *slot, p.energy = last, dwell, energy
	if p.pl != nil {
		p.seen = len(p.pl.log)
	}
}

// SetState transitions the processor at time now, folding the elapsed
// interval into the accounting first.
func (p *Processor) SetState(s PowerState, now float64) {
	p.Advance(now)
	p.state = s
	p.power, p.powerSet = p.powerOf(), true
}

// SetThrottle clamps and applies a new throttle level at time now. The
// change affects power draw going forward and the speed of subsequently
// started tasks (in-flight executions keep their start-time speed, which
// is how the decision-interval semantics of [11] behave).
func (p *Processor) SetThrottle(level float64, now float64) {
	p.Advance(now)
	p.Throttle = math.Min(1, math.Max(MinThrottle, level))
	p.power, p.powerSet = p.powerOf(), true
}

// NoteTaskRun increments the completed-execution counter.
func (p *Processor) NoteTaskRun() { p.tasksRun++ }

// TasksRun returns the number of completed executions.
func (p *Processor) TasksRun() int { return p.tasksRun }

// BusyTime, IdleTime and SleepTime return cumulative dwell times as of
// the last Advance (or platform breakpoint).
func (p *Processor) BusyTime() float64  { return p.dwellIn(StateBusy) }
func (p *Processor) IdleTime() float64  { return p.dwellIn(StateIdle) }
func (p *Processor) SleepTime() float64 { return p.dwellIn(StateSleep) }

// FailedTime returns cumulative downtime as of the last Advance.
func (p *Processor) FailedTime() float64 { return p.dwellIn(StateFailed) }

// dwellIn returns the cumulative time spent in state s.
func (p *Processor) dwellIn(s PowerState) float64 {
	p.catchUp()
	return p.dwell[s]
}

// Energy returns the integrated consumption in watt·time-units as of the
// last Advance — Eq. 5 generalised with the sleep state:
// PP_j = p_max·Σ ET_i + p_min·t_idle (+ p_sleep·t_sleep).
func (p *Processor) Energy() float64 {
	p.catchUp()
	return p.energy
}

// EnergyAt projects the cumulative energy to time now without folding
// the interval into the accounting: the integration breakpoints — and
// with them every future Energy() rounding — stay exactly as they were.
// Observers (probes) use this so that reading energy mid-run cannot
// perturb the final ECS by even an ulp.
func (p *Processor) EnergyAt(now float64) float64 {
	p.catchUp()
	dt := now - p.lastChange
	if dt <= 0 {
		return p.energy
	}
	return p.energy + p.InstantPower()*dt
}

// Utilization returns busy time as a fraction of total elapsed time as of
// the last Advance (zero before any time passes).
func (p *Processor) Utilization() float64 {
	p.catchUp()
	d := &p.dwell
	total := d[StateBusy] + d[StateIdle] + d[StateSleep] + d[StateWaking] + d[StateFailed]
	if total <= 0 {
		return 0
	}
	return d[StateBusy] / total
}

// Node is a compute node: a fully connected set of processors sharing a
// bounded queue of task groups (§III.B).
type Node struct {
	// ID is unique across the platform; Index is the position within the
	// owning site.
	ID, Index int
	Site      *Site

	Processors []*Processor
	// QueueCap is q_c, the queue length limiting how many task groups may
	// wait for execution (each group occupies one slot, §IV.D.2).
	QueueCap int
}

// NumProcessors returns m, the processor count.
func (n *Node) NumProcessors() int { return len(n.Processors) }

// TotalSpeed returns Σ_j sp_j in MIPS.
func (n *Node) TotalSpeed() float64 {
	sum := 0.0
	for _, p := range n.Processors {
		sum += p.SpeedMIPS
	}
	return sum
}

// Capacity implements Eq. 2: PC_c = (1/q_c)·Σ_j sp_j. The queue bound
// deflates the nominal capacity: a node that must spread its processors
// over a longer backlog offers less capacity per queued group.
func (n *Node) Capacity() float64 {
	if n.QueueCap <= 0 {
		return 0
	}
	return n.TotalSpeed() / float64(n.QueueCap)
}

// Energy implements Eq. 6: E_c = (1/m)·Σ_j PP_j, the node's average
// per-processor energy. Processors must have been advanced to the
// reporting instant first (Platform.AdvanceAll does this).
func (n *Node) Energy() float64 {
	if len(n.Processors) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range n.Processors {
		sum += p.Energy()
	}
	return sum / float64(len(n.Processors))
}

// Site is a resource site: a set of nodes managed by one scheduling agent
// (§III.B). Sites are loosely coupled; agents only interact through the
// shared learning memory.
type Site struct {
	ID    int
	Nodes []*Node
}

// Platform is the whole target system.
type Platform struct {
	Sites []*Site

	processors []*Processor
	nodes      []*Node

	// log holds the AdvanceAll breakpoints since it last restarted,
	// oldest first; a processor's unseen tail is log[seen:].
	log []float64
	// last is the newest breakpoint. clean reports that no processor has
	// advanced itself to another time since then, so every processor's
	// integration point is last. hi bounds every processor's integration
	// point from above, which is all the backwards-time check needs.
	last, hi float64
	clean    bool
}

// logCap bounds the breakpoint log: when it fills, every processor folds
// the pending breakpoints and the log restarts, so memory stays flat in
// arbitrarily long runs.
const logCap = 256

// Nodes returns all nodes across sites in a stable order.
func (pl *Platform) Nodes() []*Node { return pl.nodes }

// Processors returns all processors across sites in a stable order.
func (pl *Platform) Processors() []*Processor { return pl.processors }

// NumNodes and NumProcessors return platform-wide counts.
func (pl *Platform) NumNodes() int      { return len(pl.nodes) }
func (pl *Platform) NumProcessors() int { return len(pl.processors) }

// SlowestSpeed returns the speed of the referred (slowest) processor,
// which anchors task ACTs (§III.A).
func (pl *Platform) SlowestSpeed() float64 {
	s := math.Inf(1)
	for _, p := range pl.processors {
		s = math.Min(s, p.SpeedMIPS)
	}
	if math.IsInf(s, 1) {
		return 0
	}
	return s
}

// AdvanceAll makes time now an integration breakpoint of every processor,
// so that energy and utilisation reads are consistent at time now. It is
// O(1): the breakpoint goes into the platform's log, and each processor
// folds the breakpoints it has not seen before it next advances itself or
// is read, which rounds exactly like advancing every processor here. A
// repeat of the newest breakpoint with no processor advanced since folds
// nothing and is dropped. A time further back than one processor's
// last update panics at once, as Processor.Advance does.
func (pl *Platform) AdvanceAll(now float64) {
	if pl.clean && now == pl.last {
		return
	}
	if !(now-pl.hi > -1e-9) {
		// Possibly backwards (or NaN): advance every processor now, which
		// panics naming the first one that cannot move.
		for _, p := range pl.processors {
			p.Advance(now)
		}
		pl.last, pl.hi, pl.clean = now, now, true
		return
	}
	pl.log = append(pl.log, now)
	pl.last, pl.hi, pl.clean = now, now, true
	if len(pl.log) == logCap {
		for _, p := range pl.processors {
			p.catchUp()
			p.seen = 0
		}
		pl.log = pl.log[:0]
	}
}

// TotalEnergy implements ECS = Σ_c E_c over all nodes (§V.B Exp 1).
func (pl *Platform) TotalEnergy() float64 {
	sum := 0.0
	for _, n := range pl.nodes {
		sum += n.Energy()
	}
	return sum
}

// TotalEnergyAt is the read-only projection of TotalEnergy to time now:
// the same sum with each processor's in-flight interval added virtually
// (see Processor.EnergyAt). Unlike AdvanceAll+TotalEnergy it leaves the
// accounting untouched.
func (pl *Platform) TotalEnergyAt(now float64) float64 {
	sum := 0.0
	for _, n := range pl.nodes {
		if len(n.Processors) == 0 {
			continue
		}
		s := 0.0
		for _, p := range n.Processors {
			s += p.EnergyAt(now)
		}
		sum += s / float64(len(n.Processors))
	}
	return sum
}

// MeanUtilization averages utilisation over all processors.
func (pl *Platform) MeanUtilization() float64 {
	if len(pl.processors) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pl.processors {
		sum += p.Utilization()
	}
	return sum / float64(len(pl.processors))
}

// Heterogeneity returns the service coefficient of variation of node
// capacities — the metric [24] that Experiment 3 sweeps: dispersion of
// processing capacity relative to the mean.
func (pl *Platform) Heterogeneity() float64 {
	n := len(pl.nodes)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, nd := range pl.nodes {
		mean += nd.Capacity()
	}
	mean /= float64(n)
	if mean <= 0 {
		return 0
	}
	varsum := 0.0
	for _, nd := range pl.nodes {
		d := nd.Capacity() - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(n)) / mean
}

// Validate checks structural invariants of a constructed platform.
func (pl *Platform) Validate() error {
	if len(pl.Sites) == 0 {
		return fmt.Errorf("platform: no sites")
	}
	procIDs := map[int]bool{}
	for si, site := range pl.Sites {
		if site.ID != si {
			return fmt.Errorf("platform: site %d has ID %d", si, site.ID)
		}
		if len(site.Nodes) == 0 {
			return fmt.Errorf("platform: site %d has no nodes", si)
		}
		for ni, node := range site.Nodes {
			if node.Site != site {
				return fmt.Errorf("platform: node %d back-pointer broken", node.ID)
			}
			if node.Index != ni {
				return fmt.Errorf("platform: node %d has index %d, want %d", node.ID, node.Index, ni)
			}
			if node.QueueCap <= 0 {
				return fmt.Errorf("platform: node %d has non-positive queue cap", node.ID)
			}
			if len(node.Processors) == 0 {
				return fmt.Errorf("platform: node %d has no processors", node.ID)
			}
			for pi, proc := range node.Processors {
				if proc.Node != node || proc.Index != pi {
					return fmt.Errorf("platform: processor %d back-pointer/index broken", proc.ID)
				}
				if proc.SpeedMIPS <= 0 {
					return fmt.Errorf("platform: processor %d has non-positive speed", proc.ID)
				}
				if proc.PMaxW < proc.PMinW || proc.PMinW < proc.PSleepW || proc.PSleepW < 0 {
					return fmt.Errorf("platform: processor %d power ordering violated (max %g, min %g, sleep %g)",
						proc.ID, proc.PMaxW, proc.PMinW, proc.PSleepW)
				}
				if proc.Throttle <= 0 || proc.Throttle > 1 {
					return fmt.Errorf("platform: processor %d throttle %g out of (0,1]", proc.ID, proc.Throttle)
				}
				if procIDs[proc.ID] {
					return fmt.Errorf("platform: duplicate processor ID %d", proc.ID)
				}
				procIDs[proc.ID] = true
			}
		}
	}
	return nil
}
