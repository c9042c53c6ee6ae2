// Package workload implements the paper's application model (§III.A) and
// the synthetic workload generator used in the evaluation (§V.A).
//
// Tasks are computation-intensive, independent (no inter-task communication
// or dependencies), sequential (need exactly one processor), and arrive in
// a Poisson process. Each task T_i = {s_i, d_i} carries a computational
// size s_i in millions of instructions (MI) and a relative deadline d_i.
//
// The deadline is derived from the expected execution time on the slowest
// ("referred") processor of the platform: ACT_i = s_i / sp_slowest and
// d_i = ACT_i + add_t with add_t uniform in [0, 150%] of ACT_i. Task
// priority is a pure function of the deadline slack (add_t / ACT_i):
// high when the slack is at most 20%, low when it is 80% or more, medium
// otherwise.
package workload

import (
	"cmp"
	"fmt"
	"slices"

	"rlsched/internal/rng"
)

// Priority is the deadline-derived urgency class of a task (§III.A).
type Priority int

const (
	// PriorityLow tasks have deadline slack of 80% or more of ACT.
	PriorityLow Priority = iota
	// PriorityMedium tasks have slack strictly between 20% and 80%.
	PriorityMedium
	// PriorityHigh tasks have slack of at most 20% of ACT.
	PriorityHigh

	numPriorities = 3
)

// Priorities lists all priority classes in ascending urgency order.
var Priorities = [numPriorities]Priority{PriorityLow, PriorityMedium, PriorityHigh}

// String returns the conventional lowercase name of the priority.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityMedium:
		return "medium"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Valid reports whether p is one of the three defined classes.
func (p Priority) Valid() bool { return p >= PriorityLow && p <= PriorityHigh }

// Slack thresholds separating the priority classes, as fractions of ACT
// (§III.A: high ≤ 20%, low ≥ 80%).
const (
	HighSlackMax = 0.20
	LowSlackMin  = 0.80
	// MaxSlack is the upper bound of add_t as a fraction of ACT (150%).
	MaxSlack = 1.50
)

// PriorityFromSlack classifies a deadline slack fraction (add_t / ACT).
func PriorityFromSlack(slack float64) Priority {
	switch {
	case slack <= HighSlackMax:
		return PriorityHigh
	case slack >= LowSlackMin:
		return PriorityLow
	default:
		return PriorityMedium
	}
}

// Task is a single unit of arrival, T_i = {s_i, d_i} (Eq. 1).
type Task struct {
	// ID is unique within a generated workload, in arrival order.
	ID int
	// SizeMI is s_i, the computational size in millions of instructions.
	SizeMI float64
	// ACT is the expected execution time on the referred (slowest)
	// processor of the platform: s_i / sp_slowest.
	ACT float64
	// Deadline is d_i, the relative deadline: ACT + add_t. A task submitted
	// at ArrivalTime must complete by ArrivalTime + Deadline to succeed.
	Deadline float64
	// Priority is derived from the deadline slack.
	Priority Priority
	// ArrivalTime is the absolute submission time (Poisson process).
	ArrivalTime float64

	// Runtime bookkeeping, filled in by the scheduler.

	// StartTime is when execution began on a processor (-1 before start).
	StartTime float64
	// FinishTime is when execution completed (-1 before completion).
	FinishTime float64
	// ProcessorSpeed is the speed of the processor the task ran on, in
	// MIPS (0 before placement).
	ProcessorSpeed float64
}

// AbsoluteDeadline is the wall-clock instant by which the task must finish.
func (t *Task) AbsoluteDeadline() float64 { return t.ArrivalTime + t.Deadline }

// ResponseTime is FinishTime - ArrivalTime (waiting + execution, Eq. 4).
// It returns 0 for unfinished tasks.
func (t *Task) ResponseTime() float64 {
	if t.FinishTime < 0 {
		return 0
	}
	return t.FinishTime - t.ArrivalTime
}

// Finished reports whether the task has completed execution.
func (t *Task) Finished() bool { return t.FinishTime >= 0 }

// MetDeadline reports δ_i of Eq. 8: 1 iff the task finished no later than
// its absolute deadline.
func (t *Task) MetDeadline() bool {
	return t.Finished() && t.FinishTime <= t.AbsoluteDeadline()
}

// Validate checks internal consistency of a generated task.
func (t *Task) Validate() error {
	switch {
	case t.SizeMI <= 0:
		return fmt.Errorf("task %d: non-positive size %g", t.ID, t.SizeMI)
	case t.ACT <= 0:
		return fmt.Errorf("task %d: non-positive ACT %g", t.ID, t.ACT)
	case t.Deadline < t.ACT:
		return fmt.Errorf("task %d: deadline %g below ACT %g", t.ID, t.Deadline, t.ACT)
	case t.Deadline > t.ACT*(1+MaxSlack)*(1+1e-9):
		return fmt.Errorf("task %d: deadline %g exceeds ACT+150%% (%g)", t.ID, t.Deadline, t.ACT*(1+MaxSlack))
	case !t.Priority.Valid():
		return fmt.Errorf("task %d: invalid priority %d", t.ID, int(t.Priority))
	case t.ArrivalTime < 0:
		return fmt.Errorf("task %d: negative arrival time %g", t.ID, t.ArrivalTime)
	}
	if got := PriorityFromSlack(t.Deadline/t.ACT - 1); got != t.Priority {
		return fmt.Errorf("task %d: priority %v inconsistent with slack (want %v)", t.ID, t.Priority, got)
	}
	return nil
}

// PriorityMix gives the probability of each priority class for generated
// tasks. The evaluation (§V.A) varies these probabilities per experiment.
type PriorityMix struct {
	Low, Medium, High float64
}

// DefaultMix is the uniform mix used when an experiment does not vary
// priorities.
func DefaultMix() PriorityMix { return PriorityMix{Low: 1.0 / 3, Medium: 1.0 / 3, High: 1.0 / 3} }

// Normalize scales the mix so the probabilities sum to one. A zero mix
// becomes the default mix.
func (m PriorityMix) Normalize() PriorityMix {
	sum := m.Low + m.Medium + m.High
	if sum <= 0 {
		return DefaultMix()
	}
	return PriorityMix{Low: m.Low / sum, Medium: m.Medium / sum, High: m.High / sum}
}

// Validate rejects negative weights.
func (m PriorityMix) Validate() error {
	if m.Low < 0 || m.Medium < 0 || m.High < 0 {
		return fmt.Errorf("workload: negative priority-mix weight %+v", m)
	}
	return nil
}

// GenConfig parameterises the workload generator exactly along the knobs
// the paper's evaluation section exposes.
type GenConfig struct {
	// NumTasks is N, the number of tasks (500-3000 in §V.A).
	NumTasks int
	// MeanInterArrival is the Poisson inter-arrival mean (5 time units).
	MeanInterArrival float64
	// MinSizeMI and MaxSizeMI bound the uniform task-size distribution
	// (600-7200 MI in §V.A, citing [23]).
	MinSizeMI, MaxSizeMI float64
	// SlowestSpeedMIPS is the speed of the referred (slowest) resource
	// used to compute ACT. The platform generator supplies it.
	SlowestSpeedMIPS float64
	// Mix sets the priority-class probabilities.
	Mix PriorityMix
}

// DefaultGenConfig returns the §V.A defaults. The slowest speed defaults to
// 500 MIPS, the lower bound of the processor-speed distribution.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		NumTasks:         1000,
		MeanInterArrival: 5,
		MinSizeMI:        600,
		MaxSizeMI:        7200,
		SlowestSpeedMIPS: 500,
		Mix:              DefaultMix(),
	}
}

// Validate checks the configuration for usability.
func (c GenConfig) Validate() error {
	switch {
	case c.NumTasks <= 0:
		return fmt.Errorf("workload: NumTasks must be positive, got %d", c.NumTasks)
	case c.MeanInterArrival <= 0:
		return fmt.Errorf("workload: MeanInterArrival must be positive, got %g", c.MeanInterArrival)
	case c.MinSizeMI <= 0 || c.MaxSizeMI < c.MinSizeMI:
		return fmt.Errorf("workload: invalid size range [%g, %g]", c.MinSizeMI, c.MaxSizeMI)
	case c.SlowestSpeedMIPS <= 0:
		return fmt.Errorf("workload: SlowestSpeedMIPS must be positive, got %g", c.SlowestSpeedMIPS)
	}
	return c.Mix.Validate()
}

// slackFor draws a deadline slack (add_t/ACT) that lands in the class p.
func slackFor(p Priority, r *rng.Stream) float64 {
	switch p {
	case PriorityHigh:
		return r.Uniform(0, HighSlackMax)
	case PriorityLow:
		return r.Uniform(LowSlackMin, MaxSlack)
	default:
		return r.Uniform(HighSlackMax, LowSlackMin)
	}
}

// Generate produces a workload of cfg.NumTasks tasks in arrival order.
// All randomness is drawn from r, so identical (cfg, stream) pairs yield
// identical workloads. It is the materialising adapter over NewGenerator;
// large-scale runs should consume the Source directly instead.
func Generate(cfg GenConfig, r *rng.Stream) ([]*Task, error) {
	src, err := NewGenerator(cfg, r)
	if err != nil {
		return nil, err
	}
	return collect(make([]*Task, 0, cfg.NumTasks), src), nil
}

// MustGenerate is Generate but panics on configuration errors; intended
// for tests and examples with known-good configs.
func MustGenerate(cfg GenConfig, r *rng.Stream) []*Task {
	tasks, err := Generate(cfg, r)
	if err != nil {
		panic(err)
	}
	return tasks
}

// SortEDF sorts tasks in place by absolute deadline, earliest first
// (the TG technique orders group members by EDF, §IV.D). Ties break by ID
// for determinism. The sort is typed and stable, so it neither allocates
// nor reflects, and it yields the permutation of sort.SliceStable under
// the same order.
func SortEDF(tasks []*Task) {
	slices.SortStableFunc(tasks, func(a, b *Task) int {
		da, db := a.AbsoluteDeadline(), b.AbsoluteDeadline()
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// TotalSize returns Σ s_i over the tasks.
func TotalSize(tasks []*Task) float64 {
	sum := 0.0
	for _, t := range tasks {
		sum += t.SizeMI
	}
	return sum
}

// TotalDeadline returns Σ d_i over the tasks (denominator of Eq. 10).
func TotalDeadline(tasks []*Task) float64 {
	sum := 0.0
	for _, t := range tasks {
		sum += t.Deadline
	}
	return sum
}
