// Package experiments defines the paper's evaluation (§V) as runnable
// experiment specifications: one constructor per figure (7-12), each
// returning the same series the paper plots.
//
// Scaling note (documented in EXPERIMENTS.md): the paper's stated
// parameters are internally inconsistent — a platform of 25-200 multi-
// processor nodes cannot reach 60-90% utilisation (Figures 9/10) from a
// single Poisson stream with a 5-time-unit inter-arrival mean, nor can
// response times rise 7x between 500 and 3000 tasks (Figure 7) unless the
// task count varies within a fixed observation period (which is exactly
// how Experiment 2 defines lightly/heavily loaded states: "the number of
// incoming tasks during a particular period of time"). The default profile
// therefore fixes the observation period so that N=500 reproduces the
// stated 5-unit inter-arrival mean, scales task sizes so that N=3000
// saturates the platform at ~90% offered load, and sizes the platform at
// the small end of the paper's ranges. All knobs are explicit in Profile.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"

	"rlsched/internal/baselines/cooperative"
	"rlsched/internal/baselines/onlinerl"
	"rlsched/internal/baselines/predictive"
	"rlsched/internal/baselines/qplus"
	"rlsched/internal/core"
	"rlsched/internal/obs"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// PolicyName identifies one of the four learning approaches of
// Experiment 1.
type PolicyName string

// The four policies compared in §V.B.
const (
	AdaptiveRL PolicyName = "adaptive-rl"
	OnlineRL   PolicyName = "online-rl"
	QPlus      PolicyName = "q+-learning"
	Predictive PolicyName = "prediction-based"
	// Greedy is the non-learning reference policy (not part of the
	// paper's comparison; Figure E1's reference and the no-learning arm
	// of the cmd/experiments -ablations table).
	Greedy PolicyName = "greedy"
	// RoundRobin and Random are naive lower-bound references.
	RoundRobin PolicyName = "round-robin"
	Random     PolicyName = "random"
	// Cooperative is the game-theoretic strategy the paper's related work
	// cites ([19]); an extension to the comparison set.
	Cooperative PolicyName = "cooperative-game"
)

// AllPolicies lists the Experiment-1 comparison set in the paper's order.
var AllPolicies = []PolicyName{AdaptiveRL, OnlineRL, QPlus, Predictive}

// NewPolicy constructs a fresh policy instance by name.
func NewPolicy(name PolicyName) (sched.Policy, error) {
	switch name {
	case AdaptiveRL:
		return core.NewDefault(), nil
	case Greedy:
		return sched.NewGreedy(), nil
	case RoundRobin:
		return sched.NewRoundRobin(), nil
	case Random:
		return sched.NewRandom(), nil
	case Cooperative:
		return cooperative.NewDefault(), nil
	case OnlineRL:
		return onlinerl.NewDefault(), nil
	case QPlus:
		return qplus.NewDefault(), nil
	case Predictive:
		return predictive.NewDefault(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// Profile bundles every knob of an experiment campaign.
type Profile struct {
	// Platform is the generator configuration (§V.A ranges).
	Platform platform.GenConfig
	// ObservationPeriod is the arrival span in time units. The mean
	// inter-arrival time for N tasks is ObservationPeriod / N, so N=500
	// yields the paper's stated mean of 5 and larger N raises the load
	// (§V.B Experiment 2's definition of lightly/heavily loaded).
	ObservationPeriod float64
	// SizeScale multiplies the §V.A task-size range [600, 7200] MI so the
	// stated workload saturates the scaled platform at the heavy end.
	SizeScale float64
	// Mix sets the priority probabilities (§V.A: varied per experiment).
	Mix workload.PriorityMix
	// Engine is the scheduling-framework configuration.
	Engine sched.Config
	// Replications averages each point over this many seeds.
	Replications int
	// Seed is the base seed; replication k uses Seed+k.
	Seed uint64
	// LightTasks and HeavyTasks define the Experiment 2/3 load states.
	LightTasks, HeavyTasks int
	// Workers bounds the number of simulation points run concurrently by
	// figure sweeps and RunMany: 0 (the default) uses one worker per
	// available CPU, 1 runs the exact serial path. Every point derives its
	// randomness purely from its RunSpec, so results are bit-identical at
	// any worker count; only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is invoked once after every completed
	// simulation point (replications included) by RunMany and the figure
	// sweeps with that point's Result.Stats, wherever it ran: a RunPoints
	// executor reports cached and remote points the same way. It fires
	// once per index of the call's point list: a repeated spec, which
	// includes a point two figures of one Figures call share, runs once
	// and its copies tick with zero counters, so summed counters count
	// real runs only. It is called from worker goroutines concurrently,
	// so it must be safe for concurrent use and cheap. Runtime-only:
	// never serialised, never affects results.
	Progress func(sched.RunStats) `json:"-"`
	// Metrics, when non-nil, receives campaign telemetry: RunManyCtx
	// records each completed point's wall-clock duration into a
	// point_run_seconds histogram. Like Progress it is runtime-only and
	// never affects results; a nil registry costs nothing (not even a
	// clock read).
	Metrics *obs.Registry `json:"-"`
	// Logger, when non-nil, receives a warning for every point whose
	// wall-clock duration exceeds SlowPointSec. Runtime-only.
	Logger *slog.Logger `json:"-"`
	// SlowPointSec is the slow-point warning threshold in seconds; 0 (the
	// default) disables the warnings.
	SlowPointSec float64
	// RunPoints, when non-nil, replaces the local point executor:
	// RunManyCtx hands it the expanded spec list with repeats removed
	// (each distinct point once, in first-occurrence order) and copies
	// its results back into every index, instead of fanning the points
	// over local worker goroutines. The rlsimd daemon uses it to route campaign
	// points through its content-addressed result cache and, in cluster
	// mode, across peer workers. Implementations must honour the local
	// contract: results in spec order, bit-identical to a local run (the
	// spec carries all randomness), lowest-index error on failure, and
	// the profile's Progress hook invoked once per completed point. An
	// executor that calls PointSpan passes indices into the list it was
	// handed, not the call-wide indices a local run reports.
	//
	// The hook is bypassed — the campaign runs locally — whenever the
	// profile carries in-process instrumentation that cannot follow a
	// point to another machine (see InProcess). Runtime-only, never
	// serialised.
	RunPoints func(ctx context.Context, p Profile, specs []RunSpec) ([]sched.Result, error) `json:"-"`
	// RecordersFor, when non-nil, supplies each simulation point's
	// recorders: RunManyCtx (and everything built on it — figures,
	// sweeps, the daemon) calls it once per point, from worker goroutines
	// concurrently, with the point's index and its spec; the returned set
	// replaces Engine.Recorders for that run. The index is the point's
	// position in the call's point list: the expanded spec list of a
	// RunManyCtx call, or the merged lists of a Figures call laid end to
	// end. It is unique within the call and the same at any worker count.
	// Because its recorders are per index, a campaign with this hook (or
	// any InProcess one) runs every index, repeated specs included.
	// A direct Run or RunWith calls it as point 0. Its presence forces
	// the campaign to run locally (see InProcess). Runtime-only, like
	// Progress: no recorder affects results.
	RecordersFor func(index int, spec RunSpec) sched.Recorders `json:"-"`
	// PointSpan, when non-nil, brackets every locally executed simulation
	// point: RunManyCtx calls it just before point i runs with the
	// point's index (as for RecordersFor) and its spec, and calls the
	// returned function with the run's error once the point finishes.
	// Only simulated points are bracketed: a repeated spec is bracketed
	// once, under the index of its first occurrence. The
	// rlsimd daemon uses it to time each local run into a job's span
	// trace (as engine.run or local.fallback spans). Called from worker
	// goroutines concurrently, so implementations must be safe for
	// concurrent use. Runtime-only, never serialised, never affects
	// results; a nil hook costs one nil check.
	PointSpan func(index int, spec RunSpec) func(err error) `json:"-"`
}

// InProcess reports whether the profile carries in-process
// instrumentation: a RecordersFor hook or an Engine recorder. Such a
// recorder is fed by the engine run itself, so it cannot follow a point
// to another machine or be filled from the result cache: RunManyCtx then
// bypasses RunPoints and runs the campaign locally.
func (p Profile) InProcess() bool {
	r := p.Engine.Recorders
	return p.RecordersFor != nil || r.Tracer != nil || r.Probe != nil || r.Audit != nil
}

// DefaultProfile returns the tuned defaults used for every figure.
func DefaultProfile() Profile {
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 5
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	// §III.C defines exactly two power levels (p_max busy, p_min idle at
	// ~50% of peak); there is no deep-sleep level in the paper's model.
	// The sleep state the Q+ baseline drives is therefore configured just
	// below idle (a C1-style halt), so its decisions play out inside the
	// paper's energy model rather than inventing a third level.
	pcfg.SleepPowerW = 40
	return Profile{
		Platform:          pcfg,
		ObservationPeriod: 2500,
		SizeScale:         5.6,
		Mix:               workload.DefaultMix(),
		Engine:            sched.DefaultConfig(),
		Replications:      3,
		Seed:              1,
		LightTasks:        500,
		HeavyTasks:        3000,
	}
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if err := p.Platform.Validate(); err != nil {
		return err
	}
	if err := p.Engine.Validate(); err != nil {
		return err
	}
	switch {
	case p.ObservationPeriod <= 0:
		return fmt.Errorf("experiments: ObservationPeriod must be positive, got %g", p.ObservationPeriod)
	case p.SizeScale <= 0:
		return fmt.Errorf("experiments: SizeScale must be positive, got %g", p.SizeScale)
	case p.Replications < 1:
		return fmt.Errorf("experiments: Replications must be >= 1, got %d", p.Replications)
	case p.LightTasks < 1 || p.HeavyTasks < p.LightTasks:
		return fmt.Errorf("experiments: invalid light/heavy task counts %d/%d", p.LightTasks, p.HeavyTasks)
	case p.Workers < 0:
		return fmt.Errorf("experiments: Workers must be >= 0, got %d", p.Workers)
	case p.SlowPointSec < 0:
		return fmt.Errorf("experiments: SlowPointSec must be >= 0, got %g", p.SlowPointSec)
	}
	return p.Mix.Validate()
}

// RunSpec is a single simulation point.
type RunSpec struct {
	Policy PolicyName
	// NumTasks is N.
	NumTasks int
	// HeterogeneityCV, when positive, overrides the platform's speed
	// distribution (Experiment 3).
	HeterogeneityCV float64
	// Seed for this replication.
	Seed uint64
}

// PointLabel renders the canonical human-readable identity of one
// simulation point. The daemon's series endpoints and the CLIs' series
// exports all label recorded runs with it, so the same point carries
// the same label everywhere.
func PointLabel(s RunSpec) string {
	return fmt.Sprintf("%s n=%d cv=%g seed=%d", s.Policy, s.NumTasks, s.HeterogeneityCV, s.Seed)
}

// Build constructs the platform and workload for one simulation point
// without running it, so callers can inspect or reuse the scenario (e.g.
// to run a custom policy on it via RunWith).
func Build(p Profile, spec RunSpec) (*platform.Platform, []*workload.Task, error) {
	pl, tasks, _, err := buildScenario(p, spec, workload.Generate)
	return pl, tasks, err
}

// workloadGen produces the task list for one scenario; it exists so the
// bursty extension (Figure E2) can run its points with a different
// generator.
type workloadGen func(workload.GenConfig, *rng.Stream) ([]*workload.Task, error)

// buildScenario constructs the platform and workload for one simulation
// point and returns the scenario stream positioned just past the
// "platform" and "workload" splits, so a caller's next split (e.g.
// "engine") continues the exact deterministic draw sequence — rather than
// re-deriving a second stream and replaying the splits by hand.
func buildScenario(p Profile, spec RunSpec, gen workloadGen) (*platform.Platform, []*workload.Task, *rng.Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if spec.NumTasks < 1 {
		return nil, nil, nil, fmt.Errorf("experiments: NumTasks must be >= 1, got %d", spec.NumTasks)
	}
	r := scenarioStream(spec)
	pcfg := p.Platform
	pcfg.HeterogeneityCV = spec.HeterogeneityCV
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	if err != nil {
		return nil, nil, nil, err
	}
	// Deadlines reference the referred slowest resource (§III.A), which
	// the heterogeneity model pins at the platform's configured minimum
	// speed, so deadline tightness is comparable across the Experiment 3
	// sweep. Task sizes scale with the heterogeneous platform's mean
	// speed so the offered load stays constant across the sweep as well —
	// otherwise capacity growth, not heterogeneity, would dominate the
	// trend.
	loadScale := p.SizeScale * pcfg.MeanSpeed() / p.Platform.MeanSpeed()
	wcfg := workload.GenConfig{
		NumTasks:         spec.NumTasks,
		MeanInterArrival: p.ObservationPeriod / float64(spec.NumTasks),
		MinSizeMI:        600 * loadScale,
		MaxSizeMI:        7200 * loadScale,
		SlowestSpeedMIPS: p.Platform.MinSpeedMIPS,
		Mix:              p.Mix,
	}
	tasks, err := gen(wcfg, r.Split("workload"))
	if err != nil {
		return nil, nil, nil, err
	}
	return pl, tasks, r, nil
}

// scenarioStream derives the deterministic stream for a run point.
func scenarioStream(spec RunSpec) *rng.Stream {
	return rng.NewStream(spec.Seed, fmt.Sprintf("%s-n%d-cv%g", spec.Policy, spec.NumTasks, spec.HeterogeneityCV))
}

// RunWith executes one simulation point with a caller-supplied policy
// instance (which must be fresh: policies carry learned state).
func RunWith(p Profile, spec RunSpec, policy sched.Policy) (sched.Result, error) {
	return runScenario(p, 0, spec, policy, workload.Generate)
}

// runScenario builds a scenario with gen and runs it under policy, using
// the single stream buildScenario hands back for the engine split, with
// the recorders RecordersFor gives the point at index (0 for a direct
// Run or RunWith). A
// panic escaping the engine or the policy (the engine already converts
// its own invariant violations into a returned *InvariantError) is
// recovered into a *PointError so one corrupted point fails its caller,
// never the process.
func runScenario(p Profile, index int, spec RunSpec, policy sched.Policy, gen workloadGen) (res sched.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = sched.Result{}, &PointError{Point: spec, Index: -1, Panic: r, Stack: string(debug.Stack())}
		}
	}()
	pl, tasks, r, err := buildScenario(p, spec, gen)
	if err != nil {
		return sched.Result{}, err
	}
	if p.RecordersFor != nil {
		p.Engine.Recorders = p.RecordersFor(index, spec)
	}
	eng, err := sched.New(p.Engine, pl, tasks, policy, r.Split("engine"))
	if err != nil {
		return sched.Result{}, err
	}
	return eng.Run()
}

// Run executes one simulation point under the profile.
func Run(p Profile, spec RunSpec) (sched.Result, error) {
	return runGen(p, 0, spec, workload.Generate)
}

// runGen is Run of the point at index with the workload generator gen.
func runGen(p Profile, index int, spec RunSpec, gen workloadGen) (sched.Result, error) {
	policy, err := NewPolicy(spec.Policy)
	if err != nil {
		return sched.Result{}, err
	}
	return runScenario(p, index, spec, policy, gen)
}

// PointStat aggregates one metric over the profile's replications.
type PointStat struct {
	Mean, CI95 float64
	N          int
}
