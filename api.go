package rlsched

import (
	"context"
	"fmt"
	"io"

	"rlsched/internal/audit"
	"rlsched/internal/cache"
	"rlsched/internal/cluster"
	"rlsched/internal/config"
	"rlsched/internal/core"
	"rlsched/internal/experiments"
	"rlsched/internal/metrics"
	"rlsched/internal/obs/span"
	"rlsched/internal/platform"
	"rlsched/internal/probe"
	"rlsched/internal/report"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/server"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

// Core experiment types. These are aliases into the implementation so the
// full method sets remain available through the public API.
type (
	// Profile bundles every knob of an experiment campaign: platform
	// generation, workload scaling, engine parameters, replication count,
	// base seed and the Workers parallelism bound (0 = one worker per CPU,
	// 1 = serial; results are bit-identical at any worker count).
	Profile = experiments.Profile
	// RunSpec selects a single simulation point: policy, task count,
	// optional heterogeneity override and seed.
	RunSpec = experiments.RunSpec
	// Result is the summary of one simulation run (response time, energy,
	// success rate, utilisation series, engine counters).
	Result = sched.Result
	// PolicyName names one of the scheduling policies.
	PolicyName = experiments.PolicyName
	// Figure is a reproduced evaluation figure (labelled series).
	Figure = experiments.Figure
	// Series is one labelled line of a figure.
	Series = experiments.Series
	// Policy is the scheduling-decision interface; implement it to plug a
	// custom policy into the engine.
	Policy = sched.Policy

	// EngineConfig holds scheduling-framework parameters (merge-buffer
	// timeouts, decision interval, split/dispatch switches, tracing).
	EngineConfig = sched.Config
	// EngineRecorders are one run's tracer, probe, decision audit and
	// record log, as EngineConfig embeds them and Profile.RecordersFor
	// returns them.
	EngineRecorders = sched.Recorders
	// Records is the opt-in log of one run's task and group completions:
	// attach a new(Records) via EngineConfig.Records (single run) or
	// Profile.RecordersFor (one per campaign point) to export record CSVs
	// or read exact response-time percentiles. A run without one keeps
	// only counters, so its memory does not grow with the task count.
	Records = metrics.Records
	// RunStats are one run's engine counters, as Profile.Progress gets them.
	RunStats = sched.RunStats
	// PlatformConfig parameterises random platform generation (§V.A
	// ranges, power levels, heterogeneity control).
	PlatformConfig = platform.GenConfig
	// Platform is a generated target system.
	Platform = platform.Platform
	// WorkloadConfig parameterises the synthetic task generator (§III.A).
	WorkloadConfig = workload.GenConfig
	// Task is a single unit of arrival, T_i = {s_i, d_i}.
	Task = workload.Task
	// PriorityMix sets the probability of each task-priority class.
	PriorityMix = workload.PriorityMix
	// Engine wires a platform, workload and policy into one run.
	Engine = sched.Engine
	// InvariantError is the typed error Engine.Run returns when an
	// internal scheduling invariant breaks — a model bug, distinct from
	// infrastructure faults and never worth retrying.
	InvariantError = sched.InvariantError
	// PointError is the typed error the campaign runner returns when one
	// simulation point panics; it carries the point's spec and the stack.
	PointError = experiments.PointError
	// Stream is the deterministic random number generator feeding every
	// stochastic component.
	Stream = rng.Stream
	// ConfigFile is the JSON schema wrapping a Profile on disk.
	ConfigFile = config.File
)

// The policies compared in the paper's Experiment 1, plus the non-learning
// greedy reference.
const (
	AdaptiveRL = experiments.AdaptiveRL
	OnlineRL   = experiments.OnlineRL
	QPlus      = experiments.QPlus
	Predictive = experiments.Predictive
	Greedy     = experiments.Greedy
)

// AllPolicies lists the Experiment-1 comparison set in the paper's order.
func AllPolicies() []PolicyName {
	return append([]PolicyName(nil), experiments.AllPolicies...)
}

// DefaultProfile returns the tuned profile used to regenerate every
// figure; see EXPERIMENTS.md for how its scaling relates to §V.A.
func DefaultProfile() Profile { return experiments.DefaultProfile() }

// Run executes one simulation point under the profile.
func Run(p Profile, spec RunSpec) (Result, error) { return experiments.Run(p, spec) }

// RunMany executes a batch of simulation points, fanned over
// Profile.Workers goroutines, and returns results in spec order. Every
// point derives its randomness from its RunSpec alone, so the results
// are bit-identical to running the specs serially. A spec listed more
// than once runs once: its copies tick Profile.Progress with zero
// counters and share one Result's slices and Collector, so treat the
// results as read-only.
func RunMany(p Profile, specs []RunSpec) ([]Result, error) { return experiments.RunMany(p, specs) }

// NewPolicy constructs a fresh policy instance by name.
func NewPolicy(name PolicyName) (Policy, error) { return experiments.NewPolicy(name) }

// NewStream returns a deterministic random stream for seed; derive
// independent child streams with Split.
func NewStream(seed uint64, name string) *Stream { return rng.NewStream(seed, name) }

// GeneratePlatform builds a random platform from the configuration.
func GeneratePlatform(cfg PlatformConfig, r *Stream) (*Platform, error) {
	return platform.Generate(cfg, r)
}

// DefaultPlatformConfig returns the §V.A platform ranges.
func DefaultPlatformConfig() PlatformConfig { return platform.DefaultGenConfig() }

// GenerateWorkload produces a task stream from the configuration.
func GenerateWorkload(cfg WorkloadConfig, r *Stream) ([]*Task, error) {
	return workload.Generate(cfg, r)
}

// DefaultWorkloadConfig returns the §V.A workload parameters.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultGenConfig() }

// DefaultEngineConfig returns the scheduling-framework defaults.
func DefaultEngineConfig() EngineConfig { return sched.DefaultConfig() }

// NewEngine wires a platform, a workload and a policy into a simulation.
// Call Run on the result to execute it.
func NewEngine(cfg EngineConfig, pl *Platform, tasks []*Task, policy Policy, r *Stream) (*Engine, error) {
	return sched.New(cfg, pl, tasks, policy, r)
}

// FigureByID regenerates one figure by identifier: "7".."12", "E1".."E3"
// or their "figureN" forms.
func FigureByID(p Profile, id string) (Figure, error) {
	return experiments.FigureByID(context.Background(), p, id)
}

// AllFigureIDs lists the reproducible paper figures in paper order.
func AllFigureIDs() []string {
	ids, _ := experiments.FigureIDs(experiments.FigureIDAll) // a table group: never an error
	return ids
}

// AllFigures regenerates every figure under the profile.
func AllFigures(p Profile) ([]Figure, error) {
	return experiments.Figures(context.Background(), p, experiments.FigureIDAll)
}

// RenderTable renders a figure as an aligned text table.
func RenderTable(fig Figure) string { return report.Table(fig) }

// RenderChart renders a figure as an ASCII chart of the given size.
func RenderChart(fig Figure, width, height int) string { return report.Chart(fig, width, height) }

// RenderCSV renders a figure as long-form CSV.
func RenderCSV(fig Figure) string { return report.CSV(fig) }

// LoadConfig reads a JSON profile file.
func LoadConfig(path string) (ConfigFile, error) { return config.Load(path) }

// SaveConfig writes a JSON profile file.
func SaveConfig(path string, f ConfigFile) error { return config.Save(path, f) }

// DefaultConfigFile wraps the default profile for saving.
func DefaultConfigFile() ConfigFile { return config.Default() }

// AdaptiveRLConfig exposes the Adaptive-RL hyper-parameters (exploration
// schedule, shared-memory / dual-feedback / neural-net switches) for
// tuning and ablation studies.
type AdaptiveRLConfig = core.Config

// DefaultAdaptiveRLConfig returns the tuned Adaptive-RL defaults.
func DefaultAdaptiveRLConfig() AdaptiveRLConfig { return core.DefaultConfig() }

// NewAdaptiveRLPolicy constructs an Adaptive-RL policy with a custom
// configuration; pass it to RunWith or NewEngine.
func NewAdaptiveRLPolicy(cfg AdaptiveRLConfig) (Policy, error) { return core.New(cfg) }

// BuildScenario constructs the platform and workload for a run point
// without executing it.
func BuildScenario(p Profile, spec RunSpec) (*Platform, []*Task, error) {
	return experiments.Build(p, spec)
}

// RunWith executes one simulation point with a caller-supplied policy
// instance (which must be fresh: policies carry learned state).
func RunWith(p Profile, spec RunSpec, policy Policy) (Result, error) {
	return experiments.RunWith(p, spec, policy)
}

// WriteWorkloadTrace serialises tasks to CSV (id, arrival, size, ACT,
// deadline, priority) for editing or replay.
func WriteWorkloadTrace(w io.Writer, tasks []*Task) error {
	return workload.WriteTrace(w, tasks)
}

// ReadWorkloadTrace parses a CSV task trace (validated, arrival-ordered)
// ready to drive NewEngine.
func ReadWorkloadTrace(r io.Reader) ([]*Task, error) {
	return workload.ReadTrace(r)
}

// BurstyWorkloadConfig extends the workload generator with an on/off
// modulated Poisson arrival process (same long-run rate, bursty shape).
type BurstyWorkloadConfig = workload.BurstyConfig

// DefaultBurstyWorkloadConfig returns a 4x burst every ~5 gap-lengths.
func DefaultBurstyWorkloadConfig() BurstyWorkloadConfig { return workload.DefaultBurstyConfig() }

// GenerateBurstyWorkload produces a bursty task stream.
func GenerateBurstyWorkload(cfg BurstyWorkloadConfig, r *Stream) ([]*Task, error) {
	return workload.GenerateBursty(cfg, r)
}

// RenderMarkdown renders a figure as a GitHub-flavoured markdown table.
func RenderMarkdown(fig Figure) string { return report.Markdown(fig) }

// SaveAdaptiveRLCheckpoint serialises a trained Adaptive-RL policy's
// learned state (networks, memory, exploration counters) as JSON.
func SaveAdaptiveRLCheckpoint(w io.Writer, p Policy) error {
	a, ok := p.(*core.AdaptiveRL)
	if !ok {
		return fmt.Errorf("rlsched: %T is not an Adaptive-RL policy", p)
	}
	return a.SaveCheckpoint(w)
}

// LoadAdaptiveRLCheckpoint restores a trained Adaptive-RL policy; the
// result preserves its learning across subsequent runs.
func LoadAdaptiveRLCheckpoint(r io.Reader) (Policy, error) {
	return core.LoadCheckpoint(r)
}

// SWFConfig controls conversion of Standard Workload Format traces
// (Parallel Workloads Archive) into tasks.
type SWFConfig = workload.SWFConfig

// DefaultSWFConfig returns a conversion preserving trace seconds as time
// units against a 500 MIPS reference.
func DefaultSWFConfig() SWFConfig { return workload.DefaultSWFConfig() }

// ReadSWFWorkload imports an SWF trace as a task stream.
func ReadSWFWorkload(r io.Reader, cfg SWFConfig) ([]*Task, error) {
	return workload.ReadSWF(r, cfg)
}

// Timeline is a tracer that reconstructs the per-processor execution
// schedule (Gantt chart) of a run; attach it via EngineConfig.Tracer and
// export with WriteCSV.
type Timeline = trace.Timeline

// NewTimeline creates an empty timeline collector.
func NewTimeline() *Timeline { return trace.NewTimeline() }

// Simulation-as-a-service types, backing the rlsimd daemon. JobSpec is
// the wire schema of one submitted job; JobServer is the embeddable
// http.Handler implementing the /v1/jobs API.
type (
	// JobSpec describes one daemon job: a figure to regenerate or an
	// explicit point list, plus a profile.
	JobSpec = config.JobSpec
	// JobState is the lifecycle state of a submitted job.
	JobState = server.State
	// JobStatus is the wire snapshot of one job's progress.
	JobStatus = server.JobStatus
	// JobResult is the payload returned for a completed job.
	JobResult = server.JobResult
	// JobServer is the job-queue HTTP handler served by cmd/rlsimd.
	JobServer = server.Server
	// JobServerOptions sizes the worker pool and queue of a JobServer.
	JobServerOptions = server.Options
)

// Job kinds accepted by JobSpec.Kind.
const (
	JobKindFigure = config.JobFigure
	JobKindPoints = config.JobPoints
	JobKindScale  = config.JobScale
)

// NewJobServer builds a job-queue server; serve it with net/http and
// stop it with Shutdown. The error return covers an unusable spool
// directory when JobServerOptions.SpoolDir enables the durable journal.
func NewJobServer(opts JobServerOptions) (*JobServer, error) { return server.New(opts) }

// MarshalJobSpec renders a job spec as indented JSON, refusing invalid
// specs; UnmarshalJobSpec is its strict inverse (unknown fields and
// malformed shapes are rejected, omitted profile fields keep defaults).
func MarshalJobSpec(s JobSpec) ([]byte, error) { return config.MarshalJob(s) }

// UnmarshalJobSpec parses and validates a JSON job spec.
func UnmarshalJobSpec(data []byte) (JobSpec, error) { return config.UnmarshalJob(data) }

// RunManyContext is RunMany under a context: cancelling ctx stops
// launching new points and returns ctx's error. Like RunMany it runs a
// repeated spec once and shares its Result among the copies.
func RunManyContext(ctx context.Context, p Profile, specs []RunSpec) ([]Result, error) {
	return experiments.RunManyCtx(ctx, p, specs)
}

// FigureByIDContext is FigureByID under a context.
func FigureByIDContext(ctx context.Context, p Profile, id string) (Figure, error) {
	return experiments.FigureByID(ctx, p, id)
}

// AllFiguresContext is AllFigures under a context.
func AllFiguresContext(ctx context.Context, p Profile) ([]Figure, error) {
	return experiments.Figures(ctx, p, experiments.FigureIDAll)
}

// Simulation-state probes: in-sim time-series telemetry sampled on the
// DES clock. Attach a ProbeRecorder via EngineConfig.Probe (single run)
// or Profile.RecordersFor (one recorder per campaign point), then
// Snapshot or export the recorded series.
type (
	// ProbeConfig selects sampling cadence, retention bound and series
	// families for a ProbeRecorder.
	ProbeConfig = probe.Config
	// ProbeRecorder samples registered simulation series at a sim-time
	// cadence with bounded memory.
	ProbeRecorder = probe.Recorder
	// ProbePoint is one sample: simulated time and value.
	ProbePoint = probe.Point
	// ProbeSeries is one named series with its recorded points.
	ProbeSeries = probe.Series
	// ProbeRunSeries groups the series of one simulation point under its
	// campaign index and label.
	ProbeRunSeries = probe.RunSeries
	// JobSeriesSpec is the "series" block of a daemon JobSpec.
	JobSeriesSpec = config.SeriesSpec
	// HTMLReport builds a self-contained single-file HTML run report
	// with inline SVG charts (no scripts, no external references).
	HTMLReport = report.HTMLReport
)

// NewProbeRecorder builds a recorder; the zero ProbeConfig selects the
// default cadence, retention and all series families.
func NewProbeRecorder(cfg ProbeConfig) *ProbeRecorder { return probe.NewRecorder(cfg) }

// WriteSeriesCSV exports recorded run series as long-form CSV — the
// exact bytes GET /v1/jobs/{id}/series?format=csv serves.
func WriteSeriesCSV(w io.Writer, runs []ProbeRunSeries) error {
	return probe.WriteSeriesCSV(w, runs)
}

// ReadSeriesCSV parses the CSV written by WriteSeriesCSV.
func ReadSeriesCSV(r io.Reader) ([]ProbeRunSeries, error) { return probe.ReadSeriesCSV(r) }

// PointLabel is the canonical human-readable label of a simulation
// point, shared by the CLI exports and the daemon's series endpoints.
func PointLabel(s RunSpec) string { return experiments.PointLabel(s) }

// NewHTMLReport starts an empty self-contained HTML report.
func NewHTMLReport(title string) *HTMLReport { return report.NewHTMLReport(title) }

// Decision audit: an opt-in bounded recorder of scheduling decisions —
// the observed state, the candidate actions the shared memory offered
// with their scores, the chosen action and its explore-vs-exploit kind,
// and the reward/error feedback once the group lands — plus per-agent
// learning-curve series. Attach an AuditRecorder via EngineConfig.Audit
// (single run) or Profile.RecordersFor (one per campaign point); daemon jobs
// opt in with a "decisions" block and serve the log at
// GET /v1/jobs/{id}/decisions. Auditing draws no randomness and
// schedules no events, so audited results are byte-identical to
// unaudited ones; a nil recorder costs one branch per decision site.
type (
	// AuditConfig bounds an AuditRecorder: retained decisions, candidate
	// set size, learning-curve points and per-agent series.
	AuditConfig = audit.Config
	// AuditRecorder captures scheduling decisions into a bounded
	// stride-doubling reservoir plus learning-curve series.
	AuditRecorder = audit.Recorder
	// AuditNote is the policy-side annotation of one decision (kind,
	// state, epsilon, candidate set).
	AuditNote = audit.Note
	// Decision is one recorded scheduling decision.
	Decision = audit.Decision
	// DecisionLog is the wire snapshot of one run's decision audit.
	DecisionLog = audit.Log
	// DecisionRunLog bundles a DecisionLog with its campaign point's
	// index and canonical label.
	DecisionRunLog = audit.RunLog
	// JobDecisionsSpec is the "decisions" block of a daemon JobSpec.
	JobDecisionsSpec = config.DecisionsSpec
)

// NewAuditRecorder builds a decision recorder; the zero AuditConfig
// selects the default bounds.
func NewAuditRecorder(cfg AuditConfig) *AuditRecorder { return audit.NewRecorder(cfg) }

// WriteDecisionsCSV exports recorded decision logs as CSV — the exact
// bytes GET /v1/jobs/{id}/decisions?format=csv serves.
func WriteDecisionsCSV(w io.Writer, runs []DecisionRunLog) error {
	return audit.WriteDecisionsCSV(w, runs)
}

// ReadDecisionsCSV parses the CSV written by WriteDecisionsCSV.
func ReadDecisionsCSV(r io.Reader) ([]DecisionRunLog, error) { return audit.ReadDecisionsCSV(r) }

// NewPolicyReport assembles the explainable-scheduling HTML report for a
// set of audited runs: learning curves, exploration decay, a state-space
// visitation heatmap and a top-N decision table with candidate scores.
func NewPolicyReport(title string, runs []DecisionRunLog) *HTMLReport {
	return report.NewPolicyReport(title, runs)
}

// Large-scale streaming: scenarios of thousands of sites fed a lazily
// generated arrival stream through a low-memory engine, so peak memory
// tracks the active task set rather than the total task count.
type (
	// ScaleConfig describes one large-scale streaming scenario (site
	// count, total tasks, offered load, diurnal modulation).
	ScaleConfig = experiments.ScaleConfig
	// WorkloadSource yields tasks one at a time in arrival order; the
	// engine pulls from it lazily.
	WorkloadSource = workload.Source
	// DiurnalWorkloadConfig parameterises the day/night-modulated
	// streaming task generator.
	DiurnalWorkloadConfig = workload.DiurnalConfig
)

// AllScalePresets lists the built-in scale scenario names.
func AllScalePresets() []string {
	return append([]string(nil), experiments.ScalePresets...)
}

// ScalePreset returns a named scale scenario: "small" (100 sites, 50k
// tasks), "medium" (1,000 sites, 500k) or "large" (5,000 sites, 2M).
func ScalePreset(name string) (ScaleConfig, error) { return experiments.ScalePreset(name) }

// RunScale executes one scale scenario end to end and returns its
// summary. The result's Collector is in streaming mode: headline
// metrics are exact and RTPercentile approximate. ScaleConfig.Records
// can attach a record log, at a memory cost that grows with the task
// count.
func RunScale(c ScaleConfig) (Result, error) { return experiments.RunScale(c) }

// NewEngineFromSource builds an engine that pulls tasks from a streaming
// source instead of a pre-generated slice. Its memory is O(active tasks)
// plus the cycle series; set EngineConfig.LowMemory to bound that series
// too, and leave EngineConfig.Records nil to keep no per-task records.
func NewEngineFromSource(cfg EngineConfig, pl *Platform, src WorkloadSource, policy Policy, r *Stream) (*Engine, error) {
	return sched.NewFromSource(cfg, pl, src, policy, r)
}

// NewDiurnalWorkloadSource creates a streaming generator whose arrival
// rate follows a sinusoidal day/night pattern (Lewis-Shedler thinning;
// the long-run rate matches the configured mean).
func NewDiurnalWorkloadSource(cfg DiurnalWorkloadConfig, r *Stream) (WorkloadSource, error) {
	return workload.NewDiurnalSource(cfg, r)
}

// WorkloadFromSlice adapts a pre-generated, arrival-ordered task slice
// into a streaming source.
func WorkloadFromSlice(tasks []*Task) WorkloadSource { return workload.FromSlice(tasks) }

// Distributed campaigns: every point a job runs flows through a
// content-addressed result cache (sound because results are
// bit-deterministic functions of their specs), and a daemon given peers
// fans campaign points out across worker daemons over the ordinary REST
// API. The fan-out degrades rather than fails: transient lease errors
// retry under capped backoff, straggling leases are hedged to an idle
// worker (first result wins — safe because both copies return the same
// bytes), per-worker circuit breakers stop traffic to repeatedly
// failing workers, and with no usable worker the coordinator finishes
// every point locally. See the README's "Cluster mode" and "Failure
// modes & degradation" sections.
type (
	// CacheSpec configures the result cache of a JobServer: spool
	// directory (empty: memory only) and in-memory entry bound. On
	// persistent spool I/O errors the cache degrades to memory-only
	// rather than failing jobs.
	CacheSpec = config.CacheSpec
	// ClusterSpec selects a daemon's cluster role — a worker list to
	// coordinate, or Worker mode to serve leases only — plus the
	// hardening knobs: probe timeout, circuit-breaker threshold and
	// cooldown, and the hedging delay for straggling leases.
	ClusterSpec = config.ClusterSpec
	// CacheStats reports the result cache's hit/miss/size counters.
	CacheStats = cache.Stats
	// ClusterWorkerStatus is one pool member's health snapshot, served
	// by GET /v1/cluster.
	ClusterWorkerStatus = cluster.WorkerStatus
	// ClusterStatus is the payload of GET /v1/cluster: role, worker
	// pool and cache counters.
	ClusterStatus = server.ClusterStatus
	// FullJobResult is the payload of GET /v1/jobs/{id}/result?view=full
	// for jobs submitted with "keep_results": true — the cluster lease
	// wire shape.
	FullJobResult = server.FullResult
)

// Distributed tracing: jobs submitted with "spans": true record a
// bounded per-trace span buffer across the campaign pipeline —
// coordinator dispatch, cache lookups, worker leases (stitched over
// the traceparent header) and local engine runs — served by
// GET /v1/jobs/{id}/spans as JSON or as a self-contained HTML
// waterfall with ?format=html.
type (
	// SpanRecord is one finished span on the wire: trace/span/parent
	// IDs, wall-clock bounds in Unix nanoseconds and typed attributes.
	SpanRecord = span.Record
	// JobSpansResponse is the payload of GET /v1/jobs/{id}/spans:
	// the trace ID plus every retained span and the drop counter.
	JobSpansResponse = server.SpansResponse
)

// CacheEngineVersion names the engine's deterministic-output contract;
// it is folded into every cache key, so bumping it (on any change that
// alters results bit-for-bit) retires all previous cache entries.
const CacheEngineVersion = cache.EngineVersion

// SpecHash returns the canonical content address of one simulation
// point spec: "sha256:" plus 64 lowercase hex digits over the canonical
// JSON (sorted keys, literal numbers) of
// {"engine": CacheEngineVersion, "spec": <spec>}. The format is frozen
// by a golden-value test; it only moves with a deliberate
// CacheEngineVersion bump.
func SpecHash(spec RunSpec) string { return cache.SpecHash(spec) }

// PointCacheKey returns the full content address of one point under a
// profile — the key the daemon's result cache uses. The profile is
// first reduced to its result-relevant fields, so campaign-shape knobs
// (replications, worker counts, hooks) do not fragment the cache.
func PointCacheKey(p Profile, spec RunSpec) (string, error) {
	return cache.PointKey(p.CacheFingerprint(), spec)
}
