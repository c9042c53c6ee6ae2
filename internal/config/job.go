package config

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rlsched/internal/audit"
	"rlsched/internal/experiments"
	"rlsched/internal/probe"
)

// Job kinds accepted by JobSpec.Kind.
const (
	// JobFigure regenerates one evaluation figure (or "all" paper
	// figures) under the job's profile.
	JobFigure = "figure"
	// JobPoints runs an explicit list of simulation points, exactly as
	// given (no replication expansion) — the cmd/sweep shape.
	JobPoints = "points"
	// JobScale runs one large-scale streaming scenario (see
	// experiments.ScaleConfig): thousands of sites, a lazily generated
	// arrival stream, O(active) memory. The job's profile is ignored —
	// scale scenarios derive everything from the scale block.
	JobScale = "scale"
)

// JobSpec is the wire schema of one simulation job submitted to the
// rlsimd daemon (POST /v1/jobs): a File-style profile plus what to run
// under it. Unknown keys are rejected on decode and specs are validated
// before they are queued, so a job that parses is a job that runs.
type JobSpec struct {
	// Description is free-form text carried along with the job.
	Description string `json:"description,omitempty"`
	// Kind selects the job shape: JobFigure or JobPoints. Required.
	Kind string `json:"kind"`
	// Figure identifies the figure for JobFigure jobs: "7".."12",
	// "E1".."E3", their "figureN" forms, "all" for the six paper figures
	// or "ext" for the three extension figures. Stored canonically after
	// Normalize.
	Figure string `json:"figure,omitempty"`
	// Points lists the simulation points for JobPoints jobs.
	Points []experiments.RunSpec `json:"points,omitempty"`
	// Scale configures JobScale jobs.
	Scale *ScaleSpec `json:"scale,omitempty"`
	// TimeoutSec bounds the job's wall-clock runtime in seconds; 0 means
	// no deadline. The daemon enforces it through the job's context,
	// which the runner checks between simulation points, so a job
	// overshoots its deadline by at most one point before settling as
	// "timeout".
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// MaxRetries is how many additional times the daemon re-runs the job
	// after a transient infrastructure fault (see server.ErrTransient).
	// Deterministic failures — invalid points, model bugs — are never
	// retried: re-running them reproduces the same failure. 0 means a
	// single attempt.
	MaxRetries int `json:"max_retries,omitempty"`
	// Trace, when true, attaches a bounded ring tracer to the job's
	// engine runs; the retained events are served by GET
	// /v1/jobs/{id}/trace. Off by default: an untraced job pays no
	// tracing cost at all (the endpoint then returns 404).
	Trace bool `json:"trace,omitempty"`
	// Spans, when true, records a distributed span trace of the job's
	// execution pipeline — cache lookups, cluster lease attempts (hedges
	// and retries included), worker-side engine runs — stitched across
	// daemons via a traceparent header and served by GET
	// /v1/jobs/{id}/spans (append ?format=html for a waterfall view).
	// Off by default: an untraced job pays one nil check per hook site,
	// the endpoint returns 404, and results are byte-identical either
	// way.
	Spans bool `json:"spans,omitempty"`
	// KeepResults, valid for JobPoints jobs only, makes the daemon
	// retain every point's full engine result (util windows, run stats,
	// series payloads) and serve them via GET
	// /v1/jobs/{id}/result?view=full. This is the cluster lease shape:
	// a coordinator needs the worker's full results, not the summary, to
	// assemble figures byte-identically. Off by default — full results
	// for a large campaign can dwarf the summary.
	KeepResults bool `json:"keep_results,omitempty"`
	// Series, when present, records simulation-domain time series for
	// every point the job runs; they are served by GET
	// /v1/jobs/{id}/series (and streamed live by .../series/stream).
	// Absent by default: an unprobed job pays no sampling cost at all
	// (the endpoints then return 404).
	Series *SeriesSpec `json:"series,omitempty"`
	// Decisions, when present, attaches a decision-audit recorder to every
	// point the job runs: each scheduling decision's state, candidate
	// scores, explore-vs-exploit kind and reward feedback is kept in a
	// bounded reservoir and served by GET /v1/jobs/{id}/decisions (JSON,
	// ?format=csv, ?format=html policy report; streamed live by
	// .../decisions/stream). Absent by default: an unaudited job pays no
	// audit cost at all (the endpoints then return 404) and its results
	// are byte-identical to an audited run's. A "scale" job records its
	// one run as point 0, like its series.
	Decisions *DecisionsSpec `json:"decisions,omitempty"`
	// Profile holds every experiment knob; omitted fields keep the
	// default profile's values, exactly like File.Profile.
	Profile experiments.Profile `json:"profile"`
}

// SeriesSpec configures simulation-state probes for a job: how often to
// sample, how many points to retain per series, and which series
// families to record. The zero value selects the probe package's
// defaults and all families.
type SeriesSpec struct {
	// Cadence is the sim-time interval between samples; 0 selects the
	// probe default.
	Cadence float64 `json:"cadence,omitempty"`
	// MaxPoints bounds retained points per series before merge-adjacent
	// downsampling; 0 selects the probe default.
	MaxPoints int `json:"max_points,omitempty"`
	// Select lists the series families to record (see probe.Families);
	// empty records all of them.
	Select []string `json:"select,omitempty"`
}

// DecisionsSpec configures the decision-audit recorder for a job. The
// zero value selects the audit package's defaults.
type DecisionsSpec struct {
	// MaxDecisions bounds retained decisions per point before
	// stride-doubling decimation; 0 selects the audit default.
	MaxDecisions int `json:"max_decisions,omitempty"`
	// TopK bounds the candidate actions captured per decision; 0 selects
	// the audit default.
	TopK int `json:"top_k,omitempty"`
	// MaxPoints bounds retained learning-curve points per series; 0
	// selects the audit default.
	MaxPoints int `json:"max_points,omitempty"`
}

// AuditConfig translates the spec into the audit package's config.
func (s *DecisionsSpec) AuditConfig() audit.Config {
	if s == nil {
		return audit.Config{}
	}
	return audit.Config{MaxDecisions: s.MaxDecisions, TopK: s.TopK, MaxPoints: s.MaxPoints}
}

// validate rejects malformed decisions blocks.
func (s *DecisionsSpec) validate() error {
	if s == nil {
		return nil
	}
	if s.MaxDecisions < 0 {
		return fmt.Errorf("config: decisions max_decisions must be >= 0, got %d", s.MaxDecisions)
	}
	if s.TopK < 0 {
		return fmt.Errorf("config: decisions top_k must be >= 0, got %d", s.TopK)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("config: decisions max_points must be >= 0, got %d", s.MaxPoints)
	}
	return nil
}

// ScaleSpec is the wire form of one large-scale streaming scenario: a
// preset name plus optional overrides.
type ScaleSpec struct {
	// Preset names the scenario size: "small", "medium" or "large".
	Preset string `json:"preset"`
	// Sites and NumTasks override the preset when positive.
	Sites    int `json:"sites,omitempty"`
	NumTasks int `json:"num_tasks,omitempty"`
	// Policy overrides the preset's policy when non-empty.
	Policy experiments.PolicyName `json:"policy,omitempty"`
	// Seed overrides the preset's seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
}

// Config resolves the spec into a runnable experiments.ScaleConfig.
func (s *ScaleSpec) Config() (experiments.ScaleConfig, error) {
	if s == nil {
		return experiments.ScaleConfig{}, fmt.Errorf("config: %q job needs a scale block", JobScale)
	}
	c, err := experiments.ScalePreset(s.Preset)
	if err != nil {
		return experiments.ScaleConfig{}, fmt.Errorf("config: %w", err)
	}
	if s.Sites > 0 {
		c.Sites = s.Sites
	}
	if s.NumTasks > 0 {
		c.NumTasks = s.NumTasks
	}
	if s.Policy != "" {
		c.Policy = s.Policy
	}
	if s.Seed != 0 {
		c.Seed = s.Seed
	}
	return c, nil
}

// ProbeConfig translates the spec into the probe package's config.
func (s *SeriesSpec) ProbeConfig() probe.Config {
	if s == nil {
		return probe.Config{}
	}
	return probe.Config{Cadence: s.Cadence, MaxPoints: s.MaxPoints, Series: s.Select}
}

// validate rejects malformed series blocks.
func (s *SeriesSpec) validate() error {
	if s == nil {
		return nil
	}
	if s.Cadence < 0 {
		return fmt.Errorf("config: series cadence must be >= 0, got %g", s.Cadence)
	}
	if s.MaxPoints < 0 {
		return fmt.Errorf("config: series max_points must be >= 0, got %d", s.MaxPoints)
	}
	for _, f := range s.Select {
		if !probe.ValidFamily(f) {
			return fmt.Errorf("config: unknown series family %q (want one of %v)", f, probe.Families)
		}
	}
	return nil
}

// defaultJobSpec is the decode base: omitted profile fields keep their
// defaults while Kind stays empty so an empty body cannot silently queue
// a whole campaign.
func defaultJobSpec() JobSpec {
	return JobSpec{Profile: experiments.DefaultProfile()}
}

// Normalize validates the spec and returns a copy with the figure alias
// resolved to its canonical identifier and empty lists dropped.
func (s JobSpec) Normalize() (JobSpec, error) {
	if err := s.Profile.Validate(); err != nil {
		return JobSpec{}, fmt.Errorf("config: invalid profile: %w", err)
	}
	if s.TimeoutSec < 0 {
		return JobSpec{}, fmt.Errorf("config: timeout_sec must be >= 0, got %g", s.TimeoutSec)
	}
	if s.MaxRetries < 0 {
		return JobSpec{}, fmt.Errorf("config: max_retries must be >= 0, got %d", s.MaxRetries)
	}
	if err := s.Series.validate(); err != nil {
		return JobSpec{}, err
	}
	if err := s.Decisions.validate(); err != nil {
		return JobSpec{}, err
	}
	// An empty list means what an absent one does; keep it absent, as
	// MarshalJob's omitempty would, so a spec survives its JSON round trip.
	if len(s.Points) == 0 {
		s.Points = nil
	}
	if s.Series != nil && len(s.Series.Select) == 0 {
		series := *s.Series
		series.Select = nil
		s.Series = &series
	}
	if s.Kind != JobScale && s.Scale != nil {
		return JobSpec{}, fmt.Errorf("config: %q job must not set scale", s.Kind)
	}
	if s.KeepResults && s.Kind != JobPoints {
		return JobSpec{}, fmt.Errorf("config: keep_results is only valid for %q jobs", JobPoints)
	}
	switch s.Kind {
	case JobFigure:
		if len(s.Points) != 0 {
			return JobSpec{}, fmt.Errorf("config: %q job must not set points", JobFigure)
		}
		canon, err := experiments.CanonicalFigureID(s.Figure)
		if err != nil {
			return JobSpec{}, fmt.Errorf("config: %w", err)
		}
		s.Figure = canon
	case JobPoints:
		if s.Figure != "" {
			return JobSpec{}, fmt.Errorf("config: %q job must not set figure", JobPoints)
		}
		if len(s.Points) == 0 {
			return JobSpec{}, fmt.Errorf("config: %q job needs at least one point", JobPoints)
		}
		for i, pt := range s.Points {
			if pt.NumTasks < 1 {
				return JobSpec{}, fmt.Errorf("config: point %d: NumTasks must be >= 1, got %d", i, pt.NumTasks)
			}
			if _, err := experiments.NewPolicy(pt.Policy); err != nil {
				return JobSpec{}, fmt.Errorf("config: point %d: %w", i, err)
			}
		}
	case JobScale:
		if s.Figure != "" || len(s.Points) != 0 {
			return JobSpec{}, fmt.Errorf("config: %q job must not set figure or points", JobScale)
		}
		c, err := s.Scale.Config()
		if err != nil {
			return JobSpec{}, err
		}
		if err := c.Validate(); err != nil {
			return JobSpec{}, fmt.Errorf("config: %w", err)
		}
	case "":
		return JobSpec{}, fmt.Errorf("config: job kind is required (%q, %q or %q)", JobFigure, JobPoints, JobScale)
	default:
		return JobSpec{}, fmt.Errorf("config: unknown job kind %q (want %q, %q or %q)", s.Kind, JobFigure, JobPoints, JobScale)
	}
	return s, nil
}

// TotalPoints reports how many simulation points the job will run —
// the denominator of the daemon's progress fraction. The spec must have
// been normalized.
func (s JobSpec) TotalPoints() (int, error) {
	switch s.Kind {
	case JobFigure:
		return experiments.PointCount(s.Profile, s.Figure)
	case JobPoints:
		return len(s.Points), nil
	case JobScale:
		return 1, nil
	}
	return 0, fmt.Errorf("config: unknown job kind %q", s.Kind)
}

// MarshalJob renders the job as indented JSON, refusing invalid specs.
func MarshalJob(s JobSpec) ([]byte, error) {
	norm, err := s.Normalize()
	if err != nil {
		return nil, fmt.Errorf("config: refusing to marshal invalid job: %w", err)
	}
	data, err := json.MarshalIndent(norm, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return append(data, '\n'), nil
}

// UnmarshalJob parses JSON into a JobSpec, rejecting unknown fields,
// invalid profiles and malformed job shapes. The input is decoded over
// the default profile, so omitted profile fields keep their defaults;
// the kind must be stated explicitly.
func UnmarshalJob(data []byte) (JobSpec, error) {
	s := defaultJobSpec()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, fmt.Errorf("config: %w", err)
	}
	return s.Normalize()
}
