package config

import (
	"strings"
	"testing"

	"rlsched/internal/audit"
	"rlsched/internal/experiments"
	"rlsched/internal/probe"
)

func validFigureJob() JobSpec {
	return JobSpec{
		Kind:    JobFigure,
		Figure:  "figure9",
		Profile: experiments.DefaultProfile(),
	}
}

func TestJobRoundTrip(t *testing.T) {
	s := validFigureJob()
	s.Description = "round trip"
	s.Profile.Replications = 5
	s.Profile.Seed = 42
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if got.Description != "round trip" || got.Kind != JobFigure || got.Figure != "figure9" {
		t.Fatalf("round trip lost job fields: %+v", got)
	}
	if got.Profile.Replications != 5 || got.Profile.Seed != 42 {
		t.Fatalf("round trip lost profile fields: %+v", got.Profile)
	}
}

func TestJobPointsRoundTrip(t *testing.T) {
	s := JobSpec{
		Kind: JobPoints,
		Points: []experiments.RunSpec{
			{Policy: experiments.AdaptiveRL, NumTasks: 100, Seed: 1},
			{Policy: experiments.Greedy, NumTasks: 50, HeterogeneityCV: 0.5, Seed: 2},
		},
		Profile: experiments.DefaultProfile(),
	}
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if len(got.Points) != 2 || got.Points[1].HeterogeneityCV != 0.5 {
		t.Fatalf("round trip lost points: %+v", got.Points)
	}
	n, err := got.TotalPoints()
	if err != nil || n != 2 {
		t.Fatalf("TotalPoints = %d, %v; want 2, nil", n, err)
	}
}

// TestJobScaleRoundTrip pins the scale block's wire form. A scale job
// takes every artifact block, decisions included, like any other kind.
func TestJobScaleRoundTrip(t *testing.T) {
	s := JobSpec{
		Kind:      JobScale,
		Scale:     &ScaleSpec{Preset: "small", Sites: 40, NumTasks: 9000, Policy: experiments.Greedy, Seed: 7},
		Trace:     true,
		Series:    &SeriesSpec{Cadence: 50},
		Decisions: &DecisionsSpec{TopK: 3},
		Profile:   experiments.DefaultProfile(),
	}
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if got.Scale == nil || got.Scale.Preset != "small" || got.Scale.Sites != 40 || got.Scale.Seed != 7 {
		t.Fatalf("round trip lost scale block: %+v", got.Scale)
	}
	if !got.Trace || got.Series == nil || got.Series.Cadence != 50 || got.Decisions == nil || got.Decisions.TopK != 3 {
		t.Fatalf("round trip lost an artifact block: trace %v series %+v decisions %+v", got.Trace, got.Series, got.Decisions)
	}
	n, err := got.TotalPoints()
	if err != nil || n != 1 {
		t.Fatalf("TotalPoints = %d, %v; want 1, nil", n, err)
	}
	c, err := got.Scale.Config()
	if err != nil {
		t.Fatal(err)
	}
	if c.Sites != 40 || c.NumTasks != 9000 || c.Policy != experiments.Greedy || c.Seed != 7 {
		t.Fatalf("overrides not applied: %+v", c)
	}
	if c.NodesPerSite == 0 || c.Load == 0 {
		t.Fatalf("preset defaults lost: %+v", c)
	}
}

func TestJobUnmarshalDefaultsForOmittedProfileFields(t *testing.T) {
	got, err := UnmarshalJob([]byte(`{"kind": "figure", "figure": "7", "profile": {"SizeScale": 2.5}}`))
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	def := experiments.DefaultProfile()
	if got.Profile.SizeScale != 2.5 {
		t.Fatalf("override lost: %g", got.Profile.SizeScale)
	}
	if got.Profile.ObservationPeriod != def.ObservationPeriod || got.Profile.Platform.Sites != def.Platform.Sites {
		t.Fatal("defaults not preserved for omitted fields")
	}
	if got.Figure != "figure7" {
		t.Fatalf("figure alias not canonicalised: %q", got.Figure)
	}
}

func TestJobUnmarshalRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"kind": "figure", "figure": "7", "figgure": "8"}`,
		`{"kind": "figure", "figure": "7", "profile": {"SizeScle": 2.5}}`,
	}
	for _, c := range cases {
		if _, err := UnmarshalJob([]byte(c)); err == nil {
			t.Fatalf("expected unknown-field error for %s", c)
		}
	}
}

func TestJobUnmarshalRejectsMalformedSpecs(t *testing.T) {
	cases := map[string]string{
		"garbage":            `{not json`,
		"empty body":         `{}`,
		"missing kind":       `{"figure": "7"}`,
		"unknown kind":       `{"kind": "sweeep", "figure": "7"}`,
		"unknown figure":     `{"kind": "figure", "figure": "99"}`,
		"figure with points": `{"kind": "figure", "figure": "7", "points": [{"Policy": "greedy", "NumTasks": 10}]}`,
		"points with figure": `{"kind": "points", "figure": "7", "points": [{"Policy": "greedy", "NumTasks": 10}]}`,
		"points empty":       `{"kind": "points"}`,
		"points bad policy":  `{"kind": "points", "points": [{"Policy": "bogus", "NumTasks": 10}]}`,
		"points bad tasks":   `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 0}]}`,
		"invalid profile":    `{"kind": "figure", "figure": "7", "profile": {"SizeScale": -1}}`,
		"negative workers":   `{"kind": "figure", "figure": "7", "profile": {"Workers": -1}}`,
		"negative timeout":   `{"kind": "figure", "figure": "7", "timeout_sec": -1}`,
		"negative retries":   `{"kind": "figure", "figure": "7", "max_retries": -1}`,
		"scale no block":     `{"kind": "scale"}`,
		"scale bad preset":   `{"kind": "scale", "scale": {"preset": "galactic"}}`,
		"scale bad policy":   `{"kind": "scale", "scale": {"preset": "small", "policy": "bogus"}}`,
		"scale with figure":  `{"kind": "scale", "figure": "7", "scale": {"preset": "small"}}`,
		"scale with points":  `{"kind": "scale", "points": [{"Policy": "greedy", "NumTasks": 10}], "scale": {"preset": "small"}}`,
		"figure with scale":  `{"kind": "figure", "figure": "7", "scale": {"preset": "small"}}`,
	}
	for name, c := range cases {
		if _, err := UnmarshalJob([]byte(c)); err == nil {
			t.Fatalf("%s: expected error for %s", name, c)
		}
	}
}

// TestJobRobustnessKnobsRoundTrip pins the wire names and survival of
// the daemon's deadline and retry knobs.
func TestJobRobustnessKnobsRoundTrip(t *testing.T) {
	in := `{"kind": "figure", "figure": "7", "timeout_sec": 2.5, "max_retries": 3}`
	s, err := UnmarshalJob([]byte(in))
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if s.TimeoutSec != 2.5 || s.MaxRetries != 3 {
		t.Fatalf("knobs = %g/%d, want 2.5/3", s.TimeoutSec, s.MaxRetries)
	}
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	back, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if back.TimeoutSec != 2.5 || back.MaxRetries != 3 {
		t.Fatalf("knobs after round trip = %g/%d, want 2.5/3", back.TimeoutSec, back.MaxRetries)
	}
}

// TestUnmarshalRejectsNegativeWorkers pins the config-load-time rejection
// of a bad Workers value for the plain profile schema too: a typo'd
// campaign file fails at load, not deep inside workerCount.
func TestUnmarshalRejectsNegativeWorkers(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"profile": {"Workers": -2}}`)); err == nil {
		t.Fatal("expected validation error for Workers = -2")
	}
}

func TestJobMarshalRejectsInvalid(t *testing.T) {
	s := validFigureJob()
	s.Profile.Replications = 0
	if _, err := MarshalJob(s); err == nil {
		t.Fatal("expected validation error")
	}
	s = JobSpec{Kind: "nope", Profile: experiments.DefaultProfile()}
	if _, err := MarshalJob(s); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestJobTotalPoints(t *testing.T) {
	s := validFigureJob()
	s.Profile.Replications = 2
	n, err := s.TotalPoints()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // figure9: two policies x two replications
		t.Fatalf("TotalPoints = %d, want 4", n)
	}
	s.Figure = "all"
	all, err := s.TotalPoints()
	if err != nil {
		t.Fatal(err)
	}
	if all <= n {
		t.Fatalf("TotalPoints(all) = %d, want > %d", all, n)
	}
	ext, err := UnmarshalJob([]byte(`{"kind": "figure", "figure": "ext", "profile": {"Replications": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Figure != "ext" {
		t.Fatalf("ext normalized to %q", ext.Figure)
	}
	// E1: two policies x five failure rates; E2: four policies x two
	// arrival processes; E3: three priority mixes; two replications each.
	if got, err := ext.TotalPoints(); err != nil || got != (10+8+3)*2 {
		t.Fatalf("TotalPoints(ext) = %d, %v; want 42", got, err)
	}
}

func TestJobMarshalIsHumanReadable(t *testing.T) {
	data, err := MarshalJob(validFigureJob())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "\n  ") || !strings.HasSuffix(s, "\n") {
		t.Fatal("output not indented or not newline-terminated")
	}
	// Runtime-only hooks must never leak into the schema.
	if strings.Contains(s, "Progress") || strings.Contains(s, "Tracer") {
		t.Fatal("runtime-only field serialised")
	}
}

func TestJobSeriesRoundTrip(t *testing.T) {
	s := validFigureJob()
	s.Series = &SeriesSpec{Cadence: 10, MaxPoints: 64, Select: []string{probe.FamilyQueue, probe.FamilyPower}}
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if got.Series == nil || got.Series.Cadence != 10 || got.Series.MaxPoints != 64 ||
		len(got.Series.Select) != 2 {
		t.Fatalf("round trip lost series block: %+v", got.Series)
	}
	cfg := got.Series.ProbeConfig()
	if cfg.Cadence != 10 || cfg.MaxPoints != 64 || len(cfg.Series) != 2 {
		t.Fatalf("ProbeConfig mismatch: %+v", cfg)
	}
	// A job without the block stays without it — and its probe config is
	// the zero value.
	if zc := (*SeriesSpec)(nil).ProbeConfig(); zc.Cadence != 0 || zc.MaxPoints != 0 || zc.Series != nil {
		t.Fatalf("nil SeriesSpec should map to zero probe config, got %+v", zc)
	}
}

func TestJobSeriesValidation(t *testing.T) {
	cases := []struct {
		name   string
		series SeriesSpec
	}{
		{"negative cadence", SeriesSpec{Cadence: -1}},
		{"negative max_points", SeriesSpec{MaxPoints: -5}},
		{"unknown family", SeriesSpec{Select: []string{"vibes"}}},
	}
	for _, tc := range cases {
		s := validFigureJob()
		s.Series = &tc.series
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.series)
		}
	}
	// An empty block is valid: defaults + all families.
	s := validFigureJob()
	s.Series = &SeriesSpec{}
	if _, err := s.Normalize(); err != nil {
		t.Fatalf("empty series block rejected: %v", err)
	}
}

func TestJobDecisionsRoundTrip(t *testing.T) {
	s := validFigureJob()
	s.Decisions = &DecisionsSpec{MaxDecisions: 128, TopK: 5, MaxPoints: 64}
	data, err := MarshalJob(s)
	if err != nil {
		t.Fatalf("MarshalJob: %v", err)
	}
	got, err := UnmarshalJob(data)
	if err != nil {
		t.Fatalf("UnmarshalJob: %v", err)
	}
	if got.Decisions == nil || got.Decisions.MaxDecisions != 128 ||
		got.Decisions.TopK != 5 || got.Decisions.MaxPoints != 64 {
		t.Fatalf("round trip lost decisions block: %+v", got.Decisions)
	}
	cfg := got.Decisions.AuditConfig()
	if cfg.MaxDecisions != 128 || cfg.TopK != 5 || cfg.MaxPoints != 64 {
		t.Fatalf("AuditConfig mismatch: %+v", cfg)
	}
	// A job without the block maps to the zero audit config.
	if zc := (*DecisionsSpec)(nil).AuditConfig(); zc != (audit.Config{}) {
		t.Fatalf("nil DecisionsSpec should map to zero audit config, got %+v", zc)
	}
}

func TestJobDecisionsValidation(t *testing.T) {
	cases := []struct {
		name      string
		decisions DecisionsSpec
	}{
		{"negative max_decisions", DecisionsSpec{MaxDecisions: -1}},
		{"negative top_k", DecisionsSpec{TopK: -2}},
		{"negative max_points", DecisionsSpec{MaxPoints: -5}},
	}
	for _, tc := range cases {
		s := validFigureJob()
		s.Decisions = &tc.decisions
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.decisions)
		}
	}
	// An empty block is valid and means "audit with defaults".
	s := validFigureJob()
	s.Decisions = &DecisionsSpec{}
	if _, err := s.Normalize(); err != nil {
		t.Fatalf("empty decisions block rejected: %v", err)
	}
}

func TestKeepResultsOnlyForPointsJobs(t *testing.T) {
	spec := JobSpec{
		Kind:        JobPoints,
		KeepResults: true,
		Points:      []experiments.RunSpec{{Policy: experiments.Greedy, NumTasks: 5, Seed: 1}},
		Profile:     experiments.DefaultProfile(),
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("points job with keep_results: %v", err)
	}
	if !norm.KeepResults {
		t.Fatal("keep_results lost in Normalize")
	}

	fig := JobSpec{Kind: JobFigure, Figure: "7", KeepResults: true, Profile: experiments.DefaultProfile()}
	if _, err := fig.Normalize(); err == nil {
		t.Fatal("figure job with keep_results normalized, want error")
	}
}
