package rlsched_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rlsched"
)

// smallProfile shrinks the default profile so API tests stay fast.
func smallProfile() rlsched.Profile {
	p := rlsched.DefaultProfile()
	p.Replications = 1
	p.ObservationPeriod = 600
	return p
}

func TestRunThroughPublicAPI(t *testing.T) {
	res, err := rlsched.Run(smallProfile(), rlsched.RunSpec{
		Policy: rlsched.AdaptiveRL, NumTasks: 300, Seed: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 300 {
		t.Fatalf("completed %d/300", res.Completed)
	}
	if res.Policy != string(rlsched.AdaptiveRL) {
		t.Fatalf("policy %q", res.Policy)
	}
	if res.AveRT <= 0 || res.ECS <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
}

func TestRunDeterministicThroughAPI(t *testing.T) {
	spec := rlsched.RunSpec{Policy: rlsched.QPlus, NumTasks: 200, Seed: 5}
	a, err := rlsched.Run(smallProfile(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rlsched.Run(smallProfile(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.AveRT != b.AveRT || a.ECS != b.ECS {
		t.Fatal("API runs not deterministic")
	}
}

func TestAllPoliciesConstructible(t *testing.T) {
	names := rlsched.AllPolicies()
	if len(names) != 4 {
		t.Fatalf("expected 4 comparison policies, got %d", len(names))
	}
	for _, name := range append(names, rlsched.Greedy) {
		p, err := rlsched.NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("policy %s has empty name", name)
		}
	}
	if _, err := rlsched.NewPolicy("nope"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestManualEngineAssembly(t *testing.T) {
	r := rlsched.NewStream(42, "manual")
	pcfg := rlsched.DefaultPlatformConfig()
	pcfg.Sites = 2
	pl, err := rlsched.GeneratePlatform(pcfg, r.Split("platform"))
	if err != nil {
		t.Fatal(err)
	}
	wcfg := rlsched.DefaultWorkloadConfig()
	wcfg.NumTasks = 150
	wcfg.SlowestSpeedMIPS = pl.SlowestSpeed()
	tasks, err := rlsched.GenerateWorkload(wcfg, r.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	policy, err := rlsched.NewPolicy(rlsched.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rlsched.NewEngine(rlsched.DefaultEngineConfig(), pl, tasks, policy, r.Split("engine"))
	if err != nil {
		t.Fatal(err)
	}
	res := eng.MustRun()
	if res.Completed != 150 {
		t.Fatalf("completed %d/150", res.Completed)
	}
}

func TestFigureByIDAndRendering(t *testing.T) {
	p := smallProfile()
	fig, err := rlsched.FigureByID(p, "12")
	if err != nil {
		t.Fatalf("FigureByID: %v", err)
	}
	if fig.ID != "figure12" || len(fig.Series) != 2 {
		t.Fatalf("unexpected figure: %s with %d series", fig.ID, len(fig.Series))
	}
	table := rlsched.RenderTable(fig)
	if !strings.Contains(table, "FIGURE12") || !strings.Contains(table, "heavily-loaded") {
		t.Fatalf("table rendering broken:\n%s", table)
	}
	chart := rlsched.RenderChart(fig, 40, 10)
	if !strings.Contains(chart, "legend:") {
		t.Fatalf("chart rendering broken:\n%s", chart)
	}
	csv := rlsched.RenderCSV(fig)
	if !strings.HasPrefix(csv, "series,x,y,ci95\n") {
		t.Fatalf("csv rendering broken:\n%s", csv)
	}
	if _, err := rlsched.FigureByID(p, "99"); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestAllFigureIDsOrder(t *testing.T) {
	ids := rlsched.AllFigureIDs()
	want := []string{"figure7", "figure8", "figure9", "figure10", "figure11", "figure12"}
	if len(ids) != len(want) {
		t.Fatalf("ids %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids %v, want %v", ids, want)
		}
	}
}

func TestConfigRoundTripThroughAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	f := rlsched.DefaultConfigFile()
	f.Profile.Seed = 1234
	if err := rlsched.SaveConfig(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := rlsched.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.Seed != 1234 {
		t.Fatalf("seed %d", got.Profile.Seed)
	}
}

func TestHeterogeneityOverrideThroughAPI(t *testing.T) {
	p := smallProfile()
	res, err := rlsched.Run(p, rlsched.RunSpec{
		Policy: rlsched.AdaptiveRL, NumTasks: 200, HeterogeneityCV: 0.9, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Heterogeneity <= 0 {
		t.Fatal("heterogeneity override had no effect")
	}
}

func TestCheckpointThroughAPI(t *testing.T) {
	cfg := rlsched.DefaultAdaptiveRLConfig()
	cfg.PreserveLearning = true
	policy, err := rlsched.NewAdaptiveRLPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := smallProfile()
	if _, err := rlsched.RunWith(p, rlsched.RunSpec{Policy: rlsched.AdaptiveRL, NumTasks: 200, Seed: 1}, policy); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rlsched.SaveAdaptiveRLCheckpoint(&sb, policy); err != nil {
		t.Fatal(err)
	}
	restored, err := rlsched.LoadAdaptiveRLCheckpoint(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rlsched.RunWith(p, rlsched.RunSpec{Policy: rlsched.AdaptiveRL, NumTasks: 200, Seed: 2}, restored)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Fatal("restored policy run incomplete")
	}
	// Non-adaptive policies are rejected.
	greedy, _ := rlsched.NewPolicy(rlsched.Greedy)
	if err := rlsched.SaveAdaptiveRLCheckpoint(&sb, greedy); err == nil {
		t.Fatal("expected error for non-adaptive policy")
	}
}

// TestJobSpansThroughAPI drives the tracing surface through the public
// aliases alone: an embedded JobServer runs a span-traced job and the
// /spans payload decodes into JobSpansResponse with well-formed
// SpanRecord entries.
func TestJobSpansThroughAPI(t *testing.T) {
	srv, err := rlsched.NewJobServer(rlsched.JobServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := `{"kind": "points", "spans": true,
		"points": [{"Policy": "greedy", "NumTasks": 20, "Seed": 1}],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st rlsched.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(20 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("spans: HTTP %d", r.StatusCode)
	}
	var sr rlsched.JobSpansResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != st.ID || len(sr.TraceID) != 32 || sr.Dropped != 0 || len(sr.Spans) == 0 {
		t.Fatalf("spans payload: id=%q trace=%q dropped=%d spans=%d",
			sr.ID, sr.TraceID, sr.Dropped, len(sr.Spans))
	}
	var root rlsched.SpanRecord
	for _, rec := range sr.Spans {
		if rec.ParentID == "" {
			root = rec
		}
	}
	if root.Name != "job.run" || root.EndUnixNs < root.StartUnixNs {
		t.Fatalf("root span: %+v", root)
	}
}

// TestSpecHashGolden freezes the cache key format: the engine version,
// the envelope field names, the canonical JSON shape (sorted keys,
// literal numbers — a max uint64 seed must survive untouched) and the
// SHA-256 hex rendering. If this test fails, results stored under old
// keys are unreachable: either restore the format or deliberately bump
// CacheEngineVersion as the cache-flush mechanism.
func TestSpecHashGolden(t *testing.T) {
	if v := rlsched.CacheEngineVersion; v != "rlsched-v1" {
		t.Fatalf("CacheEngineVersion = %q: bumping it retires every cached result; update this test only on a deliberate bump", v)
	}
	golden := []struct {
		spec rlsched.RunSpec
		want string
	}{
		{
			rlsched.RunSpec{Policy: rlsched.Greedy, NumTasks: 100, Seed: 42},
			"sha256:d750066d09f42c72288271a524e97be59314f39564456c7c168ef64e13bc6593",
		},
		{
			rlsched.RunSpec{Policy: rlsched.AdaptiveRL, NumTasks: 1500, HeterogeneityCV: 1.1, Seed: 18446744073709551615},
			"sha256:48f66e1d5819544d3dd765f75f5725ab2e28dc4fd4cb5238e8692a47b648aae3",
		},
	}
	for _, g := range golden {
		if got := rlsched.SpecHash(g.spec); got != g.want {
			t.Errorf("SpecHash(%+v) = %s, want %s (frozen format)", g.spec, got, g.want)
		}
	}
}

// TestPointCacheKeyInsensitiveToCampaignShape checks the profile
// fingerprint: knobs that cannot change a point's result (replications,
// parallelism, progress plumbing) must not move the cache key, while
// result-relevant knobs must.
func TestPointCacheKeyInsensitiveToCampaignShape(t *testing.T) {
	spec := rlsched.RunSpec{Policy: rlsched.Greedy, NumTasks: 100, Seed: 42}
	base, err := rlsched.PointCacheKey(smallProfile(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(base, "sha256:") || len(base) != len("sha256:")+64 {
		t.Fatalf("malformed key %q", base)
	}

	reshaped := smallProfile()
	reshaped.Workers = 7
	reshaped.Replications = 9
	reshaped.Seed = 999
	reshaped.Progress = func(rlsched.RunStats) {}
	same, err := rlsched.PointCacheKey(reshaped, spec)
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatal("campaign-shape knobs moved the cache key; repeated points would never hit")
	}

	heavier := smallProfile()
	heavier.ObservationPeriod *= 2
	moved, err := rlsched.PointCacheKey(heavier, spec)
	if err != nil {
		t.Fatal(err)
	}
	if moved == base {
		t.Fatal("a result-relevant profile change kept the cache key; the cache would serve wrong results")
	}
}
