package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rlsched/internal/config"
	"rlsched/internal/experiments"
)

// TestArtifacts404WhenOff pins the shared artifact rules on every
// per-job artifact path. A job submitted without the artifact's switch
// recorded nothing and paid nothing, so the route 404s and names the
// missing switch; the job holds no recorder. A job with the switch
// negotiates ?format= case-insensitively.
func TestArtifacts404WhenOff(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	point := `"points": [{"Policy": "adaptive-rl", "NumTasks": 20, "Seed": 1}], "profile": ` + tinyProfile
	code, m := postJob(t, ts, `{"kind": "points", `+point+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit plain: HTTP %d: %v", code, m)
	}
	off := m["id"].(string)
	code, m = postJob(t, ts, `{"kind": "points", "spans": true, "decisions": {}, `+point+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit instrumented: HTTP %d: %v", code, m)
	}
	on := m["id"].(string)
	waitState(t, ts, off, StateDone)
	waitState(t, ts, on, StateDone)

	for _, tc := range []struct {
		job, path string
		code      int
		// want is a substring of the 404 body, or the Content-Type
		// prefix of a 200.
		want string
	}{
		{off, "/trace", http.StatusNotFound, "trace"},
		{off, "/spans", http.StatusNotFound, "spans"},
		{off, "/series", http.StatusNotFound, "series"},
		{off, "/series/stream", http.StatusNotFound, "series"},
		{off, "/decisions", http.StatusNotFound, "decisions"},
		{off, "/decisions/stream", http.StatusNotFound, "decisions"},
		{on, "/spans?format=HTML", http.StatusOK, "text/html"},
		{on, "/decisions?format=HTML", http.StatusOK, "text/html"},
	} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + tc.job + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s: HTTP %d, want %d: %s", tc.path, resp.StatusCode, tc.code, body)
			continue
		}
		if tc.code == http.StatusNotFound {
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("GET %s: 404 body %s does not name %q", tc.path, body, tc.want)
			}
		} else if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.want) {
			t.Errorf("GET %s: Content-Type %q, want %s", tc.path, ct, tc.want)
		}
	}

	s.mu.Lock()
	j := s.jobs[off]
	s.mu.Unlock()
	if j.ring != nil || j.spans != nil || j.series != nil || j.decisions != nil {
		t.Fatal("a job without artifact switches allocated a recorder")
	}
}

// TestSeriesScaleJob checks that a scale job's series block records the
// streaming run as point 0, instead of being accepted and serving no
// runs.
func TestSeriesScaleJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "scale", "series": {"cadence": 50}, "scale": {"preset": "small", "sites": 4, "num_tasks": 300, "policy": "greedy", "seed": 3}}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/series")
	if code != http.StatusOK {
		t.Fatalf("series: HTTP %d: %s", code, raw)
	}
	var sr SeriesResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	label := experiments.PointLabel(experiments.RunSpec{Policy: "greedy", NumTasks: 300, Seed: 3})
	if len(sr.Runs) != 1 || sr.Runs[0].Index != 0 || sr.Runs[0].Label != label {
		t.Fatalf("scale series runs = %+v, want one run labelled %q at index 0", sr.Runs, label)
	}
	if len(sr.Runs[0].Series) == 0 || len(sr.Runs[0].Series[0].Points) == 0 {
		t.Fatalf("scale run recorded no samples: %+v", sr.Runs[0])
	}
}

// TestArtifactsRecordersMatchSpec checks the per-point hook hands the
// engine exactly the recorders a job asked for: no hook at all without
// artifact switches (so the job may still use the cache and the
// cluster), and a nil Tracer — not a nil *trace.Ring inside the
// interface — for a job with series but no trace.
func TestArtifactsRecordersMatchSpec(t *testing.T) {
	spec := experiments.RunSpec{Policy: experiments.Greedy, NumTasks: 5, Seed: 1}
	if newJob("job-a", config.JobSpec{Kind: config.JobScale}, 1).recordersFor() != nil {
		t.Fatal("a job without artifact switches got a recorder hook")
	}
	r := newJob("job-b", config.JobSpec{Kind: config.JobScale, Series: &config.SeriesSpec{}}, 1).recordersFor()(0, spec)
	if r.Tracer != nil || r.Probe == nil || r.Audit != nil {
		t.Fatalf("series-only job recorders = %+v, want a probe and nothing else", r)
	}
	all := newJob("job-c", config.JobSpec{Kind: config.JobScale, Trace: true,
		Series: &config.SeriesSpec{}, Decisions: &config.DecisionsSpec{}}, 1)
	r = all.recordersFor()(0, spec)
	if r.Tracer != all.ring || r.Probe == nil || r.Audit == nil {
		t.Fatalf("fully recorded job recorders = %+v, want the ring, a probe and an audit", r)
	}
}
