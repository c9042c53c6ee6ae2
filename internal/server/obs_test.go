package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rlsched/internal/obs"
)

// scrape fetches /metrics and parses the Prometheus exposition into
// samples keyed by series ID, failing the test on any format violation.
func scrape(t *testing.T, url string) (map[string]obs.Sample, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, buf.String())
	}
	byID := make(map[string]obs.Sample, len(samples))
	for _, s := range samples {
		byID[s.ID()] = s
	}
	return byID, buf.String()
}

// TestMetricsExposition is the end-to-end observability check: run a
// real job through the HTTP API, scrape /metrics, and verify the
// exposition parses and carries every metric family the daemon promises
// — HTTP latency histograms per route, job lifecycle histograms, queue
// and worker gauges, engine counters and Go runtime gauges.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 1, Logger: obs.NewLogger(&bytes.Buffer{}, slog.LevelDebug)})

	body := `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 20, "Seed": 1}],
		"profile": ` + tinyProfile + `}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	byID, raw := scrape(t, ts.URL)
	value := func(seriesID string) float64 {
		s, ok := byID[seriesID]
		if !ok {
			t.Fatalf("missing series %s in exposition:\n%s", seriesID, raw)
		}
		return s.Value
	}

	// Job lifecycle: one job ran to completion.
	if v := value(`jobs_total{state="done"}`); v < 1 {
		t.Fatalf("jobs_total{state=done} = %g, want >= 1", v)
	}
	if v := value(`points_completed_total`); v < 1 {
		t.Fatalf("points_completed_total = %g, want >= 1", v)
	}
	if v := value(`job_queue_wait_seconds_count`); v < 1 {
		t.Fatalf("job_queue_wait_seconds_count = %g, want >= 1", v)
	}
	if v := value(`job_run_seconds_count{outcome="done"}`); v < 1 {
		t.Fatalf("job_run_seconds_count{outcome=done} = %g, want >= 1", v)
	}
	if v := value(`point_run_seconds_count`); v < 1 {
		t.Fatalf("point_run_seconds_count = %g, want >= 1", v)
	}

	// HTTP middleware: the submit and at least one status poll went
	// through the per-route histograms and counters.
	if v := value(`http_requests_total{code="202",route="POST /v1/jobs"}`); v != 1 {
		t.Fatalf("http_requests_total for submit = %g, want 1", v)
	}
	if v := value(`http_request_seconds_count{route="GET /v1/jobs/{id}"}`); v < 1 {
		t.Fatalf("http_request_seconds_count for status = %g, want >= 1", v)
	}
	value(`http_requests_in_flight`)

	// Engine counters aggregated from the job's runs.
	if v := value(`engine_events_total`); v <= 0 {
		t.Fatalf("engine_events_total = %g, want > 0", v)
	}
	if v := value(`engine_tasks_scheduled_total`); v < 20 {
		t.Fatalf("engine_tasks_scheduled_total = %g, want >= 20", v)
	}
	if v := value(`engine_heap_high_water`); v <= 0 {
		t.Fatalf("engine_heap_high_water = %g, want > 0", v)
	}

	// Queue/worker gauges refresh at scrape time; runtime gauges come
	// from the sampler.
	value(`queue_depth`)
	value(`worker_utilization`)
	value(`sse_subscribers`)
	if v := value(`go_goroutines`); v <= 0 {
		t.Fatalf("go_goroutines = %g, want > 0", v)
	}
	if v := value(`go_heap_alloc_bytes`); v <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %g, want > 0", v)
	}
}

// TestMetricsLegacyJSONView checks the pre-registry counter view: same
// keys as the old expvar endpoint, explicit Content-Type, stable order.
func TestMetricsLegacyJSONView(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var vars map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("not JSON: %v: %s", err, buf.String())
	}
	want := []string{"job_retries", "jobs_cancelled", "jobs_done", "jobs_failed",
		"jobs_queued", "jobs_running", "jobs_timeout", "points_completed"}
	for _, k := range want {
		if _, ok := vars[k]; !ok {
			t.Fatalf("legacy view missing %q: %s", k, buf.String())
		}
	}
	// json.Marshal emits map keys sorted; pin that so scripts can diff
	// scrapes textually.
	text := buf.String()
	last := -1
	for _, k := range want {
		i := strings.Index(text, `"`+k+`"`)
		if i < last {
			t.Fatalf("legacy keys not in sorted order: %s", text)
		}
		last = i
	}
}

// TestTraceEndpoint submits one traced and one untraced job and checks
// the trace capture contract: a bounded non-empty event list for the
// former, a 404 (and a nil ring, i.e. zero tracing cost) for the latter.
func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: 1})

	point := `{"Policy": "greedy", "NumTasks": 20, "Seed": 1}`
	code, m := postJob(t, ts, `{"kind": "points", "trace": true, "points": [`+point+`], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit traced: HTTP %d: %v", code, m)
	}
	traced := m["id"].(string)
	code, m = postJob(t, ts, `{"kind": "points", "points": [`+point+`], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit untraced: HTTP %d: %v", code, m)
	}
	untraced := m["id"].(string)
	waitState(t, ts, traced, StateDone)
	waitState(t, ts, untraced, StateDone)

	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+traced+"/trace")
	if code != http.StatusOK {
		t.Fatalf("traced job trace: HTTP %d: %s", code, raw)
	}
	var tr TraceResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != traced || tr.Total == 0 || len(tr.Events) == 0 {
		t.Fatalf("empty trace for traced job: total=%d events=%d", tr.Total, len(tr.Events))
	}
	if len(tr.Events) > traceCap || tr.Retained != len(tr.Events) {
		t.Fatalf("trace not bounded: retained=%d events=%d cap=%d", tr.Retained, len(tr.Events), traceCap)
	}
	kinds := make(map[string]bool)
	for _, e := range tr.Events {
		kinds[e.Kind] = true
	}
	if !kinds["dispatch"] && !kinds["finish"] {
		t.Fatalf("trace carries no scheduling events; kinds: %v", kinds)
	}

	// The untraced job's 404 is pinned by TestArtifacts404WhenOff.
	s.mu.Lock()
	ring := s.jobs[untraced].ring
	s.mu.Unlock()
	if ring != nil {
		t.Fatal("untraced job allocated a trace ring")
	}

	// Determinism: the traced job's results match the untraced job's.
	_, tracedRes := getJSON(t, ts.URL+"/v1/jobs/"+traced+"/result")
	_, untracedRes := getJSON(t, ts.URL+"/v1/jobs/"+untraced+"/result")
	norm := func(b []byte) string {
		var r JobResult
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		r.ID = ""
		out, _ := json.Marshal(r)
		return string(out)
	}
	if norm(tracedRes) != norm(untracedRes) {
		t.Fatal("tracing changed simulation results")
	}
}

// TestJobStatusCarriesEngineStats checks the per-job aggregate of the
// engine's instrumentation counters lands on the status wire once the
// job settles.
func TestJobStatusCarriesEngineStats(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 20, "Seed": 1}], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	st := waitTerminal(t, ts.URL, id)
	if st.Engine == nil {
		t.Fatal("settled job status has no engine stats")
	}
	if st.Engine.Events == 0 || st.Engine.TasksScheduled == 0 {
		t.Fatalf("engine stats empty: %+v", st.Engine)
	}
}

// TestRequestIDPropagation checks the middleware honours a caller's
// X-Request-ID and generates one otherwise.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("X-Request-ID = %q, want trace-me-42", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID")
	}
}

// TestPprofOptIn checks /debug/pprof is absent by default and mounted
// with Options.Pprof.
func TestPprofOptIn(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without opt-in: HTTP %d", resp.StatusCode)
	}
	_, ts2 := newTestServer(t, Options{Pprof: true})
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof opt-in: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestJobLifecycleLogged checks the daemon's structured log stream:
// accepted/started/settled lines with the job id attached via context
// correlation.
func TestJobLifecycleLogged(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, Options{Logger: obs.NewLogger(&logBuf, slog.LevelInfo)})
	code, m := postJob(t, ts, `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 20, "Seed": 1}], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	logs := logBuf.String()
	for _, msg := range []string{"job accepted", "job started", "job settled"} {
		if !strings.Contains(logs, msg) {
			t.Fatalf("log stream missing %q:\n%s", msg, logs)
		}
	}
	if !strings.Contains(logs, fmt.Sprintf(`"job_id":%q`, id)) {
		t.Fatalf("log stream missing job_id correlation for %s:\n%s", id, logs)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon logs from
// handler and worker goroutines concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
