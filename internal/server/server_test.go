package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/experiments"
)

// tinyProfile is a JSON profile fragment that keeps every job in these
// tests fast: one replication, a short observation period and small
// light/heavy task counts.
const tinyProfile = `{"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 2}`

// tinyProfileValue mirrors tinyProfile as a Profile, for the determinism
// comparison against the direct experiments path.
func tinyProfileValue() experiments.Profile {
	p := experiments.DefaultProfile()
	p.Replications = 1
	p.ObservationPeriod = 300
	p.LightTasks, p.HeavyTasks = 20, 30
	p.Workers = 2
	return p
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, m
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// waitState polls the status endpoint until the job reaches want or the
// deadline passes, returning the final snapshot.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, body)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if State(m["state"].(string)) == want {
			return m
		}
		if State(m["state"].(string)).Terminal() {
			t.Fatalf("job %s settled as %v, want %s", id, m["state"], want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

// TestSubmitStatusResultDeterministic drives the happy path end to end
// and pins the acceptance criterion: a figure regenerated over HTTP is
// byte-identical to the same spec run through the experiments package
// (the cmd/experiments code path).
func TestSubmitStatusResultDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	if m["state"].(string) != string(StateQueued) {
		t.Fatalf("fresh job state = %v, want queued", m["state"])
	}

	final := waitState(t, ts, id, StateDone)
	total := final["points_total"].(float64)
	done := final["points_done"].(float64)
	if total != 2 || done != total {
		t.Fatalf("points %v/%v, want 2/2", done, total)
	}

	code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}

	// The same figure computed directly, marshalled the same way, must
	// match byte for byte.
	fig, err := experiments.FigureByID(context.Background(), tinyProfileValue(), "10")
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	enc := json.NewEncoder(&wantBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(JobResult{ID: id, Figures: []experiments.Figure{fig}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(wantBuf.Bytes())) {
		t.Fatalf("HTTP result differs from direct figure run:\nhttp: %s\nwant: %s", body, wantBuf.Bytes())
	}
}

// TestPointsJob runs an explicit spec list and checks the summary rows.
func TestPointsJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "points", "points": [
		{"Policy": "greedy", "NumTasks": 25, "Seed": 1},
		{"Policy": "round-robin", "NumTasks": 25, "Seed": 2}
	], "profile": ` + tinyProfile + `}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, raw)
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Figures != nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	for i, pt := range res.Points {
		if pt.Completed != 25 || pt.EndTime <= 0 {
			t.Fatalf("point %d summary implausible: %+v", i, pt)
		}
	}
	if res.Points[0].Spec.Policy != "greedy" || res.Points[1].Spec.Seed != 2 {
		t.Fatalf("specs not echoed in order: %+v", res.Points)
	}
}

// TestScaleJob runs a (shrunken) large-scale streaming scenario through
// the daemon and checks the single-point summary.
func TestScaleJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "scale", "scale": {"preset": "small", "sites": 10, "num_tasks": 800, "policy": "greedy", "seed": 3}}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	final := waitState(t, ts, id, StateDone)
	if total := final["points_total"].(float64); total != 1 {
		t.Fatalf("points_total %v, want 1", total)
	}
	if done := final["points_done"].(float64); done != 1 {
		t.Fatalf("points_done %v, want 1", done)
	}
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, raw)
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Figures != nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	pt := res.Points[0]
	if pt.Completed != 800 || pt.EndTime <= 0 || pt.ECS <= 0 {
		t.Fatalf("scale summary implausible: %+v", pt)
	}
	if pt.Spec.Policy != "greedy" || pt.Spec.NumTasks != 800 || pt.Spec.Seed != 3 {
		t.Fatalf("scale spec not echoed: %+v", pt.Spec)
	}
	// Engine counters must flow from the streaming run into the settled
	// status, like every other job kind.
	eng, ok := final["engine"].(map[string]any)
	if !ok {
		t.Fatalf("settled status missing engine block: %v", final)
	}
	if eng["events"].(float64) <= 0 || eng["tasks_scheduled"].(float64) != 800 {
		t.Fatalf("scale engine stats not populated: %v", eng)
	}

	// The daemon's number must equal the library's.
	cfg, err := experiments.ScalePreset("small")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sites, cfg.NumTasks, cfg.Policy, cfg.Seed = 10, 800, "greedy", 3
	direct, err := experiments.RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pt.AveRT != direct.AveRT || pt.ECS != direct.ECS || pt.EndTime != direct.EndTime {
		t.Fatalf("daemon scale result differs from direct run:\nhttp:   %+v\ndirect: AveRT %g ECS %g End %g",
			pt, direct.AveRT, direct.ECS, direct.EndTime)
	}
}

// TestCancelRunningJobStopsWork cancels a running job and checks the
// acceptance criteria: the job settles as cancelled, its progress
// counter freezes below the total, and the result endpoint answers 409.
func TestCancelRunningJobStopsWork(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// The gate parks the job after its first completed point, so the
	// cancel below always lands mid-flight regardless of machine speed.
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-release
	}

	var pts []string
	for i := 0; i < 300; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	body := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)

	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never made progress")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	unblock()

	final := waitState(t, ts, id, StateCancelled)
	frozen := final["points_done"].(float64)
	if frozen >= 300 {
		t.Fatalf("cancelled job completed all %v points", frozen)
	}
	// The counter must not advance after settling: cancelled means the
	// job stopped doing work.
	time.Sleep(50 * time.Millisecond)
	_, raw := getJSON(t, ts.URL+"/v1/jobs/"+id)
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if float64(st.PointsDone) != frozen {
		t.Fatalf("progress advanced after cancellation: %v -> %d", frozen, st.PointsDone)
	}

	code, errBody := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result after cancel: HTTP %d, want 409", code)
	}
	if !strings.Contains(string(errBody), "cancelled") {
		t.Fatalf("409 body not structured: %s", errBody)
	}
}

// TestCancelQueuedJob cancels a job that is still waiting behind a
// running one; it must settle immediately without ever running.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: 1})
	// The gate holds the blocker on its first point so the second job
	// stays queued for as long as the test needs.
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, relOnce sync.Once
	t.Cleanup(func() { relOnce.Do(func() { close(release) }) })
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-release
	}

	var pts []string
	for i := 0; i < 20; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	blocker := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d: %v", code, m)
	}
	blockerID := m["id"].(string)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never started")
	}

	code, m = postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d: %v", code, m)
	}
	queuedID := m["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: HTTP %d", resp.StatusCode)
	}
	st := waitState(t, ts, queuedID, StateCancelled)
	if st["points_done"].(float64) != 0 {
		t.Fatalf("queued job did work: %v", st["points_done"])
	}
	code, _ = getJSON(t, ts.URL+"/v1/jobs/"+queuedID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of cancelled queued job: HTTP %d, want 409", code)
	}
	// Cancelling it twice is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: HTTP %d, want 409", resp.StatusCode)
	}
	// Clean up the blocker so Shutdown drains fast.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blockerID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestEventsStream subscribes to the SSE endpoint and reads the stream
// through to the terminal event.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "9", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("stream did not end with a done event: %v", events)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(lastData), &st); err != nil {
		t.Fatalf("final event data: %v", err)
	}
	if st.State != StateDone || st.PointsDone != st.PointsTotal || st.PointsTotal == 0 {
		t.Fatalf("final event %+v, want done with full progress", st)
	}
}

// TestSubmitRejectsMalformed pins the structured 4xx contract.
func TestSubmitRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := map[string]string{
		"garbage":          `{not json`,
		"empty":            `{}`,
		"unknown field":    `{"kind": "figure", "figure": "7", "bogus": 1}`,
		"unknown kind":     `{"kind": "campaign", "figure": "7"}`,
		"unknown figure":   `{"kind": "figure", "figure": "13"}`,
		"bad profile":      `{"kind": "figure", "figure": "7", "profile": {"SizeScale": -1}}`,
		"negative workers": `{"kind": "figure", "figure": "7", "profile": {"Workers": -1}}`,
	}
	for name, body := range cases {
		code, m := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", name, code)
		}
		if msg, ok := m["error"].(string); !ok || msg == "" {
			t.Fatalf("%s: no structured error body: %v", name, m)
		}
	}
}

// TestUnknownJob404 covers the not-found paths.
func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		code, body := getJSON(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d (%s), want 404", path, code, body)
		}
	}
}

// TestQueueFull fills the bounded queue and expects 429 with a
// structured body.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, relOnce sync.Once
	t.Cleanup(func() { relOnce.Do(func() { close(release) }) })
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-release
	}

	var pts []string
	for i := 0; i < 20; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	blocker := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`

	// First job occupies the only worker (the gate parks it)...
	code, m := postJob(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d: %v", code, m)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never started")
	}
	// ...the second fills the depth-1 queue...
	code, m = postJob(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d: %v", code, m)
	}
	// ...so the third must bounce with a structured 429 carrying a
	// Retry-After the client can actually sleep on.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(blocker))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: HTTP %d, want 429", resp.StatusCode)
	}
	var m3 map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m3); err != nil {
		t.Fatal(err)
	}
	if msg, ok := m3["error"].(string); !ok || !strings.Contains(msg, "queue full") {
		t.Fatalf("429 body: %v", m3)
	}
	ra := resp.Header.Get("Retry-After")
	sec, err := strconv.Atoi(ra)
	if err != nil || sec < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
}

// TestHealthzAndMetrics checks the observability endpoints and the
// counter lifecycle across a finished job.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: HTTP %d %s", code, body)
	}

	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	waitState(t, ts, m["id"].(string), StateDone)

	code, raw := getJSON(t, ts.URL+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var vars map[string]float64
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatalf("metrics not JSON: %v: %s", err, raw)
	}
	for _, k := range []string{"jobs_queued", "jobs_running", "jobs_done", "jobs_failed", "jobs_cancelled", "points_completed"} {
		if _, ok := vars[k]; !ok {
			t.Fatalf("metrics missing %q: %s", k, raw)
		}
	}
	if vars["jobs_done"] < 1 || vars["points_completed"] < 2 {
		t.Fatalf("counters did not advance: %s", raw)
	}
	if vars["jobs_queued"] != 0 || vars["jobs_running"] != 0 {
		t.Fatalf("gauges not settled: %s", raw)
	}
}

// TestFailedJob checks that a job whose run errors settles as failed and
// surfaces the error in its status.
func TestFailedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// The spec validates (greedy exists) but the second point's policy is
	// checked again inside Run via NewPolicy; to provoke a runtime
	// failure instead, use a heterogeneity level the platform generator
	// rejects at build time.
	body := `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 10, "HeterogeneityCV": 99}],
		"profile": ` + tinyProfile + `}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, raw := getJSON(t, ts.URL+"/v1/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != StateFailed || st.Error == "" {
				t.Fatalf("terminal status %+v, want failed with error", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never settled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, _ = getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of failed job: HTTP %d, want 409", code)
	}
}

// TestShutdownCancelsRunning forces shutdown with an expired context and
// expects the running job to settle as cancelled and submissions to be
// refused afterwards.
func TestShutdownCancelsRunning(t *testing.T) {
	s, err := New(Options{Jobs: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	// The gate parks the job until the forced shutdown cancels its
	// context, guaranteeing Shutdown finds it mid-flight.
	started := make(chan struct{})
	var startOnce sync.Once
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-s.baseCtx.Done()
	}

	var pts []string
	for i := 0; i < 300; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	body := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // grace already over: force-cancel everything
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("expected Shutdown to report the expired context")
	}

	st := s.jobs[id].status()
	if st.State != StateCancelled {
		t.Fatalf("job after forced shutdown: %s, want cancelled", st.State)
	}
	code, m = postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: HTTP %d: %v", code, m)
	}
}

// TestListJobs covers the listing endpoint's order and shape.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var ids []string
	for i := 0; i < 2; i++ {
		code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, m)
		}
		ids = append(ids, m["id"].(string))
	}
	code, raw := getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	var list []JobStatus
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != ids[0] || list[1].ID != ids[1] {
		t.Fatalf("list = %+v, want submission order %v", list, ids)
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
}
