package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/config"
	"rlsched/internal/obs"
	"rlsched/internal/obs/span"
)

// getSpans fetches and decodes GET /v1/jobs/{id}/spans.
func getSpans(t *testing.T, ts *httptest.Server, id string) SpansResponse {
	t.Helper()
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/spans")
	if code != http.StatusOK {
		t.Fatalf("spans: HTTP %d: %s", code, raw)
	}
	var sr SpansResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// isHex reports whether s is exactly n lowercase hex digits.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkWellFormed validates the structural invariants every span trace
// must satisfy — exactly one root, every parent resolves (no orphans),
// well-formed IDs, every span ended after it started — and returns the
// spans grouped by name.
func checkWellFormed(t *testing.T, sr SpansResponse) map[string][]span.Record {
	t.Helper()
	if !isHex(sr.TraceID, 32) {
		t.Fatalf("trace_id %q is not 32 lowercase hex digits", sr.TraceID)
	}
	if sr.Retained != len(sr.Spans) {
		t.Fatalf("retained %d but %d spans present", sr.Retained, len(sr.Spans))
	}
	byID := make(map[string]span.Record, len(sr.Spans))
	for _, r := range sr.Spans {
		if !isHex(r.SpanID, 16) {
			t.Fatalf("span_id %q is not 16 lowercase hex digits", r.SpanID)
		}
		if _, dup := byID[r.SpanID]; dup {
			t.Fatalf("duplicate span_id %s", r.SpanID)
		}
		byID[r.SpanID] = r
	}
	byName := make(map[string][]span.Record)
	roots := 0
	for _, r := range sr.Spans {
		byName[r.Name] = append(byName[r.Name], r)
		if r.EndUnixNs < r.StartUnixNs {
			t.Fatalf("span %s (%s) ends before it starts", r.SpanID, r.Name)
		}
		if r.ParentID == "" {
			roots++
			continue
		}
		if _, ok := byID[r.ParentID]; !ok {
			t.Fatalf("span %s (%s) orphaned: parent %s missing", r.SpanID, r.Name, r.ParentID)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want exactly 1", roots)
	}
	return byName
}

// TestSpansRequireFlag pins the gate: jobs without "spans": true paid no
// span cost and have nothing to serve.
func TestSpansRequireFlag(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 20, "Seed": 1}], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/spans")
	if code != http.StatusNotFound || !strings.Contains(string(raw), "spans") {
		t.Fatalf("spans without flag: HTTP %d, want 404: %s", code, raw)
	}
}

// TestSpansStandaloneTrace runs a span-traced campaign on a standalone
// daemon and checks the whole pipeline is recorded: job.run at the
// root, the campaign under it, one point span per spec, each with its
// cache.lookup, and engine.run for every computed point. The HTML view
// renders the same trace as a waterfall.
func TestSpansStandaloneTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "points", "spans": true, "points": [
		{"Policy": "greedy", "NumTasks": 20, "Seed": 1},
		{"Policy": "round-robin", "NumTasks": 20, "Seed": 2}
	], "profile": ` + tinyProfile + `}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	sr := getSpans(t, ts, id)
	if sr.ID != id || sr.Dropped != 0 {
		t.Fatalf("spans response id=%s dropped=%d, want %s/0", sr.ID, sr.Dropped, id)
	}
	if sr.TraceID != span.DeriveTraceID(id) {
		t.Fatalf("trace_id %s, want the one derived from %s", sr.TraceID, id)
	}
	byName := checkWellFormed(t, sr)
	if n := len(byName["job.run"]); n != 1 {
		t.Fatalf("%d job.run spans, want 1", n)
	}
	if byName["job.run"][0].ParentID != "" {
		t.Fatal("job.run is not the root span")
	}
	if n := len(byName["campaign"]); n != 1 {
		t.Fatalf("%d campaign spans, want 1", n)
	}
	if byName["campaign"][0].ParentID != byName["job.run"][0].SpanID {
		t.Fatal("campaign span not parented under job.run")
	}
	if n := len(byName["point"]); n != 2 {
		t.Fatalf("%d point spans, want 2", n)
	}
	for _, p := range byName["point"] {
		if p.ParentID != byName["campaign"][0].SpanID {
			t.Fatalf("point span %s not under the campaign", p.SpanID)
		}
		if p.Attrs["outcome"] != "local" {
			t.Fatalf("standalone point outcome = %v, want local", p.Attrs["outcome"])
		}
	}
	// Cold cache: both lookups missed, both points ran in the engine.
	if n := len(byName["cache.lookup"]); n != 2 {
		t.Fatalf("%d cache.lookup spans, want 2", n)
	}
	for _, c := range byName["cache.lookup"] {
		if c.Attrs["tier"] != "miss" {
			t.Fatalf("cold-cache lookup tier = %v, want miss", c.Attrs["tier"])
		}
	}
	if n := len(byName["engine.run"]); n != 2 {
		t.Fatalf("%d engine.run spans, want 2", n)
	}

	// Ordering is stable: (start, span_id) ascending.
	for i := 1; i < len(sr.Spans); i++ {
		a, b := sr.Spans[i-1], sr.Spans[i]
		if a.StartUnixNs > b.StartUnixNs ||
			(a.StartUnixNs == b.StartUnixNs && a.SpanID > b.SpanID) {
			t.Fatalf("spans out of order at %d: (%d,%s) then (%d,%s)",
				i, a.StartUnixNs, a.SpanID, b.StartUnixNs, b.SpanID)
		}
	}

	// The HTML view serves the self-contained waterfall.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/spans?format=html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("html view: HTTP %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	page := buf.String()
	for _, want := range []string{"<svg", "job.run", "campaign", "Campaign waterfall", sr.TraceID} {
		if !strings.Contains(page, want) {
			t.Fatalf("waterfall page missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Fatal("waterfall page contains a script")
	}
}

// headerSpy proxies one worker and records every X-Request-ID and
// traceparent header that crosses it.
type headerSpy struct {
	proxy *httputil.ReverseProxy
	mu    sync.Mutex
	reqID map[string]bool
	tp    []string
}

func (h *headerSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	if v := r.Header.Get(obs.RequestIDHeader); v != "" {
		h.reqID[v] = true
	}
	if v := r.Header.Get(span.Header); v != "" {
		h.tp = append(h.tp, v)
	}
	h.mu.Unlock()
	h.proxy.ServeHTTP(w, r)
}

func newHeaderSpy(t *testing.T, worker *httptest.Server) (*headerSpy, *httptest.Server) {
	t.Helper()
	wu, err := url.Parse(worker.URL)
	if err != nil {
		t.Fatal(err)
	}
	spy := &headerSpy{proxy: httputil.NewSingleHostReverseProxy(wu), reqID: make(map[string]bool)}
	ts := httptest.NewServer(spy)
	t.Cleanup(ts.Close)
	return spy, ts
}

// TestSpansClusterStitchedTrace is the headline acceptance criterion: a
// coordinator fanning a span-traced campaign across two workers returns
// one stitched trace — lease attempts on the coordinator side, job.run
// and engine.run from the workers, all under a single root with no
// orphans — and the results stay byte-identical to an untraced run.
// The lease calls also carry the submitting request's X-Request-ID and
// a well-formed traceparent, pinning both propagation satellites.
func TestSpansClusterStitchedTrace(t *testing.T) {
	w1 := newWorkerServer(t)
	w2 := newWorkerServer(t)
	spy1, p1 := newHeaderSpy(t, w1)
	spy2, p2 := newHeaderSpy(t, w2)
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{Peers: []string{p1.URL, p2.URL}}})
	_, plain := newTestServer(t, Options{})

	points := `[
		{"Policy": "greedy", "NumTasks": 20, "Seed": 1},
		{"Policy": "round-robin", "NumTasks": 20, "Seed": 2},
		{"Policy": "greedy", "NumTasks": 25, "Seed": 3},
		{"Policy": "round-robin", "NumTasks": 25, "Seed": 4}
	]`
	traced := `{"kind": "points", "spans": true, "points": ` + points + `, "profile": ` + tinyProfile + `}`
	untraced := `{"kind": "points", "points": ` + points + `, "profile": ` + tinyProfile + `}`

	// Submit the traced job with a caller-chosen request ID; the header
	// must reappear on the lease calls the workers see.
	req, err := http.NewRequest(http.MethodPost, coord.URL+"/v1/jobs", strings.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "req-spans-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", resp.StatusCode, m)
	}
	id := m["id"].(string)
	waitState(t, coord, id, StateDone)
	code, tracedRes := getJSON(t, coord.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("traced result: HTTP %d: %s", code, tracedRes)
	}

	// Byte-identity: the same campaign without spans, on a fresh
	// standalone daemon, produces the same result payload (both daemons
	// are fresh, so both jobs get the same id).
	code, m2 := postJob(t, plain, untraced)
	if code != http.StatusAccepted {
		t.Fatalf("submit untraced: HTTP %d: %v", code, m2)
	}
	id2 := m2["id"].(string)
	if id2 != id {
		t.Fatalf("job ids diverged: %s vs %s", id, id2)
	}
	waitState(t, plain, id2, StateDone)
	code, plainRes := getJSON(t, plain.URL+"/v1/jobs/"+id2+"/result")
	if code != http.StatusOK {
		t.Fatalf("untraced result: HTTP %d: %s", code, plainRes)
	}
	if !bytes.Equal(tracedRes, plainRes) {
		t.Fatalf("traced run differs from untraced run:\ntraced:   %s\nuntraced: %s", tracedRes, plainRes)
	}

	sr := getSpans(t, coord, id)
	if sr.Dropped != 0 {
		t.Fatalf("trace dropped %d spans, want 0", sr.Dropped)
	}
	byName := checkWellFormed(t, sr)

	// Coordinator side: the campaign structure and one lease per point
	// (cold cache, two alive workers, no failures). The imported worker
	// timelines carry their own campaign/point spans for the leased
	// single-point jobs, so the counts split by outcome: 4 remote points
	// on the coordinator, 4 local ones inside the workers.
	outcomes := make(map[any]int)
	for _, p := range byName["point"] {
		outcomes[p.Attrs["outcome"]]++
	}
	if outcomes["remote"] != 4 || outcomes["local"] != 4 {
		t.Fatalf("point outcomes = %v, want 4 remote (coordinator) + 4 local (workers)", outcomes)
	}
	if n := len(byName["campaign"]); n != 5 {
		t.Fatalf("%d campaign spans, want 5 (coordinator + 4 leased jobs)", n)
	}
	if n := len(byName["lease.attempt"]); n < 4 {
		t.Fatalf("%d lease.attempt spans, want >= 4", n)
	}
	leaseIDs := make(map[string]bool)
	workersSeen := make(map[string]bool)
	for _, l := range byName["lease.attempt"] {
		leaseIDs[l.SpanID] = true
		w, _ := l.Attrs["worker"].(string)
		if w == "" {
			t.Fatalf("lease.attempt %s has no worker attr: %v", l.SpanID, l.Attrs)
		}
		workersSeen[w] = true
		if l.Attrs["outcome"] != "ok" {
			t.Fatalf("lease.attempt outcome = %v, want ok", l.Attrs["outcome"])
		}
	}
	if len(workersSeen) != 2 {
		t.Fatalf("leases landed on %d workers, want both: %v", len(workersSeen), workersSeen)
	}
	// Worker side, stitched in: each leased point contributes a job.run
	// parented under the lease attempt that caused it, with the worker's
	// engine.run beneath. The coordinator's own root makes it 1 + 4.
	if n := len(byName["job.run"]); n != 5 {
		t.Fatalf("%d job.run spans, want 5 (coordinator + 4 leases)", n)
	}
	remoteRoots := 0
	for _, jr := range byName["job.run"] {
		if jr.ParentID == "" {
			continue
		}
		if !leaseIDs[jr.ParentID] {
			t.Fatalf("worker job.run %s parented under %s, not a lease.attempt", jr.SpanID, jr.ParentID)
		}
		remoteRoots++
	}
	if remoteRoots != 4 {
		t.Fatalf("%d worker job.run spans stitched under leases, want 4", remoteRoots)
	}
	if n := len(byName["engine.run"]); n != 4 {
		t.Fatalf("%d engine.run spans, want 4 (one per leased point)", n)
	}

	// Propagation satellites: every lease call carried the submitting
	// request's ID, and the submits carried well-formed traceparents
	// naming this trace.
	for i, spy := range []*headerSpy{spy1, spy2} {
		spy.mu.Lock()
		sawReq := spy.reqID["req-spans-e2e"]
		tps := append([]string(nil), spy.tp...)
		spy.mu.Unlock()
		if !sawReq {
			t.Fatalf("worker %d never saw the submitted X-Request-ID", i+1)
		}
		if len(tps) == 0 {
			t.Fatalf("worker %d never saw a traceparent header", i+1)
		}
		for _, raw := range tps {
			tp, err := span.ParseTraceparent(raw)
			if err != nil {
				t.Fatalf("worker %d got malformed traceparent %q: %v", i+1, raw, err)
			}
			if tp.TraceID != sr.TraceID {
				t.Fatalf("traceparent names trace %s, campaign trace is %s", tp.TraceID, sr.TraceID)
			}
			if !leaseIDs[tp.Parent.String()] {
				t.Fatalf("traceparent parent %s is not a recorded lease.attempt", tp.Parent)
			}
		}
	}

	// The lease-duration histogram (satellite) recorded the successful
	// attempts by worker and outcome.
	byID, raw := scrape(t, coord.URL)
	var leaseCount float64
	for sid, s := range byID {
		if strings.HasPrefix(sid, `cluster_lease_duration_seconds_count{`) &&
			strings.Contains(sid, `outcome="ok"`) {
			leaseCount += s.Value
		}
	}
	if leaseCount < 4 {
		t.Fatalf("cluster_lease_duration_seconds ok-count = %g, want >= 4:\n%s", leaseCount, raw)
	}
	// Span durations folded into the span_duration_seconds histogram.
	if s, ok := byID[`span_duration_seconds_count{span="campaign"}`]; !ok || s.Value < 1 {
		t.Fatalf("span_duration_seconds{span=campaign} missing from exposition:\n%s", raw)
	}

	// Second submission of the same campaign: all four points served
	// from cache, and the trace says so.
	code, m3 := postJob(t, coord, traced)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %v", code, m3)
	}
	id3 := m3["id"].(string)
	waitState(t, coord, id3, StateDone)
	sr2 := getSpans(t, coord, id3)
	byName2 := checkWellFormed(t, sr2)
	if n := len(byName2["lease.attempt"]); n != 0 {
		t.Fatalf("cached rerun leased %d points, want 0", n)
	}
	hits := 0
	for _, c := range byName2["cache.lookup"] {
		if c.Attrs["tier"] == "memory" || c.Attrs["tier"] == "disk" {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("cached rerun recorded %d cache hits, want 4", hits)
	}
}

// TestSpansFigureJobTraced checks the other job kind: a figure job with
// spans enabled records its points too (figure campaigns run through
// the same dispatcher path).
func TestSpansFigureJobTraced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "spans": true, "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	byName := checkWellFormed(t, getSpans(t, ts, id))
	if len(byName["campaign"]) == 0 || len(byName["point"]) == 0 {
		t.Fatalf("figure trace missing campaign/point spans: %v", names(byName))
	}
	if jr := byName["job.run"][0]; jr.Attrs["figure"] != "figure10" {
		t.Fatalf("job.run figure attr = %v, want figure10", jr.Attrs["figure"])
	}
}

// names lists the distinct span names in a grouped trace, for failure
// messages.
func names(byName map[string][]span.Record) []string {
	var out []string
	for n := range byName {
		out = append(out, n)
	}
	return out
}

// TestSpansRootEndedWhenDone pins the settle order: the job.run root span
// ends, with its state attribute, before the job reads as settled. The
// test waits on the settle signal itself and reads the trace at that
// instant while it holds the server registry lock, which keeps the run
// goroutine from getting past its post-settle bookkeeping. A root that
// ended only after the state was published would be missing here, which
// is how a client fetching /spans right after "done" saw orphan spans.
// Each round gets a fresh server, so no earlier job's bookkeeping waits
// on the held lock ahead of the job under test.
func TestSpansRootEndedWhenDone(t *testing.T) {
	for i := 1; i <= 5; i++ {
		s, ts := newTestServer(t, Options{})
		code, m := postJob(t, ts, fmt.Sprintf(`{"kind": "points", "spans": true, "points": [
			{"Policy": "adaptive-rl", "NumTasks": 600, "Seed": %d}], "profile": %s}`, i, tinyProfile))
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, m)
		}
		s.mu.Lock()
		j := s.jobs[m["id"].(string)]
		select {
		case <-j.doneCh:
		case <-time.After(30 * time.Second):
			s.mu.Unlock()
			t.Fatalf("job %s never settled", j.id)
		}
		recs := j.spans.Snapshot()
		s.mu.Unlock()
		var root *span.Record
		for k := range recs {
			if recs[k].Name == "job.run" {
				root = &recs[k]
			}
		}
		if root == nil {
			t.Fatalf("round %d: job %s settled before its job.run span ended (%d spans)", i, j.id, len(recs))
		}
		if root.Attrs["state"] != string(StateDone) {
			t.Fatalf("round %d: job %s root span state %v, want %s", i, j.id, root.Attrs["state"], StateDone)
		}
	}
}
