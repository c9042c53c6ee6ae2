package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockerBody is a one-replication points job for gatedServer to hold
// mid-flight.
const blockerBody = `{"kind": "points", "points": [
	{"Policy": "greedy", "NumTasks": 10, "Seed": 1},
	{"Policy": "greedy", "NumTasks": 10, "Seed": 2}
], "profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`

// gatedServer starts a one-slot daemon and parks a blocker job on it;
// see holdBlocker.
func gatedServer(t *testing.T, opts Options) (s *Server, ts *httptest.Server, blockerID string, release func()) {
	t.Helper()
	opts.Jobs = 1
	s, ts = newTestServer(t, opts)
	blockerID, release = holdBlocker(t, s, ts)
	return s, ts, blockerID, release
}

// holdBlocker submits a blocker job to a one-slot daemon and parks it
// after its first completed point, so later jobs queue behind it. The
// returned release lets the blocker (and everything behind it) finish;
// it is idempotent and also runs at cleanup.
func holdBlocker(t *testing.T, s *Server, ts *httptest.Server) (blockerID string, release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	var startOnce, relOnce sync.Once
	release = func() { relOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-gate
	}
	code, m := postJob(t, ts, blockerBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d: %v", code, m)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never started")
	}
	return m["id"].(string), release
}

// longPoll issues GET /v1/jobs/{id}?wait=<wait> and returns the status
// and how long the answer took.
func longPoll(t *testing.T, ts *httptest.Server, id, wait string) (JobStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait="+wait)
	took := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("long poll %s: HTTP %d: %s", id, code, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st, took
}

// parkedPoll is the outcome of a long poll issued by parkPoll.
type parkedPoll struct {
	st  JobStatus
	err error
}

// parkPoll issues GET /v1/jobs/{id}?wait=1m on its own goroutine, which
// must not fail the test itself; the caller checks the outcome.
func parkPoll(ts *httptest.Server, id string) <-chan parkedPoll {
	out := make(chan parkedPoll, 1)
	go func() {
		var p parkedPoll
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1m")
		if err != nil {
			out <- parkedPoll{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			p.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		} else {
			p.err = json.NewDecoder(resp.Body).Decode(&p.st)
		}
		out <- p
	}()
	return out
}

// waitParked waits until n requests are in flight besides the metrics
// scrape that counts them: n long polls parked in the handler.
func waitParked(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for promValue(t, ts, "http_requests_in_flight") < float64(n+1) {
		if time.Now().After(deadline) {
			t.Fatalf("%d long polls never parked", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deleteJob cancels a job and checks the 202.
func deleteJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
	}
}

func TestStatusWaitRejectsBadValues(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	for _, bad := range []string{"soon", "10", "-1s", "1m0.001s", "2m"} {
		code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait="+bad)
		if code != http.StatusBadRequest {
			t.Fatalf("wait=%s: HTTP %d, want 400: %s", bad, code, raw)
		}
		var eb map[string]string
		if err := json.Unmarshal(raw, &eb); err != nil || !strings.Contains(eb["error"], "wait") {
			t.Fatalf("wait=%s: body %s is not a structured error naming wait", bad, raw)
		}
	}
	// The bounds themselves are accepted.
	waitState(t, ts, id, StateDone)
	for _, ok := range []string{"0s", "1m"} {
		if st, _ := longPoll(t, ts, id, ok); st.State != StateDone {
			t.Fatalf("wait=%s: state %s, want done", ok, st.State)
		}
	}
	// An unknown job is still a 404, wait or no wait.
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/job-999999?wait=1s"); code != http.StatusNotFound {
		t.Fatalf("unknown job with wait: HTTP %d, want 404", code)
	}
}

func TestStatusWaitSettledAnswersAtOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	// The first long poll rides the job to its end; the second finds it
	// settled and must not wait at all.
	if st, _ := longPoll(t, ts, id, "1m"); st.State != StateDone {
		t.Fatalf("long poll returned %s before the job settled", st.State)
	}
	st, took := longPoll(t, ts, id, "1m")
	if st.State != StateDone || took > time.Second {
		t.Fatalf("settled job: state %s after %v, want done at once", st.State, took)
	}
}

func TestStatusWaitRunningAnswersAtDeadline(t *testing.T) {
	_, ts, id, _ := gatedServer(t, Options{})
	const wait = 150 * time.Millisecond
	st, took := longPoll(t, ts, id, wait.String())
	if st.State != StateRunning {
		t.Fatalf("state %s, want running", st.State)
	}
	if took < wait || took > wait+2*time.Second {
		t.Fatalf("running job answered after %v, want about %v", took, wait)
	}
}

func TestStatusWaitReleasedByCancel(t *testing.T) {
	_, ts, _, _ := gatedServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	queued := m["id"].(string)
	got := parkPoll(ts, queued)
	waitParked(t, ts, 1)
	deleteJob(t, ts, queued)
	select {
	case p := <-got:
		if p.err != nil || p.st.State != StateCancelled {
			t.Fatalf("waiter released with state %q (%v), want cancelled", p.st.State, p.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DELETE did not release the parked long poll")
	}
}

// TestStatusWaitClientDisconnect parks long polls, drops their clients
// and checks the handler goroutines unwind, as the SSE teardown test
// does for streams.
func TestStatusWaitClientDisconnect(t *testing.T) {
	_, ts, id, release := gatedServer(t, Options{})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"?wait=1m", nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
	}
	waitParked(t, ts, 4)
	cancel()
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for promValue(t, ts, "http_requests_in_flight") > 1 {
		if time.Now().After(deadline) {
			t.Fatal("long-poll handlers still in flight after their clients left")
		}
		time.Sleep(5 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked after disconnect: %d before, %d after", before, g)
	}
	release()
	if st := waitTerminal(t, ts.URL, id); st.State != StateDone {
		t.Fatalf("job settled as %s (%q), want done", st.State, st.Error)
	}
}

// TestStatusWaitReleasedByShutdown parks a long poll on a running job
// and starts a graceful Shutdown: the poll must answer at once, still
// non-terminal, rather than hold its connection while the queue drains.
func TestStatusWaitReleasedByShutdown(t *testing.T) {
	// Built by hand: the test calls Shutdown itself, so newTestServer's
	// cleanup must not call it again.
	s, err := New(Options{Jobs: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	id, release := holdBlocker(t, s, ts)
	got := parkPoll(ts, id)
	waitParked(t, ts, 1)
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		stopped <- s.Shutdown(ctx)
	}()
	select {
	case p := <-got:
		if p.err != nil || p.st.State != StateRunning {
			t.Fatalf("released poll saw %q (%v), want running", p.st.State, p.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not release the parked long poll")
	}
	release()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the job drained")
	}
	if st := s.jobs[id].status(); st.State != StateDone {
		t.Fatalf("drained job settled as %s, want done", st.State)
	}
}
