package server

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/obs"
)

// startSpooled boots a server with a journal in dir. The caller owns the
// shutdown so incarnations can be sequenced explicitly.
func startSpooled(t *testing.T, opts Options, dir string) (*Server, *httptest.Server) {
	t.Helper()
	opts.SpoolDir = dir
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New with spool: %v", err)
	}
	return s, httptest.NewServer(s)
}

func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// TestRecoveryRestoresFinishedJobs finishes a job under incarnation one,
// restarts on the same spool, and expects the restored result to be
// byte-identical on the wire — plus the id sequence to continue, not
// restart.
func TestRecoveryRestoresFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startSpooled(t, Options{}, dir)
	code, m := postJob(t, ts1, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts1, id, StateDone)
	_, want := getJSON(t, ts1.URL+"/v1/jobs/"+id+"/result")
	stopServer(t, s1, ts1)

	s2, ts2 := startSpooled(t, Options{}, dir)
	defer stopServer(t, s2, ts2)
	st := waitTerminal(t, ts2.URL, id)
	if st.State != StateDone {
		t.Fatalf("restored job state = %s, want done", st.State)
	}
	if st.PointsDone != st.PointsTotal || st.PointsTotal == 0 {
		t.Fatalf("restored progress %d/%d, want full", st.PointsDone, st.PointsTotal)
	}
	code, got := getJSON(t, ts2.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("restored result: HTTP %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restored result differs from the original:\nwas:  %s\nnow:  %s", want, got)
	}

	// New submissions continue the id sequence past the restored job.
	code, m = postJob(t, ts2, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: HTTP %d: %v", code, m)
	}
	if next := m["id"].(string); next != "job-000002" {
		t.Fatalf("id after restart = %s, want job-000002", next)
	}
}

// TestRecoveryRerunsInterruptedJob interrupts a running job (forced
// shutdown stands in for the crash: neither leaves a terminal record)
// and expects the next incarnation to re-run it to completion with the
// exact result an uninterrupted daemon produces.
func TestRecoveryRerunsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startSpooled(t, Options{Jobs: 1}, dir)
	started := make(chan struct{})
	var startOnce sync.Once
	s1.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-s1.baseCtx.Done()
	}

	var pts []string
	for i := 0; i < 40; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	body := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started")
	}
	// Die mid-job: expired grace forces cancellation without a terminal
	// journal record, the same on-disk state a SIGKILL leaves behind.
	ts1.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Shutdown(expired)

	s2, ts2 := startSpooled(t, Options{Jobs: 1}, dir)
	defer stopServer(t, s2, ts2)
	st := waitTerminal(t, ts2.URL, id)
	if st.State != StateDone {
		t.Fatalf("recovered job settled as %s (%q), want done", st.State, st.Error)
	}
	_, got := getJSON(t, ts2.URL+"/v1/jobs/"+id+"/result")

	// An uninterrupted daemon on a fresh spool gives the reference bytes
	// (same spec, same first id, so the payloads are comparable).
	s3, ts3 := startSpooled(t, Options{Jobs: 1}, t.TempDir())
	defer stopServer(t, s3, ts3)
	code, m = postJob(t, ts3, body)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: HTTP %d: %v", code, m)
	}
	waitState(t, ts3, id, StateDone)
	_, want := getJSON(t, ts3.URL+"/v1/jobs/"+id+"/result")
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\nrecovered: %s\nreference: %s", got, want)
	}
}

// TestRecoveryClientCancelSticks cancels a queued job — a journaled,
// deliberate decision — and expects it to stay cancelled after restart
// instead of being re-run.
func TestRecoveryClientCancelSticks(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startSpooled(t, Options{Jobs: 1}, dir)
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s1.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-release
	}

	var pts []string
	for i := 0; i < 10; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	blocker := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts1, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d: %v", code, m)
	}
	blockerID := m["id"].(string)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never started")
	}

	code, m = postJob(t, ts1, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d: %v", code, m)
	}
	queuedID := m["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: HTTP %d", resp.StatusCode)
	}
	unblock()
	waitState(t, ts1, blockerID, StateDone)
	stopServer(t, s1, ts1)

	s2, ts2 := startSpooled(t, Options{Jobs: 1}, dir)
	defer stopServer(t, s2, ts2)
	st := waitTerminal(t, ts2.URL, queuedID)
	if st.State != StateCancelled {
		t.Fatalf("cancelled job after restart = %s, want cancelled (not re-run)", st.State)
	}
	if st := waitTerminal(t, ts2.URL, blockerID); st.State != StateDone {
		t.Fatalf("finished blocker after restart = %s, want done", st.State)
	}
}

// TestRecoveryOldSpoolRecordKinds restarts on a spool that also holds
// the per-point lease and cacheref lines earlier daemons wrote between a
// job's accepted and terminal records. They replay as unknown kinds: the
// job comes back done with its result, and each kind is logged once
// with its count rather than once per line.
func TestRecoveryOldSpoolRecordKinds(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := startSpooled(t, Options{}, dir)
	code, m := postJob(t, ts1, `{"kind": "points", "points": [
		{"Policy": "greedy", "NumTasks": 20, "Seed": 1},
		{"Policy": "greedy", "NumTasks": 20, "Seed": 2}
	], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts1, id, StateDone)
	_, want := getJSON(t, ts1.URL+"/v1/jobs/"+id+"/result")
	stopServer(t, s1, ts1)

	// Splice the old per-point lines in after the accepted record.
	path := filepath.Join(dir, "jobs.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal holds %d lines, want accepted + terminal:\n%s", len(lines), data)
	}
	var old strings.Builder
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&old, `{"op":"lease","id":%q,"point":%d,"worker":"http://127.0.0.1:9001","key":"sha256:%02d"}`+"\n", id, i, i)
		fmt.Fprintf(&old, `{"op":"cacheref","id":%q,"point":%d,"key":"sha256:%02d","result":{"Completed":20}}`+"\n", id, i, i)
	}
	spliced := lines[0] + old.String() + lines[1] + "\n"
	if err := os.WriteFile(path, []byte(spliced), 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf syncBuffer
	s2, ts2 := startSpooled(t, Options{Logger: obs.NewLogger(&logBuf, slog.LevelWarn)}, dir)
	defer stopServer(t, s2, ts2)
	if st := waitTerminal(t, ts2.URL, id); st.State != StateDone {
		t.Fatalf("restored job = %s, want done", st.State)
	}
	code, got := getJSON(t, ts2.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("restored result: HTTP %d\nnow: %s\nwas: %s", code, got, want)
	}
	logs := logBuf.String()
	if n := strings.Count(logs, "skipping unknown record kind"); n != 2 {
		t.Fatalf("logged %d unknown-kind warnings, want 2 (one per kind):\n%s", n, logs)
	}
	for _, op := range []string{"lease", "cacheref"} {
		if !strings.Contains(logs, `"op":"`+op+`","records":2`) {
			t.Fatalf("no warning for %s with its count of 2:\n%s", op, logs)
		}
	}
}
