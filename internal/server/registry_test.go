package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// onePoint is a single tiny point, for jobs the registry tests submit by
// the hundred.
const onePoint = `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 10, "Seed": 1}],
	"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`

// submitAndCancel queues n one-point jobs behind a held blocker and
// cancels each in submission order, so they settle in that order.
func submitAndCancel(t *testing.T, ts *httptest.Server, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		code, m := postJob(t, ts, onePoint)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, m)
		}
		ids[i] = m["id"].(string)
	}
	for _, id := range ids {
		deleteJob(t, ts, id)
	}
	return ids
}

// listJobs fetches GET /v1/jobs.
func listJobs(t *testing.T, ts *httptest.Server) []JobStatus {
	t.Helper()
	code, raw := getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d: %s", code, raw)
	}
	var list []JobStatus
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	return list
}

// boundedList fetches GET /v1/jobs once the registry is back within its
// bound: long-poll waiters wake before the settling job's own eviction
// runs, so right after a settle the listing may hold one job too many.
func boundedList(t *testing.T, ts *httptest.Server) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	list := listJobs(t, ts)
	for len(list) > maxSettledJobs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		list = listJobs(t, ts)
	}
	return list
}

// checkEvicted asserts every per-job route answers 404 for id.
func checkEvicted(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for _, path := range []string{"", "?wait=1s", "/result", "/events"} {
		if code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+path); code != http.StatusNotFound {
			t.Fatalf("evicted %s%s: HTTP %d, want 404: %s", id, path, code, raw)
		}
	}
}

// checkKept asserts id is still registered, in state want.
func checkKept(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("kept %s: HTTP %d: %s", id, code, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != want {
		t.Fatalf("kept %s is %s, want %s", id, st.State, want)
	}
}

// TestRegistryEvictsLongestSettled settles maxSettledJobs+k jobs while
// an older job runs and another waits: the k that settled first are
// forgotten, the live jobs never are, and a job that settles later
// evicts the next-oldest settled one rather than itself.
func TestRegistryEvictsLongestSettled(t *testing.T) {
	const k = 3
	_, ts, running, release := gatedServer(t, Options{QueueDepth: maxSettledJobs + 16})
	code, m := postJob(t, ts, onePoint)
	if code != http.StatusAccepted {
		t.Fatalf("submit queued: HTTP %d: %v", code, m)
	}
	queued := m["id"].(string)
	settled := submitAndCancel(t, ts, maxSettledJobs+k)

	for _, id := range settled[:k] {
		checkEvicted(t, ts, id)
	}
	for _, id := range settled[k:] {
		checkKept(t, ts, id, StateCancelled)
	}
	checkKept(t, ts, running, StateRunning)
	checkKept(t, ts, queued, StateQueued)
	if n := len(listJobs(t, ts)); n != maxSettledJobs+2 {
		t.Fatalf("listed %d jobs, want %d settled plus the running and the queued one", n, maxSettledJobs)
	}

	// The two live jobs settle last, so each evicts the oldest cancelled
	// job still held.
	release()
	for _, id := range []string{running, queued} {
		if st, _ := longPoll(t, ts, id, "1m"); st.State != StateDone {
			t.Fatalf("job %s settled as %s, want done", id, st.State)
		}
	}
	list := boundedList(t, ts)
	checkEvicted(t, ts, settled[k])
	checkEvicted(t, ts, settled[k+1])
	checkKept(t, ts, settled[k+2], StateCancelled)
	if len(list) != maxSettledJobs {
		t.Fatalf("listed %d jobs, want %d", len(list), maxSettledJobs)
	}
	// The listing keeps submission order: the two oldest ids survive at
	// the front because they settled last.
	if list[0].ID != running || list[1].ID != queued || list[2].ID != settled[k+2] {
		t.Fatalf("list starts %s, %s, %s; want %s, %s, %s",
			list[0].ID, list[1].ID, list[2].ID, running, queued, settled[k+2])
	}
}

// TestRegistryBoundSurvivesRestart replays a spool holding more settled
// jobs than the bound: the restored registry keeps the same jobs the
// live one did, and new ids continue past every journaled one, evicted
// or not.
func TestRegistryBoundSurvivesRestart(t *testing.T) {
	const k = 3
	dir := t.TempDir()
	s1, ts1 := startSpooled(t, Options{Jobs: 1, QueueDepth: maxSettledJobs + 16}, dir)
	blocker, release := holdBlocker(t, s1, ts1)
	settled := submitAndCancel(t, ts1, maxSettledJobs+k)
	release()
	if st, _ := longPoll(t, ts1, blocker, "1m"); st.State != StateDone {
		t.Fatalf("blocker settled as %s, want done", st.State)
	}
	live := boundedList(t, ts1)
	stopServer(t, s1, ts1)

	s2, ts2 := startSpooled(t, Options{}, dir)
	defer stopServer(t, s2, ts2)
	restored := listJobs(t, ts2)
	if len(restored) != maxSettledJobs || len(live) != maxSettledJobs {
		t.Fatalf("restored %d jobs, live daemon held %d; want %d each", len(restored), len(live), maxSettledJobs)
	}
	for i := range live {
		if restored[i].ID != live[i].ID || restored[i].State != live[i].State {
			t.Fatalf("restored job %d = %s (%s), live daemon held %s (%s)",
				i, restored[i].ID, restored[i].State, live[i].ID, live[i].State)
		}
	}
	// The blocker settled last, so it survives; the k+1 cancelled jobs
	// that settled first are gone.
	checkKept(t, ts2, blocker, StateDone)
	for _, id := range settled[:k+1] {
		checkEvicted(t, ts2, id)
	}
	code, m := postJob(t, ts2, onePoint)
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: HTTP %d: %v", code, m)
	}
	if want := fmt.Sprintf("job-%06d", maxSettledJobs+k+2); m["id"] != want {
		t.Fatalf("id after restart = %v, want %s", m["id"], want)
	}
}
