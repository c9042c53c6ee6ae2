package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"rlsched/internal/config"
	"rlsched/internal/experiments"
)

// runJob submits body, waits for it to finish and returns its result
// payload and final status.
func runJob(t *testing.T, ts *httptest.Server, body string) ([]byte, map[string]any) {
	t.Helper()
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	final := waitState(t, ts, id, StateDone)
	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, raw)
	}
	return raw, final
}

// TestFigureAllSharesPoints sends a figure "all" job to a coordinator
// with a fresh cache: its figures share their points, so the dispatcher
// keys and leases the 34 distinct points per replication once each while
// progress still counts all 72. The result matches a standalone daemon
// byte for byte, and a per-figure library run.
func TestFigureAllSharesPoints(t *testing.T) {
	const reps = 2
	w1, w2 := newWorkerServer(t), newWorkerServer(t)
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{Peers: []string{w1.URL, w2.URL}}})
	_, solo := newTestServer(t, Options{})
	prof := `{"Replications": 2, "ObservationPeriod": 300, "LightTasks": 500, "HeavyTasks": 3000, "Workers": 2}`
	body := `{"kind": "figure", "figure": "all", "profile": ` + prof + `}`

	var results [2][]byte
	for i, ts := range []*httptest.Server{coord, solo} {
		var final map[string]any
		results[i], final = runJob(t, ts, body)
		if final["points_done"].(float64) != 72*reps {
			t.Fatalf("server %d: points_done %v, want %d", i, final["points_done"], 72*reps)
		}
		if got := promValue(t, ts, "points_completed_total"); got != 72*reps {
			t.Fatalf("server %d: points_completed_total = %v, want %d", i, got, 72*reps)
		}
		if got := promValue(t, ts, "cache_misses_total"); got != 34*reps {
			t.Fatalf("server %d: cache_misses_total = %v, want %d", i, got, 34*reps)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("coordinator result differs from a standalone daemon:\ncoord: %s\nsolo:  %s", results[0], results[1])
	}
	var leased uint64
	for _, w := range clusterStatus(t, coord).Workers {
		leased += w.Leased
	}
	if leased != 34*reps {
		t.Fatalf("leased %d points, want %d", leased, 34*reps)
	}

	p := tinyProfileValue()
	p.Replications = reps
	p.LightTasks, p.HeavyTasks = 500, 3000
	ids, err := experiments.FigureIDs(experiments.FigureIDAll)
	if err != nil {
		t.Fatal(err)
	}
	var singles []experiments.Figure
	for _, id := range ids {
		fig, err := experiments.FigureByID(context.Background(), p, id)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, fig)
	}
	var res JobResult
	if err := json.Unmarshal(results[0], &res); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(singles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Figures)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon figures differ from per-figure library runs:\ndaemon:  %s\nlibrary: %s", got, want)
	}
}

// TestPointsJobRepeatedSpecRunsOnce sends one spec three times in a
// points job: the coordinator keys and leases it once, and a standalone
// daemon runs it locally once; both return three equal summaries.
func TestPointsJobRepeatedSpecRunsOnce(t *testing.T) {
	w1 := newWorkerServer(t)
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{Peers: []string{w1.URL}}})
	solo, soloTS := newTestServer(t, Options{})
	spec := `{"Policy": "greedy", "NumTasks": 25, "Seed": 4}`
	body := `{"kind": "points", "points": [` + spec + `, ` + spec + `, ` + spec + `], "profile": ` + tinyProfile + `}`

	var summaries [2][]PointResult
	for i, ts := range []*httptest.Server{coord, soloTS} {
		raw, final := runJob(t, ts, body)
		if final["points_done"].(float64) != 3 {
			t.Fatalf("server %d: points_done %v, want 3", i, final["points_done"])
		}
		var res JobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != 3 || res.Points[1] != res.Points[0] || res.Points[2] != res.Points[0] {
			t.Fatalf("server %d: summaries %+v, want three equal ones", i, res.Points)
		}
		summaries[i] = res.Points
		if got := promValue(t, ts, "cache_misses_total"); got != 1 {
			t.Fatalf("server %d: cache_misses_total = %v, want 1", i, got)
		}
		if got := promValue(t, ts, "points_completed_total"); got != 3 {
			t.Fatalf("server %d: points_completed_total = %v, want 3", i, got)
		}
	}
	if !reflect.DeepEqual(summaries[0], summaries[1]) {
		t.Fatalf("coordinator summaries %+v differ from standalone %+v", summaries[0], summaries[1])
	}
	if got := promValue(t, coord, "cluster_points_remote_total"); got != 1 {
		t.Fatalf("cluster_points_remote_total = %v, want 1 lease", got)
	}
	if cs := solo.cache.Stats(); cs.Misses != 1 || cs.Puts != 1 {
		t.Fatalf("standalone cache stats = %+v, want 1 miss / 1 put", cs)
	}
}
