package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rlsched/internal/audit"
	"rlsched/internal/experiments"
	"rlsched/internal/memory"
	"rlsched/internal/sched"
)

const decisionsPointsBody = `{"kind": "points", "points": [
	{"Policy": "adaptive-rl", "NumTasks": 25, "Seed": 1},
	{"Policy": "greedy", "NumTasks": 25, "Seed": 2}
], "decisions": {}, "profile": ` + tinyProfile + `}`

// TestDecisions404WithoutBlock pins the pay-nothing contract: a job
// submitted without a "decisions" block has no recorders, and both
// decision endpoints say so with a 404.
func TestDecisions404WithoutBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	for _, path := range []string{"/decisions", "/decisions/stream"} {
		code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404: %s", path, code, body)
		}
	}
}

func TestSubmitRejectsBadDecisionsBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := map[string]string{
		"negative max_decisions": `{"kind": "figure", "figure": "10", "decisions": {"max_decisions": -1}, "profile": ` + tinyProfile + `}`,
		"negative top_k":         `{"kind": "figure", "figure": "10", "decisions": {"top_k": -3}, "profile": ` + tinyProfile + `}`,
		"unknown key":            `{"kind": "figure", "figure": "10", "decisions": {"depth": 5}, "profile": ` + tinyProfile + `}`,
	}
	for name, body := range cases {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
}

// TestDecisionsScaleJob checks that a scale job records every artifact
// its spec asks for: the trace, the series and the decision audit of its
// one streaming run, served as point 0.
func TestDecisionsScaleJob(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "scale", "trace": true, "series": {"cadence": 50}, "decisions": {},
		"scale": {"preset": "small", "sites": 4, "num_tasks": 300, "seed": 3}}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	label := experiments.PointLabel(experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: 300, Seed: 3})

	var tr TraceResponse
	getInto(t, ts.URL+"/v1/jobs/"+id+"/trace", &tr)
	if tr.Total == 0 || len(tr.Events) == 0 {
		t.Errorf("scale trace empty: total %d, %d events", tr.Total, len(tr.Events))
	}
	var sr SeriesResponse
	getInto(t, ts.URL+"/v1/jobs/"+id+"/series", &sr)
	if len(sr.Runs) != 1 || sr.Runs[0].Label != label || len(sr.Runs[0].Series) == 0 {
		t.Errorf("scale series = %+v, want one non-empty run labelled %q", sr.Runs, label)
	}
	var dr DecisionsResponse
	getInto(t, ts.URL+"/v1/jobs/"+id+"/decisions", &dr)
	if len(dr.Runs) != 1 || dr.Runs[0].Index != 0 || dr.Runs[0].Label != label {
		t.Fatalf("scale decisions runs = %d, want one run labelled %q at index 0", len(dr.Runs), label)
	}
	if l := dr.Runs[0].Log; l.Total == 0 || l.Fed == 0 || len(l.Decisions) == 0 {
		t.Errorf("scale decisions: total %d, fed %d, %d retained; want all > 0", l.Total, l.Fed, len(l.Decisions))
	}
}

// getInto GETs url, requires 200 and decodes the JSON body into v.
func getInto(t *testing.T, url string, v any) {
	t.Helper()
	code, raw := getJSON(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, code, raw)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestDecisionsJSONAndCSV drives an audited points job to completion and
// pins the export contract: the HTTP CSV is byte-identical to the CLI
// export path (audit.WriteDecisionsCSV over the same campaign), and the
// JSON body describes the same decisions.
func TestDecisionsJSONAndCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, decisionsPointsBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("decisions: HTTP %d: %s", code, body)
	}
	var dr DecisionsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decisions JSON: %v", err)
	}
	if dr.ID != id || len(dr.Runs) != 2 {
		t.Fatalf("decisions response: id=%q runs=%d, want %q/2", dr.ID, len(dr.Runs), id)
	}
	if !sort.SliceIsSorted(dr.Runs, func(i, j int) bool { return dr.Runs[i].Label < dr.Runs[j].Label }) {
		t.Errorf("runs not sorted by label: %q, %q", dr.Runs[0].Label, dr.Runs[1].Label)
	}
	for _, run := range dr.Runs {
		if run.Total == 0 || len(run.Decisions) == 0 {
			t.Fatalf("run %q recorded no decisions", run.Label)
		}
		if len(run.Curves) == 0 {
			t.Errorf("run %q carries no learning-curve series", run.Label)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/decisions?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("CSV Content-Type = %q", ct)
	}

	// The CLI path: the same campaign run locally through the experiments
	// package with the same audit config, exported with the same writer.
	prof := tinyProfileValue()
	log := newPointLog(func() *audit.Recorder { return audit.NewRecorder(audit.Config{}) }, decisionsView)
	prof.RecordersFor = func(i int, spec experiments.RunSpec) sched.Recorders {
		return sched.Recorders{Audit: log.hook(i, spec)}
	}
	specs := []experiments.RunSpec{
		{Policy: "adaptive-rl", NumTasks: 25, Seed: 1},
		{Policy: "greedy", NumTasks: 25, Seed: 2},
	}
	if _, err := experiments.RunManyCtx(context.Background(), prof, specs); err != nil {
		t.Fatal(err)
	}
	runs, _ := log.snapshot()
	var wantCSV bytes.Buffer
	if err := audit.WriteDecisionsCSV(&wantCSV, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Fatalf("HTTP CSV differs from CLI-path export:\nhttp %d bytes, cli %d bytes", len(gotCSV), wantCSV.Len())
	}

	// The CSV round-trips, and the decisions it describes match the JSON
	// body row for row (curves and counters live only in the JSON).
	back, err := audit.ReadDecisionsCSV(bytes.NewReader(gotCSV))
	if err != nil {
		t.Fatalf("parsing HTTP CSV: %v", err)
	}
	if len(back) != len(dr.Runs) {
		t.Fatalf("CSV has %d runs, JSON %d", len(back), len(dr.Runs))
	}
	for i := range back {
		if back[i].Label != dr.Runs[i].Label || len(back[i].Decisions) != len(dr.Runs[i].Decisions) {
			t.Fatalf("run %d: CSV %q/%d decisions vs JSON %q/%d", i,
				back[i].Label, len(back[i].Decisions), dr.Runs[i].Label, len(dr.Runs[i].Decisions))
		}
		for k := range back[i].Decisions {
			if back[i].Decisions[k].Seq != dr.Runs[i].Decisions[k].Seq ||
				back[i].Decisions[k].Kind != dr.Runs[i].Decisions[k].Kind {
				t.Fatalf("run %d decision %d: CSV and JSON disagree", i, k)
			}
		}
	}

	// ?format=html serves the self-contained policy report.
	hresp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/decisions?format=html")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if ct := hresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("HTML Content-Type = %q", ct)
	}
	for _, want := range []string{"Policy report", "state visitation", "top decisions"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("policy report missing %q", want)
		}
	}
}

// TestDecisionsE2EByteIdentical is the central acceptance criterion,
// asserted through the daemon: a job submitted with a decisions block
// produces byte-for-byte the same result points as the identical job
// without one. Auditing observes; it never steers.
func TestDecisionsE2EByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	points := `"points": [
		{"Policy": "adaptive-rl", "NumTasks": 25, "Seed": 1},
		{"Policy": "greedy", "NumTasks": 25, "Seed": 2}
	], "profile": ` + tinyProfile
	bodies := []string{
		`{"kind": "points", ` + points + `}`,
		`{"kind": "points", "decisions": {}, ` + points + `}`,
	}
	var results [2]json.RawMessage
	for i, body := range bodies {
		code, m := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, m)
		}
		id := m["id"].(string)
		waitState(t, ts, id, StateDone)
		code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d: %s", i, code, raw)
		}
		var res struct {
			Points json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		results[i] = res.Points
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("audited job result differs from unaudited:\nplain:   %s\naudited: %s", results[0], results[1])
	}
}

// TestDecisionsStream subscribes to the live stream while the job runs
// and checks the final full-snapshot frame matches what the one-shot
// endpoint returns afterwards.
func TestDecisionsStream(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.seriesPoll = 5 * time.Millisecond
	code, m := postJob(t, ts, decisionsPointsBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/decisions/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var (
		last     DecisionsResponse
		frames   int
		sawDone  bool
		curEvent string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			curEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && curEvent == "decisions":
			var f DecisionsResponse
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				t.Fatalf("frame: %v", err)
			}
			frames++
			last = f
		case strings.HasPrefix(line, "data: ") && curEvent == "done":
			var st JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("done event: %v", err)
			}
			if st.State != StateDone {
				t.Fatalf("job settled as %s", st.State)
			}
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if frames == 0 || !sawDone {
		t.Fatalf("saw %d frames, done=%v", frames, sawDone)
	}

	code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("decisions after stream: HTTP %d", code)
	}
	var dr DecisionsResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last.Runs, dr.Runs) {
		t.Fatalf("final stream frame differs from final snapshot:\nstream: %+v\nfinal:  %+v", last.Runs, dr.Runs)
	}
}

// TestDecisionsMetrics checks the settle-time folds: an audited
// adaptive-rl job lands its decision tallies in rl_decisions_total and
// rl_exploration_ratio, and its shared-memory counters — exported by
// every run, audited or not — in the memory_* series.
func TestDecisionsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, decisionsPointsBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	byID, raw := scrape(t, ts.URL)
	var decisions float64
	for sid, s := range byID {
		if strings.HasPrefix(sid, "rl_decisions_total{") {
			decisions += s.Value
		}
	}
	if decisions <= 0 {
		t.Fatalf("rl_decisions_total sums to %g, want > 0:\n%s", decisions, raw)
	}
	ratio, ok := byID["rl_exploration_ratio"]
	if !ok {
		t.Fatalf("rl_exploration_ratio missing:\n%s", raw)
	}
	if ratio.Value < 0 || ratio.Value > 1 {
		t.Fatalf("rl_exploration_ratio = %g, want within [0,1]", ratio.Value)
	}
	for _, name := range []string{"memory_lookups_total", "memory_hits_total", "memory_evictions_total", "memory_occupancy"} {
		s, ok := byID[name]
		if !ok {
			t.Fatalf("%s missing:\n%s", name, raw)
		}
		if s.Value < 0 {
			t.Fatalf("%s = %g, want >= 0", name, s.Value)
		}
	}
	// The adaptive-rl point performed actual memory work.
	if byID["memory_lookups_total"].Value <= 0 || byID["memory_occupancy"].Value <= 0 {
		t.Fatalf("memory counters empty: lookups=%g occupancy=%g",
			byID["memory_lookups_total"].Value, byID["memory_occupancy"].Value)
	}
}

// TestDecisionLogReset covers the retry path: a reset drops recorded
// runs and bumps the change tag so streams resend in full.
func TestDecisionLogReset(t *testing.T) {
	log := newPointLog(func() *audit.Recorder { return audit.NewRecorder(audit.Config{}) }, decisionsView)
	rec := log.hook(0, experiments.RunSpec{Policy: "greedy", NumTasks: 10, Seed: 1})
	if rec == nil {
		t.Fatal("hook returned nil recorder")
	}
	runs, tag1 := log.snapshot()
	if len(runs) != 1 {
		t.Fatalf("snapshot has %d runs, want 1", len(runs))
	}
	log.reset()
	runs, tag2 := log.snapshot()
	if len(runs) != 0 {
		t.Fatalf("reset left %d runs", len(runs))
	}
	if tag2 == tag1 {
		t.Fatal("reset did not change the snapshot tag")
	}
}

// TestDecisionLogTagMovesOnFeedback pins the stream's change detection:
// feedback rewrites a retained decision (and the reward curves) without
// adding a decision, and the tag must still move, or a stream would skip
// its final frame and leave subscribers with stale rewards.
func TestDecisionLogTagMovesOnFeedback(t *testing.T) {
	log := newPointLog(func() *audit.Recorder { return audit.NewRecorder(audit.Config{}) }, decisionsView)
	rec := log.hook(0, experiments.RunSpec{Policy: "adaptive-rl", NumTasks: 10, Seed: 1})
	rec.Decision(1, 0, memory.Action{Opnum: 2}, audit.Note{Kind: audit.KindExploit})
	rec.Assigned(0, 7)
	_, before := log.snapshot()
	rec.Feedback(7, 2, 0.5, 0.1)
	runs, after := log.snapshot()
	if !runs[0].Decisions[0].Fed {
		t.Fatal("feedback did not land on the decision")
	}
	if after == before {
		t.Fatal("feedback did not change the snapshot tag")
	}
}
