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

	"rlsched/internal/experiments"
	"rlsched/internal/probe"
	"rlsched/internal/sched"
)

const seriesPointsBody = `{"kind": "points", "points": [
	{"Policy": "greedy", "NumTasks": 25, "Seed": 1},
	{"Policy": "round-robin", "NumTasks": 25, "Seed": 2}
], "series": {"cadence": 20}, "profile": ` + tinyProfile + `}`

// TestSeries404WithoutBlock pins the pay-nothing contract: a job
// submitted without a "series" block has no recorders, and both series
// endpoints say so with a 404.
func TestSeries404WithoutBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)
	for _, path := range []string{"/series", "/series/stream"} {
		code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404: %s", path, code, body)
		}
	}
}

func TestSubmitRejectsBadSeriesBlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := map[string]string{
		"unknown family":   `{"kind": "figure", "figure": "10", "series": {"select": ["vibes"]}, "profile": ` + tinyProfile + `}`,
		"negative cadence": `{"kind": "figure", "figure": "10", "series": {"cadence": -1}, "profile": ` + tinyProfile + `}`,
		"unknown key":      `{"kind": "figure", "figure": "10", "series": {"hz": 5}, "profile": ` + tinyProfile + `}`,
		"series name":      `{"kind": "figure", "figure": "10", "series": {"select": ["power.draw"]}, "profile": ` + tinyProfile + `}`,
	}
	for name, body := range cases {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	// The series block README.md documents is accepted as written.
	readme := `{"cadence": 50, "max_points": 512, "select": ["power"]}`
	body := `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 10, "Seed": 1}], "series": ` + readme + `, "profile": ` + tinyProfile + `}`
	if code, m := postJob(t, ts, body); code != http.StatusAccepted {
		t.Errorf("README series block: HTTP %d, want 202: %v", code, m)
	}
}

// TestSeriesJSONAndCSV drives a probed points job to completion and pins
// the central acceptance criterion: the HTTP CSV export is byte-identical
// to the CLI export path (probe.WriteSeriesCSV over the same campaign).
func TestSeriesJSONAndCSV(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code, m := postJob(t, ts, seriesPointsBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/series")
	if code != http.StatusOK {
		t.Fatalf("series: HTTP %d: %s", code, body)
	}
	var sr SeriesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("series JSON: %v", err)
	}
	if sr.ID != id || len(sr.Runs) != 2 {
		t.Fatalf("series response: id=%q runs=%d, want %q/2", sr.ID, len(sr.Runs), id)
	}
	if !sort.SliceIsSorted(sr.Runs, func(i, j int) bool { return sr.Runs[i].Label < sr.Runs[j].Label }) {
		t.Errorf("runs not sorted by label: %q, %q", sr.Runs[0].Label, sr.Runs[1].Label)
	}
	for _, run := range sr.Runs {
		if len(run.Series) == 0 {
			t.Fatalf("run %q recorded no series", run.Label)
		}
		for _, s := range run.Series {
			if len(s.Points) == 0 {
				t.Errorf("run %q series %q has no points", run.Label, s.Name)
			}
		}
	}

	// CSV via ?format=csv and via Accept must agree.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/series?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("CSV Content-Type = %q", ct)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/series", nil)
	req.Header.Set("Accept", "text/csv")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	gotCSV2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(gotCSV, gotCSV2) {
		t.Error("?format=csv and Accept: text/csv exports differ")
	}

	// The CLI path: the same campaign run locally through the experiments
	// package with the same probe config, exported with the same writer.
	prof := tinyProfileValue()
	log := newPointLog(func() *probe.Recorder { return probe.NewRecorder(probe.Config{Cadence: 20}) }, seriesView)
	prof.RecordersFor = func(i int, spec experiments.RunSpec) sched.Recorders {
		return sched.Recorders{Probe: log.hook(i, spec)}
	}
	specs := []experiments.RunSpec{
		{Policy: "greedy", NumTasks: 25, Seed: 1},
		{Policy: "round-robin", NumTasks: 25, Seed: 2},
	}
	if _, err := experiments.RunManyCtx(context.Background(), prof, specs); err != nil {
		t.Fatal(err)
	}
	runs, _ := log.snapshot()
	var wantCSV bytes.Buffer
	if err := probe.WriteSeriesCSV(&wantCSV, runs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Fatalf("HTTP CSV differs from CLI-path export:\nhttp %d bytes, cli %d bytes", len(gotCSV), wantCSV.Len())
	}

	// And the JSON body describes the same data as the CSV.
	back, err := probe.ReadSeriesCSV(bytes.NewReader(gotCSV))
	if err != nil {
		t.Fatalf("parsing HTTP CSV: %v", err)
	}
	if !reflect.DeepEqual(back, sr.Runs) {
		t.Fatal("CSV and JSON exports describe different data")
	}
}

// applyFrame folds one SSE series frame into the client-side state,
// mirroring what a live dashboard would do.
func applyFrame(state []probe.RunSeries, f SeriesFrame) []probe.RunSeries {
	if f.Reset {
		return f.Runs
	}
	for _, rd := range f.Deltas {
		for i := range state {
			if state[i].Index != rd.Index || state[i].Label != rd.Label {
				continue
			}
			for _, sd := range rd.Series {
				for k := range state[i].Series {
					if state[i].Series[k].Name != sd.Name {
						continue
					}
					pts := state[i].Series[k].Points
					state[i].Series[k].Points = append(pts[:sd.From:sd.From], sd.Points...)
				}
			}
		}
	}
	return state
}

// TestSeriesStream subscribes to the live stream while the job runs,
// applies every reset and delta frame, and checks the reconstruction
// converges to exactly what the one-shot endpoint returns afterwards.
func TestSeriesStream(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.seriesPoll = 5 * time.Millisecond
	code, m := postJob(t, ts, seriesPointsBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/series/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var (
		state    []probe.RunSeries
		frames   int
		resets   int
		curEvent string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			curEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && curEvent == "series":
			var f SeriesFrame
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
				t.Fatalf("frame: %v", err)
			}
			frames++
			if f.Reset {
				resets++
			} else if len(f.Deltas) == 0 {
				t.Fatal("non-reset frame with no deltas")
			}
			state = applyFrame(state, f)
		case strings.HasPrefix(line, "data: ") && curEvent == "done":
			var st JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				t.Fatalf("done event: %v", err)
			}
			if st.State != StateDone {
				t.Fatalf("job settled as %s", st.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if frames == 0 || resets == 0 {
		t.Fatalf("saw %d frames (%d resets), want at least one reset frame", frames, resets)
	}

	code, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/series")
	if code != http.StatusOK {
		t.Fatalf("series after stream: HTTP %d", code)
	}
	var sr SeriesResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(state, sr.Runs) {
		t.Fatalf("stream reconstruction differs from final snapshot:\nstream: %+v\nfinal:  %+v", state, sr.Runs)
	}
}

// TestSeriesDeltasStepBack covers the provisional-tail rule directly:
// when the previous snapshot ended in a mid-stride point, the delta must
// rewind one index and resend it.
func TestSeriesDeltasStepBack(t *testing.T) {
	prev := []probe.RunSeries{{Index: 0, Label: "l", Series: []probe.Series{
		{Name: "s", Points: []probe.Point{{T: 0, V: 1}, {T: 10, V: 2}}},
	}}}
	cur := []probe.RunSeries{{Index: 0, Label: "l", Series: []probe.Series{
		{Name: "s", Points: []probe.Point{{T: 0, V: 1}, {T: 20, V: 2.5}, {T: 30, V: 4}}},
	}}}
	f := seriesDeltas("id", prev, cur)
	if f == nil || len(f.Deltas) != 1 || len(f.Deltas[0].Series) != 1 {
		t.Fatalf("deltas = %+v", f)
	}
	d := f.Deltas[0].Series[0]
	if d.From != 1 || len(d.Points) != 2 {
		t.Fatalf("delta = %+v, want From=1 with the rewritten tail", d)
	}
	// Identical snapshots produce no frame at all.
	if f := seriesDeltas("id", cur, cur); f != nil {
		t.Fatalf("no-change deltas = %+v, want nil", f)
	}
}

// TestSeriesLogReset covers the retry path: a reset drops recorded runs
// and bumps the change tag so streams resend in full.
func TestSeriesLogReset(t *testing.T) {
	log := newPointLog(func() *probe.Recorder { return probe.NewRecorder(probe.Config{}) }, seriesView)
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
