package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/server"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if _, err := tail(xs, 0.9); err != nil {
		t.Fatalf("100 samples must satisfy the p90 rule: %v", err)
	}
	if _, err := tail(xs[:99], 0.9); err == nil {
		t.Fatal("99 samples leave 9 beyond p90; the rule must reject them")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Fatalf("empty percentile = %v, %d", v, beyond)
	}
}

func TestSelfTimeSubtractsCoveredTime(t *testing.T) {
	spans := []Span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		// Overlapping children cover their union, 10..50.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		// A child reaching past its parent counts only inside it.
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		// An aggregate child covers its summed duration.
		{Name: "agg", ID: 5, Parent: 1, Start: 60, End: 75, Aggregate: true, Calls: 3},
		// A grandchild covers its parent, not the root.
		{Name: "d", ID: 6, Parent: 3, Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10 - 15, 2: 20, 3: 20, 4: 30, 5: 15, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	over := []Span{
		{Name: "p", ID: 1, Start: 0, End: 10},
		{Name: "agg", ID: 2, Parent: 1, Start: 0, End: 30, Aggregate: true},
	}
	if s := SelfTimes(over)[1]; s != 0 {
		t.Fatalf("self time went to %d, want it clamped at 0", s)
	}
	by := ByName(spans)
	if by["root"].Self != 35 || by["a"].Spans != 1 || by["agg"].Total != 15 {
		t.Fatalf("ByName = %+v", by)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.BeginRoot("t", "x")
	sp.Count(3)
	sp.End()
	tr.Aggregate("t", sp.ID(), "y", time.Now(), 5, 1)
	if sp != nil || tr.Root("t") != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	tr = NewTracer()
	root := tr.BeginRoot("t", "root")
	child := tr.Begin("t", tr.Root("t"), "child")
	child.End()
	root.End()
	got := tr.Spans()
	if len(got) != 2 || got[0].Parent != root.ID() || got[1].Trace != "t" {
		t.Fatalf("spans = %+v", got)
	}
}

func TestTallyFailureAccounting(t *testing.T) {
	var tl tally
	for i := 0; i < 3; i++ {
		tl.attempt(nil)
	}
	tl.attempt(errors.New("wrong output"))
	tl.check(true, "not a failure")
	tl.check(false, "check %d failed", 7)
	a, f, errs := tl.counts()
	if a != 4 || f != 2 || len(errs) != 2 || errs[1] != "check 7 failed" {
		t.Fatalf("attempted %d failed %d errs %q", a, f, errs)
	}
	if r := tl.ratio(); r != 0.5 {
		t.Fatalf("failed ratio = %v, want 0.5", r)
	}
	// Failures never outnumber attempts.
	for i := 0; i < 5; i++ {
		tl.fail(errors.New("again"))
	}
	if _, f, _ := tl.counts(); f != 4 {
		t.Fatalf("failed = %d, want it capped at the 4 attempted", f)
	}
	var empty tally
	if empty.ratio() != 1 {
		t.Fatal("a run that attempted nothing must not read as failure-free")
	}
}

func TestPolicyDecoratorIsTransparent(t *testing.T) {
	p := experiments.DefaultProfile()
	for _, name := range append([]experiments.PolicyName{experiments.Greedy}, experiments.AllPolicies...) {
		spec := experiments.RunSpec{Policy: name, NumTasks: 120, HeterogeneityCV: 0.3, Seed: 7}
		plain, err := experiments.Run(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := experiments.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		tp := &timedPolicy{inner: pol}
		wrapped, err := experiments.RunWith(p, spec, tp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultJSON(plain), resultJSON(wrapped)) {
			t.Errorf("%s: results differ with the timing decorator", name)
		}
		if tp.t.calls[cbChoose] != int64(spec.NumTasks) || tp.t.calls[cbTick] == 0 || tp.t.total() <= 0 {
			t.Errorf("%s: decorator counted %v calls", name, tp.t.calls)
		}
	}
}

func TestFigureSpecsMatchPointCount(t *testing.T) {
	if _, err := newFigures(1, &tally{}); err != nil {
		t.Fatal(err)
	}
}

func TestSubseedIsStableAndDistinct(t *testing.T) {
	a, b := subseed(1, "x", 0), subseed(1, "x", 1)
	if a == b || a != subseed(1, "x", 0) || a == subseed(2, "x", 0) || a == subseed(1, "y", 0) {
		t.Fatal("subseed must be a deterministic, input-sensitive function")
	}
	if a == 0 || a > 1<<48 {
		t.Fatalf("subseed %d outside [1, 2^48]", a)
	}
}

func TestRouteAndPromCounters(t *testing.T) {
	for path, want := range map[string]string{
		"POST /v1/jobs":                  "submit",
		"GET /v1/jobs/job-000001":        "status",
		"GET /v1/jobs/job-000001/events": "events",
		"GET /v1/jobs/job-000001/result": "result",
		"DELETE /v1/jobs/job-000001":     "cancel",
		"GET /healthz":                   "healthz",
	} {
		method, target, _ := strings.Cut(path, " ")
		if got := route(httptest.NewRequest(method, target, nil)); got != want {
			t.Errorf("route(%s) = %q, want %q", path, got, want)
		}
	}
	text := "# HELP a x\na_total 3\nb_total{l=\"v\"} 9\nb_total 4.5\n"
	got, err := promCounters(strings.NewReader(text), "a_total", "b_total")
	if err != nil || got["a_total"] != 3 || got["b_total"] != 4.5 {
		t.Fatalf("promCounters = %v, %v", got, err)
	}
	if _, err := promCounters(strings.NewReader(text), "missing_total"); err == nil {
		t.Fatal("a missing series must be an error")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the program's metric tables and
// the benchmark description in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestFiguresTracedMatchesUntraced runs a reduced point list through the
// untraced path and the traced RunPoints path on two workers: the digests
// must agree and the per-layer metrics must be filled.
func TestFiguresTracedMatchesUntraced(t *testing.T) {
	f, err := newFigures(3, &tally{})
	if err != nil {
		t.Fatal(err)
	}
	f.specs = nil
	for _, name := range append([]experiments.PolicyName{experiments.Greedy}, experiments.AllPolicies...) {
		f.specs = append(f.specs, experiments.RunSpec{Policy: name, NumTasks: 80})
	}
	plain, err := f.measure(0, nil, minSamples)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	traced, err := f.measure(0, tr, minSamples)
	if err != nil {
		t.Fatal(err)
	}
	if a, failed, errs := f.t.counts(); failed != 0 || a == 0 {
		t.Fatalf("attempted %d failed %d: %v", a, failed, errs)
	}
	if plain.digest == "" || plain.digest != traced.digest {
		t.Fatalf("digests differ: untraced %s traced %s", plain.digest, traced.digest)
	}
	m := map[string]float64{}
	f.layers(m, tr.Spans())
	for _, k := range []string{"experiments.point_ms_p50", "sched.self_ns_per_event", "policy.adaptive_rl.share", "policy.qplus.tick_ns"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
}

// TestDaemonProbeRecordsLeases drives the coordinator and workers with the
// layer probe on, the path the race detector must see.
func TestDaemonProbeRecordsLeases(t *testing.T) {
	b := &daemonBench{seed: 5, scratch: t.TempDir(), t: &tally{}}
	tr := NewTracer()
	inst, err := b.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	d := inst.(*daemon)
	d.probe.start()
	if err := d.clients("test", 2, nil); err != nil {
		t.Fatal(err)
	}
	d.probe.stop()
	if n := len(d.probe.leaseMs); n != daemonClients*2*pointsPerJob {
		t.Fatalf("recorded %d leases, want %d", n, daemonClients*2*pointsPerJob)
	}
	if len(d.probe.submitMs) != daemonClients*2*(1+warmJobs) || d.probe.cacheSyncs.Load() == 0 || d.probe.journalSyncs.Load() == 0 {
		t.Fatalf("probe saw %d submits, %d cache and %d journal syncs", len(d.probe.submitMs),
			d.probe.cacheSyncs.Load(), d.probe.journalSyncs.Load())
	}
	by := ByName(tr.Spans())
	for _, name := range []string{"client.job", "server.submit", "cluster.lease", "cluster.poll", "worker.submit"} {
		if by[name].Spans == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}

// TestDrawPicksDistinctPoints checks that a warm job's points are distinct
// pool entries and that the same draw seed picks the same points.
func TestDrawPicksDistinctPoints(t *testing.T) {
	d := &daemon{}
	for i := 0; i < warmPoints+5; i++ {
		d.pool[0] = append(d.pool[0], server.PointResult{Completed: i})
	}
	a, b := d.draw(0, 42), d.draw(0, 42)
	if len(a) != warmPoints {
		t.Fatalf("drew %d points, want %d", len(a), warmPoints)
	}
	seen := map[int]bool{}
	for k, p := range a {
		if seen[p.Completed] {
			t.Fatalf("point %d drawn twice", p.Completed)
		}
		seen[p.Completed] = true
		if b[k] != p {
			t.Fatalf("draw %d differs between equal seeds: %v vs %v", k, p, b[k])
		}
	}
}
