package experiments

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"rlsched/internal/audit"
	"rlsched/internal/sched"
)

// auditSpecs is a small adaptive-rl campaign: the RL policy annotates
// its decisions (kind, state, epsilon, candidates), so these runs
// exercise the full audit surface, not just the engine hooks.
func auditSpecs() []RunSpec {
	return []RunSpec{
		{Policy: AdaptiveRL, NumTasks: 60, Seed: 1},
		{Policy: AdaptiveRL, NumTasks: 60, Seed: 2},
		{Policy: AdaptiveRL, NumTasks: 60, HeterogeneityCV: 0.5, Seed: 3},
	}
}

// auditCampaign runs the specs with an audit recorder per point at the
// given worker count and returns the canonical CSV export plus the
// campaign results.
func auditCampaign(t *testing.T, workers int) ([]byte, []sched.Result) {
	t.Helper()
	p := fastProfile()
	p.Workers = workers
	type run struct {
		index int
		label string
		rec   *audit.Recorder
	}
	var (
		mu   sync.Mutex
		runs []run
	)
	p.RecordersFor = func(i int, spec RunSpec) sched.Recorders {
		rec := audit.NewRecorder(audit.Config{})
		mu.Lock()
		runs = append(runs, run{index: i, label: PointLabel(spec), rec: rec})
		mu.Unlock()
		return sched.Recorders{Audit: rec}
	}
	res, err := RunMany(p, auditSpecs())
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]audit.RunLog, len(runs))
	for i, r := range runs {
		log, _ := r.rec.Snapshot()
		logs[i] = audit.RunLog{Index: r.index, Label: r.label, Log: log}
	}
	// Canonical order, as the CLI and the daemon sort: (label, index).
	for i := 1; i < len(logs); i++ {
		for j := i; j > 0 && (logs[j-1].Label > logs[j].Label ||
			(logs[j-1].Label == logs[j].Label && logs[j-1].Index > logs[j].Index)); j-- {
			logs[j-1], logs[j] = logs[j], logs[j-1]
		}
	}
	var buf bytes.Buffer
	if err := audit.WriteDecisionsCSV(&buf, logs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestAuditWorkersDeterminism pins the decision log to the spec alone:
// the same campaign audited at different worker counts exports the
// byte-identical decisions CSV. Worker scheduling may interleave point
// completion arbitrarily; it must never leak into what each point's
// recorder saw.
func TestAuditWorkersDeterminism(t *testing.T) {
	csv1, res1 := auditCampaign(t, 1)
	csv4, res4 := auditCampaign(t, 4)
	if !bytes.Equal(csv1, csv4) {
		t.Fatalf("decisions CSV differs across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", csv1, csv4)
	}
	j1, err := json.Marshal(res1)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.Marshal(res4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Fatal("campaign results differ across worker counts")
	}
}

// TestAuditRecordersByteIdenticalResults guards the campaign-level
// contract: attaching audit recorders changes nothing about the results
// — byte for byte, instrumentation counters included — because auditing
// draws no randomness and schedules no events.
func TestAuditRecordersByteIdenticalResults(t *testing.T) {
	p := fastProfile()
	plain, err := RunMany(p, auditSpecs())
	if err != nil {
		t.Fatal(err)
	}
	audited, res := auditCampaign(t, 2)
	if len(audited) == 0 {
		t.Fatal("audited campaign exported nothing")
	}
	pj, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, aj) {
		t.Fatalf("audit hook changed campaign results:\naudited   %s\nunaudited %s", aj, pj)
	}
}

// TestAuditRecordersPerPoint checks the hook runs once per point with the
// point's own index and spec, and that the adaptive-rl policy annotates
// decisions with explore/exploit kinds and candidate scores.
func TestAuditRecordersPerPoint(t *testing.T) {
	p := fastProfile()
	p.Workers = 4
	specs := auditSpecs()
	var mu sync.Mutex
	recs := map[int]*audit.Recorder{}
	seen := map[int]RunSpec{}
	p.RecordersFor = func(i int, spec RunSpec) sched.Recorders {
		rec := audit.NewRecorder(audit.Config{})
		mu.Lock()
		recs[i], seen[i] = rec, spec
		mu.Unlock()
		return sched.Recorders{Audit: rec}
	}
	if _, err := RunMany(p, specs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("RecordersFor called for %d points, want %d", len(recs), len(specs))
	}
	for i, spec := range specs {
		if seen[i] != spec {
			t.Errorf("point %d: hook saw spec %+v, want %+v", i, seen[i], spec)
		}
		log, _ := recs[i].Snapshot()
		if log.Total == 0 {
			t.Errorf("point %d: recorder captured no decisions", i)
			continue
		}
		var annotated, withCands bool
		for _, d := range log.Decisions {
			switch d.Kind {
			case audit.KindExplore, audit.KindExploit, audit.KindFallback, audit.KindKeep:
				annotated = true
			}
			if len(d.Candidates) > 0 {
				withCands = true
			}
		}
		if !annotated {
			t.Errorf("point %d: no decision carries an RL kind annotation", i)
		}
		if !withCands {
			t.Errorf("point %d: no decision carries candidate scores", i)
		}
	}
}
