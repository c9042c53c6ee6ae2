package experiments

import (
	"sync"
	"testing"

	"rlsched/internal/probe"
	"rlsched/internal/sched"
)

func TestPointLabel(t *testing.T) {
	s := RunSpec{Policy: AdaptiveRL, NumTasks: 1500, HeterogeneityCV: 0.5, Seed: 3}
	if got, want := PointLabel(s), "adaptive-rl n=1500 cv=0.5 seed=3"; got != want {
		t.Fatalf("PointLabel = %q, want %q", got, want)
	}
	// The zero CV formats without a trailing decimal — labels are stable
	// strings, shared between the CLI export and the daemon.
	s = RunSpec{Policy: Greedy, NumTasks: 80}
	if got, want := PointLabel(s), "greedy n=80 cv=0 seed=0"; got != want {
		t.Fatalf("PointLabel = %q, want %q", got, want)
	}
}

// TestProbeRecordersPerPoint checks the campaign runner calls the hook
// once per point with that point's index and spec, and wires the returned
// recorder into the engine (series get recorded).
func TestProbeRecordersPerPoint(t *testing.T) {
	p := fastProfile()
	p.Workers = 4
	specs := []RunSpec{
		{Policy: Greedy, NumTasks: 60, Seed: 1},
		{Policy: Greedy, NumTasks: 60, Seed: 2},
		{Policy: Greedy, NumTasks: 60, Seed: 3},
	}
	var mu sync.Mutex
	recs := map[int]*probe.Recorder{}
	seen := map[int]RunSpec{}
	p.RecordersFor = func(i int, spec RunSpec) sched.Recorders {
		rec := probe.NewRecorder(probe.Config{Cadence: 50})
		mu.Lock()
		recs[i], seen[i] = rec, spec
		mu.Unlock()
		return sched.Recorders{Probe: rec}
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
		series, _ := recs[i].Snapshot()
		if len(series) == 0 {
			t.Errorf("point %d: recorder captured no series", i)
		}
	}
}

// TestProbeRecordersKeepResults guards the read-only contract at the
// campaign layer: attaching a probe recorder per point leaves the
// results as a profile without the hook computes them.
func TestProbeRecordersKeepResults(t *testing.T) {
	p := fastProfile()
	specs := []RunSpec{{Policy: Greedy, NumTasks: 60, Seed: 1}}
	plain, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	p.RecordersFor = func(int, RunSpec) sched.Recorders {
		return sched.Recorders{Probe: probe.NewRecorder(probe.Config{Cadence: 50})}
	}
	probed, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if probed[0].AveRT != plain[0].AveRT || probed[0].ECS != plain[0].ECS ||
		probed[0].EndTime != plain[0].EndTime {
		t.Fatalf("probe hook changed campaign results: %+v vs %+v", probed[0], plain[0])
	}
}
