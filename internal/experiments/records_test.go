package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"rlsched/internal/cache"
	"rlsched/internal/metrics"
)

// everyPolicy lists all eight policies NewPolicy builds.
var everyPolicy = []PolicyName{AdaptiveRL, OnlineRL, QPlus, Predictive, Greedy, RoundRobin, Random, Cooperative}

// TestCampaignHeapPerTask bounds the live heap a campaign's results hold
// per simulated task. RunMany hands back every point's Result with its
// Collector, so whatever a Collector keeps per task stays live until the
// campaign's caller drops the results. With no record log attached that
// is the reserved cycle series, about 16 bytes per task; a task and a
// group record per task and per two tasks would add about 76 more.
func TestCampaignHeapPerTask(t *testing.T) {
	p := fastProfile()
	p.Workers = 1
	const n = 2000
	var specs []RunSpec
	for _, name := range everyPolicy {
		specs = append(specs, RunSpec{Policy: name, NumTasks: n, Seed: 1})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunMany(p, specs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTask := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n*len(specs))
	runtime.KeepAlive(res)
	const bound = 40
	t.Logf("results hold %.1f bytes per task (bound %d)", perTask, bound)
	if perTask > bound {
		t.Fatalf("results hold %.1f bytes of live heap per simulated task, bound %d", perTask, bound)
	}
}

// TestRecordsChangeNoResult: attaching a record log changes no result
// bit and no engine counter for any policy, and the log holds one task
// record per completion and one group record per learning cycle.
func TestRecordsChangeNoResult(t *testing.T) {
	p := fastProfile()
	for _, name := range everyPolicy {
		spec := RunSpec{Policy: name, NumTasks: 300, Seed: 3}
		plain, err := Run(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		logged := p
		recs := new(metrics.Records)
		logged.Engine.Records = recs
		withLog, err := Run(logged, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs.Tasks()) != withLog.Completed || len(recs.Groups()) != len(withLog.Collector.Cycles()) {
			t.Fatalf("%s: log holds %d tasks and %d groups, run completed %d tasks and %d cycles",
				name, len(recs.Tasks()), len(recs.Groups()), withLog.Completed, len(withLog.Collector.Cycles()))
		}
		if !reflect.DeepEqual(plain.Stats, withLog.Stats) {
			t.Errorf("%s: RunStats differ:\nwithout log %+v\nwith log    %+v", name, plain.Stats, withLog.Stats)
		}
		plain.Collector, withLog.Collector = nil, nil
		a, err := cache.CanonicalJSON(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cache.CanonicalJSON(withLog)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: result JSON differs with a record log attached:\n%s\n%s", name, a, b)
		}
	}
}
