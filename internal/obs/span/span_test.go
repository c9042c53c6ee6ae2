package span

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeRecordsParentAndAttrs(t *testing.T) {
	tr := New(DeriveTraceID("job-000001"), "job-000001", 64)
	root := tr.Start(0, "job.run")
	root.SetStr("kind", "points")
	child := tr.Start(root.ID(), "campaign")
	child.SetInt("points", 3)
	child.SetBool("hedged", true)
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Stable order: by start time, root started first.
	if recs[0].Name != "job.run" || recs[1].Name != "campaign" {
		t.Fatalf("order = %s, %s", recs[0].Name, recs[1].Name)
	}
	if recs[0].ParentID != "" {
		t.Fatalf("root parent = %q, want empty", recs[0].ParentID)
	}
	if recs[1].ParentID != recs[0].SpanID {
		t.Fatalf("child parent = %q, want %q", recs[1].ParentID, recs[0].SpanID)
	}
	if recs[1].Attrs["points"] != int64(3) || recs[1].Attrs["hedged"] != true {
		t.Fatalf("attrs = %v", recs[1].Attrs)
	}
	for _, r := range recs {
		if len(r.SpanID) != 16 || !isLowerHex(r.SpanID) {
			t.Fatalf("span id %q not 16 lowercase hex", r.SpanID)
		}
		if r.EndUnixNs < r.StartUnixNs {
			t.Fatalf("span %s ends before it starts", r.Name)
		}
	}
}

func TestTraceBoundedKeepsOldestAndCountsDrops(t *testing.T) {
	tr := New(DeriveTraceID("j"), "j", 2)
	for i := 0; i < 4; i++ {
		tr.Start(0, "s").End()
	}
	if len(tr.Snapshot()) != 2 {
		t.Fatalf("len = %d, want 2", len(tr.Snapshot()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// The retained spans are the earliest two, so roots survive.
	recs := tr.Snapshot()
	if recs[0].SpanID >= recs[1].SpanID {
		t.Fatalf("retained spans out of mint order: %q, %q", recs[0].SpanID, recs[1].SpanID)
	}
}

func TestImportMergesRemoteSpansAndDrops(t *testing.T) {
	local := New(DeriveTraceID("j"), "coordinator", 16)
	parent := local.Start(0, "lease.attempt")

	remote := New(local.TraceID(), parent.ID().String(), 16)
	wr := remote.Start(parent.ID(), "job.run")
	wr.End()
	parent.End()

	local.Import(remote.Snapshot(), 3)
	local.NoteDrops(1)
	if len(local.Snapshot()) != 2 {
		t.Fatalf("len = %d, want 2", len(local.Snapshot()))
	}
	if local.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", local.Dropped())
	}
	// Remote record keeps its cross-process parent link.
	for _, r := range local.Snapshot() {
		if r.Name == "job.run" && r.ParentID != parent.ID().String() {
			t.Fatalf("imported span parent = %q, want %q", r.ParentID, parent.ID().String())
		}
	}
}

func TestDistinctOriginsMintDistinctIDSpaces(t *testing.T) {
	tid := DeriveTraceID("j")
	a := New(tid, "origin-a", 8)
	b := New(tid, "origin-b", 8)
	sa := a.Start(0, "x")
	sb := b.Start(0, "x")
	if sa.ID() == sb.ID() {
		t.Fatalf("same span id %s from different origins", sa.ID())
	}
}

func TestDeriveTraceIDStableAndWellFormed(t *testing.T) {
	a, b := DeriveTraceID("job-000001"), DeriveTraceID("job-000001")
	if a != b {
		t.Fatalf("DeriveTraceID not deterministic: %q vs %q", a, b)
	}
	if len(a) != 32 || !isLowerHex(a) {
		t.Fatalf("trace id %q not 32 lowercase hex", a)
	}
	if DeriveTraceID("job-000002") == a {
		t.Fatalf("distinct seeds collided")
	}
}

func TestOnEndHookSeesNameAndDuration(t *testing.T) {
	tr := New(DeriveTraceID("j"), "j", 8)
	var names []string
	tr.OnEnd(func(name string, seconds float64) {
		names = append(names, name)
		if seconds < 0 {
			t.Fatalf("negative duration %v for %s", seconds, name)
		}
	})
	tr.Start(0, "a").End()
	tr.Start(0, "b").End()
	if strings.Join(names, ",") != "a,b" {
		t.Fatalf("hook saw %v", names)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(DeriveTraceID("j"), "j", 8)
	s := tr.Start(0, "once")
	s.End()
	s.End()
	if len(tr.Snapshot()) != 1 {
		t.Fatalf("len = %d, want 1", len(tr.Snapshot()))
	}
}

func TestRecordJSONRoundTripKeepsShape(t *testing.T) {
	tr := New(DeriveTraceID("j"), "j", 8)
	s := tr.Start(0, "x")
	s.SetInt("try", 2)
	s.SetStr("worker", "http://w1")
	s.End()
	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Attrs["worker"] != "http://w1" || back[0].Attrs["try"] != float64(2) {
		t.Fatalf("round-tripped attrs = %v", back[0].Attrs)
	}
}

// TestDisabledSpansAllocNothing proves the "spans": false path costs a
// nil check and zero allocations — the same contract PR 4 established
// for disabled engine stats.
func TestDisabledSpansAllocNothing(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(0, "point")
		sp.SetStr("policy", "adaptive-rl")
		sp.SetInt("index", 7)
		child := tr.Start(sp.ID(), "cache.lookup")
		child.SetBool("hit", true)
		child.End()
		sp.End()
		tr.Import(nil, 0)
		tr.NoteDrops(0)
		_ = tr.TraceID()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f times per run, want 0", allocs)
	}
}

func TestConcurrentSpansAreSafe(t *testing.T) {
	tr := New(DeriveTraceID("j"), "j", 4096)
	root := tr.Start(0, "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.Start(root.ID(), "work")
				s.SetInt("g", int64(g))
				s.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	if len(tr.Snapshot()) != 8*50+1 {
		t.Fatalf("len = %d, want %d", len(tr.Snapshot()), 8*50+1)
	}
	ids := map[string]bool{}
	for _, r := range tr.Snapshot() {
		if ids[r.SpanID] {
			t.Fatalf("duplicate span id %s", r.SpanID)
		}
		ids[r.SpanID] = true
	}
}
