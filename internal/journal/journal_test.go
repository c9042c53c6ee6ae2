package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh spool replayed %d records, want 0", len(recs))
	}
	spec := json.RawMessage(`{"name":"sweep","profile":"quick"}`)
	res := json.RawMessage(`{"makespan":[1.5,2.25]}`)
	writes := []Record{
		{Op: OpAccepted, ID: "job-000001", Spec: spec},
		{Op: OpAccepted, ID: "job-000002", Spec: spec},
		{Op: OpTerminal, ID: "job-000001", State: "done", Result: res},
		{Op: OpTerminal, ID: "job-000002", State: "failed", Error: "boom"},
	}
	for _, r := range writes {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if len(recs) != len(writes) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(writes))
	}
	for i, r := range recs {
		if r.Op != writes[i].Op || r.ID != writes[i].ID || r.State != writes[i].State || r.Error != writes[i].Error {
			t.Errorf("record %d = %+v, want %+v", i, r, writes[i])
		}
	}
	if string(recs[2].Result) != string(res) {
		t.Errorf("result round trip = %s, want %s", recs[2].Result, res)
	}
	if string(recs[0].Spec) != string(spec) {
		t.Errorf("spec round trip = %s, want %s", recs[0].Spec, spec)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Append(Record{Op: OpAccepted, ID: "job-000001", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	if err := j2.Append(Record{Op: OpTerminal, ID: "job-000001", State: "done"}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	j2.Close()

	j3, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer j3.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (append must not truncate)", len(recs))
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Append(Record{Op: OpAccepted, ID: "job-000001", Spec: json.RawMessage(`{}`)})
	j.Append(Record{Op: OpTerminal, ID: "job-000001", State: "done"})
	j.Close()

	// Simulate a crash mid-write: a partial JSON object with no newline.
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening spool for corruption: %v", err)
	}
	if _, err := f.WriteString(`{"op":"accepted","id":"job-0000`); err != nil {
		t.Fatalf("writing torn tail: %v", err)
	}
	f.Close()

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail dropped)", len(recs))
	}
	// Appending after a torn tail must still produce a replayable record:
	// the new line terminates the torn fragment, which stays unparsable,
	// but the record after it is unreachable — verify we at least do not
	// corrupt the two good records.
	if err := j2.Append(Record{Op: OpAccepted, ID: "job-000002", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatalf("Append after torn tail: %v", err)
	}
	j2.Close()
	_, recs, err = Open(dir)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("replayed %d records, want >= 2", len(recs))
	}
}

func TestReduce(t *testing.T) {
	spec1 := json.RawMessage(`{"name":"a"}`)
	spec2 := json.RawMessage(`{"name":"b"}`)
	res := json.RawMessage(`{"ok":true}`)
	recs := []Record{
		{Op: OpAccepted, ID: "job-000001", Spec: spec1},
		{Op: OpAccepted, ID: "job-000002", Spec: spec2},
		{Op: OpTerminal, ID: "job-000001", State: "done", Result: res},
		{Op: OpTerminal, ID: "job-000404", State: "done"}, // orphan terminal: dropped
	}
	entries := Reduce(recs)
	if len(entries) != 2 {
		t.Fatalf("Reduce returned %d entries, want 2", len(entries))
	}
	if entries[0].ID != "job-000001" || entries[0].State != "done" || string(entries[0].Result) != string(res) {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].ID != "job-000002" || entries[1].State != "" {
		t.Errorf("entry 1 = %+v, want pending (empty state)", entries[1])
	}
	if string(entries[1].Spec) != string(spec2) {
		t.Errorf("entry 1 spec = %s, want %s", entries[1].Spec, spec2)
	}
}

func TestReduceDuplicateTerminalKeepsLast(t *testing.T) {
	recs := []Record{
		{Op: OpAccepted, ID: "j1", Spec: json.RawMessage(`{}`)},
		{Op: OpTerminal, ID: "j1", State: "failed", Error: "first"},
		{Op: OpTerminal, ID: "j1", State: "done", Result: json.RawMessage(`{}`)},
	}
	entries := Reduce(recs)
	if len(entries) != 1 || entries[0].State != "done" {
		t.Fatalf("entries = %+v, want single done entry", entries)
	}
}

// TestUnknownOpTolerated pins the forward-compatibility contract: a
// journal containing record kinds from a future version replays without
// error, Reduce folds the job entries it understands, and KnownOp lets
// callers flag the strangers with a warning instead of failing.
func TestUnknownOpTolerated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Append(Record{Op: OpAccepted, ID: "job-000001", Spec: json.RawMessage(`{"name":"a"}`)})
	j.Close()

	// A future daemon appended record kinds this version has never heard
	// of — extra fields included.
	path := filepath.Join(dir, fileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening spool: %v", err)
	}
	future := `{"op":"frobnicate","id":"job-000001","blob":"x","nested":{"k":[1,2]}}` + "\n" +
		`{"op":"checkpoint","id":"job-000001","point":3}` + "\n"
	if _, err := f.WriteString(future); err != nil {
		t.Fatalf("writing future records: %v", err)
	}
	f.Close()

	j2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with future ops: %v", err)
	}
	j2.Append(Record{Op: OpTerminal, ID: "job-000001", State: "done", Result: json.RawMessage(`{}`)})
	j2.Close()

	_, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (unknown ops carried through)", len(recs))
	}
	var unknown int
	for _, r := range recs {
		if !KnownOp(r.Op) {
			unknown++
		}
	}
	if unknown != 2 {
		t.Fatalf("KnownOp flagged %d records, want 2", unknown)
	}
	entries := Reduce(recs)
	if len(entries) != 1 || entries[0].ID != "job-000001" || entries[0].State != "done" {
		t.Fatalf("Reduce with future ops = %+v, want one done entry", entries)
	}
}

func TestKnownOp(t *testing.T) {
	for _, op := range []string{OpAccepted, OpTerminal} {
		if !KnownOp(op) {
			t.Errorf("KnownOp(%q) = false, want true", op)
		}
	}
	// "lease" and "cacheref" are the per-point kinds earlier daemons
	// wrote; they now replay as unknown kinds.
	for _, op := range []string{"", "frobnicate", "Accepted", "lease", "cacheref"} {
		if KnownOp(op) {
			t.Errorf("KnownOp(%q) = true, want false", op)
		}
	}
}
