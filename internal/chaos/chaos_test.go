package chaos

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"
)

// decisionLog collects the faults a schedule fires, safe for concurrent
// use.
type decisionLog struct {
	mu  sync.Mutex
	log []Decision
}

func (l *decisionLog) decide(s *Schedule, op, key string) {
	if d := s.Decide(op, key); d.Fault != None {
		l.mu.Lock()
		l.log = append(l.log, d)
		l.mu.Unlock()
	}
}

// sorted returns the fired decisions ordered by (rule, key, n), so two
// runs compare equal however concurrent operations interleaved.
func (l *decisionLog) sorted() []Decision {
	out := append([]Decision(nil), l.log...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].N < out[j].N
	})
	return out
}

func driveSequence(s *Schedule) []Decision {
	var l decisionLog
	for i := 0; i < 200; i++ {
		l.decide(s, OpHTTP, "hostA/v1/jobs")
		l.decide(s, OpHTTP, "hostB/v1/jobs")
		l.decide(s, OpWrite, "/spool/cache/ab/entry.json")
	}
	return l.sorted()
}

// TestScheduleReplaysDeterministically is the harness's core contract:
// the same seed and rules replay the exact same fault sequence.
func TestScheduleReplaysDeterministically(t *testing.T) {
	rules := []Rule{
		{Op: OpHTTP, Match: "/v1/jobs", Fault: Drop, Prob: 0.3},
		{Op: OpWrite, Fault: ENOSPC, Prob: 0.5, After: 10},
	}
	a := NewSchedule(42, rules...)
	ta := driveSequence(a)
	tb := driveSequence(NewSchedule(42, rules...))
	if a.Fired() == 0 || a.Fired() != len(ta) {
		t.Fatalf("schedule fired %d faults (%d seen) over 600 operations at p=0.3", a.Fired(), len(ta))
	}
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("same seed diverged:\na: %v\nb: %v", ta, tb)
	}
	if reflect.DeepEqual(ta, driveSequence(NewSchedule(43, rules...))) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestScheduleOrderIndependentAcrossKeys pins the property that makes
// injection safe under goroutine races: per-key decisions depend only
// on that key's own occurrence count, so interleaving operations on
// different keys cannot change which of them fault.
func TestScheduleOrderIndependentAcrossKeys(t *testing.T) {
	rules := []Rule{{Op: OpHTTP, Fault: Drop, Prob: 0.4}}
	seq := NewSchedule(7, rules...)
	var seqLog decisionLog
	for i := 0; i < 100; i++ {
		seqLog.decide(seq, OpHTTP, "w1/healthz")
	}
	for i := 0; i < 100; i++ {
		seqLog.decide(seq, OpHTTP, "w2/healthz")
	}

	mixed := NewSchedule(7, rules...)
	var mixedLog decisionLog
	var wg sync.WaitGroup
	for _, key := range []string{"w1/healthz", "w2/healthz"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				mixedLog.decide(mixed, OpHTTP, k)
			}
		}(key)
	}
	wg.Wait()
	if !reflect.DeepEqual(seqLog.sorted(), mixedLog.sorted()) {
		t.Fatalf("interleaving changed the fault sequence:\nseq:   %v\nmixed: %v", seqLog.sorted(), mixedLog.sorted())
	}
}

func TestScheduleAfterLimitAndHalt(t *testing.T) {
	s := NewSchedule(1, Rule{Op: OpWrite, Fault: ENOSPC, Prob: 1, After: 3, Limit: 2})
	var fired int
	for i := 0; i < 10; i++ {
		if s.Decide(OpWrite, "/f").Fault == ENOSPC {
			fired++
			if i < 3 {
				t.Fatalf("fired at occurrence %d, inside the After=3 window", i)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want Limit=2", fired)
	}
}

func TestTransportFaults(t *testing.T) {
	var hits int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		io.WriteString(w, `{"ok": true}`)
	}))
	defer srv.Close()

	get := func(tr *Transport, path string) (*http.Response, error) {
		c := &http.Client{Transport: tr}
		return c.Get(srv.URL + path)
	}

	t.Run("drop", func(t *testing.T) {
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Fault: Drop, Prob: 1}), nil)
		if _, err := get(tr, "/x"); err == nil {
			t.Fatal("dropped request succeeded")
		}
	})
	t.Run("5xx", func(t *testing.T) {
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Fault: Err5xx, Prob: 1}), nil)
		resp, err := get(tr, "/x")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Fault: Garbage, Prob: 1}), nil)
		resp, err := get(tr, "/x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("garbage fault: status %d body %q", resp.StatusCode, body)
		}
	})
	t.Run("partition reaches server but drops response", func(t *testing.T) {
		mu.Lock()
		before := hits
		mu.Unlock()
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Fault: Partition, Prob: 1}), nil)
		if _, err := get(tr, "/x"); err == nil {
			t.Fatal("partitioned request returned a response")
		}
		mu.Lock()
		after := hits
		mu.Unlock()
		if after != before+1 {
			t.Fatalf("server hits %d -> %d, want the request delivered exactly once", before, after)
		}
	})
	t.Run("latency delays then succeeds", func(t *testing.T) {
		var slept time.Duration
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Fault: Latency, Prob: 1, Delay: 5 * time.Millisecond}), nil)
		tr.Sleep = func(d time.Duration) { slept += d }
		resp, err := get(tr, "/x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if slept != 5*time.Millisecond {
			t.Fatalf("slept %v, want 5ms", slept)
		}
	})
	t.Run("match targets one path only", func(t *testing.T) {
		tr := NewTransport(NewSchedule(1, Rule{Op: OpHTTP, Match: "/v1/jobs", Fault: Drop, Prob: 1}), nil)
		if resp, err := get(tr, "/healthz"); err != nil {
			t.Fatalf("unmatched path faulted: %v", err)
		} else {
			resp.Body.Close()
		}
		if _, err := get(tr, "/v1/jobs"); err == nil {
			t.Fatal("matched path not dropped")
		}
	})
}

func TestFaultFSWriteFaults(t *testing.T) {
	dir := t.TempDir()
	t.Run("enospc", func(t *testing.T) {
		ffs := NewFaultFS(NewSchedule(1, Rule{Op: OpWrite, Fault: ENOSPC, Prob: 1}), nil)
		f, err := ffs.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte("hello")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write error = %v, want ENOSPC", err)
		}
	})
	t.Run("torn write persists a prefix", func(t *testing.T) {
		path := filepath.Join(dir, "b")
		ffs := NewFaultFS(NewSchedule(1, Rule{Op: OpWrite, Fault: TornWrite, Prob: 1, Limit: 1}), nil)
		f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write([]byte("0123456789")); err == nil || n != 5 {
			t.Fatalf("torn write: n=%d err=%v, want 5 bytes and an error", n, err)
		}
		// The per-key Limit is spent: the retry goes through clean.
		if _, err := f.Write([]byte("abcdef")); err != nil {
			t.Fatalf("write after torn fault: %v", err)
		}
		f.Close()
		data, err := os.ReadFile(path)
		if err != nil || string(data) != "01234abcdef" {
			t.Fatalf("on-disk bytes %q (err=%v), want torn prefix then clean write", data, err)
		}
	})
	t.Run("bitflip corrupts reads deterministically", func(t *testing.T) {
		path := filepath.Join(dir, "c")
		if err := os.WriteFile(path, []byte("deterministic payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		read := func(seed uint64) []byte {
			ffs := NewFaultFS(NewSchedule(seed, Rule{Op: OpRead, Fault: BitFlip, Prob: 1}), nil)
			data, err := ffs.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		a, b := read(9), read(9)
		if string(a) == "deterministic payload" {
			t.Fatal("bitflip read returned the original bytes")
		}
		if string(a) != string(b) {
			t.Fatalf("same seed flipped different bits: %q vs %q", a, b)
		}
	})
}

// TestOSFSRoundTrip sanity-checks the real-filesystem implementation
// behind the seam (temp files, rename, dir listing).
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.CreateTemp(filepath.Join(dir, "sub"), "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "sub", "final")
	if err := fsys.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(final)
	if err != nil || string(data) != "payload" {
		t.Fatalf("read back %q (err=%v)", data, err)
	}
	ents, err := fsys.ReadDir(filepath.Join(dir, "sub"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v entries, err=%v", len(ents), err)
	}
	if err := fsys.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.ReadFile(final); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read after remove: %v, want ErrNotExist", err)
	}
}
