package trace

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func ev(at float64, l Level, kind string) Event {
	return Event{At: at, Level: l, Kind: kind, Fields: []Field{F("k", 1)}}
}

func TestRingRetainsMostRecent(t *testing.T) {
	r := NewRing(3, LevelDebug)
	for i := 0; i < 10; i++ {
		r.Emit(ev(float64(i), LevelInfo, "x"))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	events := r.Events()
	for i, e := range events {
		if e.At != float64(7+i) {
			t.Fatalf("retained events %v, want timestamps 7,8,9", events)
		}
	}
}

func TestRingLevelFilter(t *testing.T) {
	r := NewRing(10, LevelInfo)
	r.Emit(ev(1, LevelDebug, "skip"))
	r.Emit(ev(2, LevelInfo, "keep"))
	r.Emit(ev(3, LevelWarn, "keep"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Enabled(LevelDebug) {
		t.Fatal("debug should be disabled")
	}
	if !r.Enabled(LevelWarn) {
		t.Fatal("warn should be enabled")
	}
}

func TestRingCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0, LevelDebug)
}

func TestCounter(t *testing.T) {
	c := NewCounter(LevelInfo)
	c.Emit(ev(1, LevelDebug, "a"))
	c.Emit(ev(2, LevelInfo, "a"))
	c.Emit(ev(3, LevelInfo, "b"))
	c.Emit(ev(4, LevelWarn, "a"))
	if c.Count("a") != 2 {
		t.Fatalf("Count(a) = %d", c.Count("a"))
	}
	if c.Count("missing") != 0 {
		t.Fatal("missing kind should count 0")
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != "a" || kinds[1] != "b" {
		t.Fatalf("Kinds = %v", kinds)
	}
}

func TestWriterFormatsLines(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb, LevelDebug)
	w.Emit(Event{At: 12.5, Level: LevelInfo, Kind: "enqueue", Fields: []Field{F("node", 3), F("size", 2)}})
	out := sb.String()
	for _, want := range []string{"12.5", "info", "enqueue", "node=3", "size=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("line %q missing %q", out, want)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("line not newline-terminated")
	}
}

type failingWriter struct{ fails int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.fails++
	return 0, errors.New("disk full")
}

func TestWriterStopsOnError(t *testing.T) {
	fw := &failingWriter{}
	w := NewWriter(fw, LevelDebug)
	w.Emit(ev(1, LevelInfo, "x"))
	w.Emit(ev(2, LevelInfo, "x"))
	if w.Err == nil {
		t.Fatal("error not recorded")
	}
	if fw.fails != 1 {
		t.Fatalf("writer called %d times after failure, want 1", fw.fails)
	}
	if w.Enabled(LevelWarn) {
		t.Fatal("failed writer must report disabled")
	}
}

func TestMultiFanOut(t *testing.T) {
	r1 := NewRing(5, LevelDebug)
	r2 := NewRing(5, LevelWarn)
	m := Multi{r1, nil, r2}
	m.Emit(ev(1, LevelInfo, "x"))
	m.Emit(ev(2, LevelWarn, "y"))
	if r1.Len() != 2 {
		t.Fatalf("r1 got %d events", r1.Len())
	}
	if r2.Len() != 1 {
		t.Fatalf("r2 got %d events", r2.Len())
	}
	if !m.Enabled(LevelDebug) {
		t.Fatal("multi should be enabled at debug via r1")
	}
	if (Multi{}).Enabled(LevelWarn) {
		t.Fatal("empty multi should be disabled")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1, Level: LevelWarn, Kind: "k"}
	if !strings.Contains(e.String(), "warn") {
		t.Fatalf("String = %q", e.String())
	}
	if Level(42).String() == "" {
		t.Fatal("unknown level should still format")
	}
}

// Property: a ring never retains more than its capacity and always keeps
// the newest events in order.
func TestQuickRingInvariants(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		r := NewRing(capacity, LevelDebug)
		total := int(n)
		for i := 0; i < total; i++ {
			r.Emit(ev(float64(i), LevelInfo, "k"))
		}
		events := r.Events()
		if len(events) > capacity {
			return false
		}
		want := total - len(events)
		for i, e := range events {
			if e.At != float64(want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRingEmit(b *testing.B) {
	r := NewRing(1024, LevelDebug)
	e := ev(1, LevelInfo, "bench")
	for i := 0; i < b.N; i++ {
		r.Emit(e)
	}
}
