// Package trace provides lightweight structured tracing for simulation
// runs: levelled events carrying the virtual timestamp, an event kind and
// key/value fields. The engine emits events at every scheduling decision
// point; sinks include a bounded ring buffer (for tests and post-mortem
// inspection), a line writer (for cmd tools), a counter (for cheap
// aggregate assertions) and a fan-out.
//
// Tracing is strictly optional: a nil Tracer disables all emission and the
// engine's fast path pays only a nil check.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Level grades event importance.
type Level int

// Levels in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Field is one key/value attribute of an event.
type Field struct {
	Key   string
	Value any
}

// F constructs a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one traced occurrence in virtual time.
type Event struct {
	// At is the simulation timestamp.
	At float64
	// Level grades importance.
	Level Level
	// Kind is a stable, machine-matchable identifier such as "arrival",
	// "group-close", "dispatch", "finish", "sleep", "wake".
	Kind string
	// Fields carry the event attributes.
	Fields []Field
}

// String renders the event as a single line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%10.3f] %-5s %-14s", e.At, e.Level, e.Kind)
	for _, f := range e.Fields {
		fmt.Fprintf(&b, " %s=%v", f.Key, f.Value)
	}
	return b.String()
}

// Tracer consumes events.
type Tracer interface {
	// Emit records one event. Implementations must be cheap; the engine
	// calls this on hot paths.
	Emit(e Event)
	// Enabled reports whether events at the level would be kept, letting
	// callers skip field construction.
	Enabled(l Level) bool
}

// Ring is a bounded in-memory tracer retaining the most recent events.
// It is safe for concurrent use: a campaign's parallel workers may share
// one ring across simulation points while a snapshot is being served
// (the daemon's per-job trace capture does exactly that). Single-run
// callers pay one uncontended lock per emitted event.
type Ring struct {
	min Level
	cap int

	mu    sync.Mutex
	buf   []Event
	start int
	total uint64
}

// NewRing creates a ring tracer keeping up to capacity events at or above
// the given level. Capacity must be positive.
func NewRing(capacity int, min Level) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: ring capacity must be positive, got %d", capacity))
	}
	return &Ring{min: min, cap: capacity}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	if e.Level < r.min {
		return
	}
	r.mu.Lock()
	r.total++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.start] = e
		r.start = (r.start + 1) % r.cap
	}
	r.mu.Unlock()
}

// Enabled implements Tracer.
func (r *Ring) Enabled(l Level) bool { return l >= r.min }

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever emitted at or above the level.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns a snapshot of the retained events oldest-first. The
// snapshot is consistent: emits racing with it land entirely before or
// entirely after.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// Counter tallies events per kind without retaining them.
type Counter struct {
	min    Level
	counts map[string]uint64
}

// NewCounter creates a counter keeping tallies for events at or above the
// level.
func NewCounter(min Level) *Counter {
	return &Counter{min: min, counts: make(map[string]uint64)}
}

// Emit implements Tracer.
func (c *Counter) Emit(e Event) {
	if e.Level < c.min {
		return
	}
	c.counts[e.Kind]++
}

// Enabled implements Tracer.
func (c *Counter) Enabled(l Level) bool { return l >= c.min }

// Count returns the tally for one kind.
func (c *Counter) Count(kind string) uint64 { return c.counts[kind] }

// Kinds returns the observed kinds, sorted.
func (c *Counter) Kinds() []string {
	out := make([]string, 0, len(c.counts))
	for k := range c.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Writer streams each event as a line to an io.Writer.
type Writer struct {
	min Level
	w   io.Writer
	// Err records the first write failure; subsequent events are dropped.
	Err error
}

// NewWriter creates a line-writing tracer for events at or above the
// level.
func NewWriter(w io.Writer, min Level) *Writer { return &Writer{min: min, w: w} }

// Emit implements Tracer.
func (t *Writer) Emit(e Event) {
	if e.Level < t.min || t.Err != nil {
		return
	}
	if _, err := io.WriteString(t.w, e.String()+"\n"); err != nil {
		t.Err = err
	}
}

// Enabled implements Tracer.
func (t *Writer) Enabled(l Level) bool { return l >= t.min && t.Err == nil }

// Multi fans events out to several tracers.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		if t != nil && t.Enabled(e.Level) {
			t.Emit(e)
		}
	}
}

// Enabled implements Tracer.
func (m Multi) Enabled(l Level) bool {
	for _, t := range m {
		if t != nil && t.Enabled(l) {
			return true
		}
	}
	return false
}
