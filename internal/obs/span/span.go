// Package span is a zero-dependency distributed-tracing span model for
// the campaign execution pipeline. A Trace collects timed spans — cache
// lookups, cluster lease attempts, hedges, worker-side engine runs —
// into a bounded per-trace buffer with drop accounting, and can import
// spans recorded by a remote process (a worker daemon) so a fanned-out
// campaign reads as one tree. Context crosses process boundaries via a
// W3C traceparent-style header (see traceparent.go).
//
// Tracing is strictly optional and the disabled path is free: every
// method is nil-safe, Start on a nil *Trace returns a nil *Span, and
// nil *Span methods no-op without allocating. The API deliberately
// avoids variadic or interface-typed attributes — typed setters keep
// the disabled path at a nil check and the enabled path unboxed.
package span

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"rlsched/internal/trace"
)

// ID identifies a span within a trace. The zero ID means "no span" and
// is used as the parent of root spans.
type ID uint64

// String renders the ID as 16 lowercase hex digits, the wire form used
// in Record and traceparent headers.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit wire form back into an ID.
func ParseID(s string) (ID, error) {
	if len(s) != 16 || !isLowerHex(s) {
		return 0, fmt.Errorf("span: malformed span id %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("span: malformed span id %q: %w", s, err)
	}
	return ID(v), nil
}

// Record is the immutable wire form of one finished span, as served by
// GET /v1/jobs/{id}/spans and imported from workers.
type Record struct {
	// SpanID is the span's ID in 16-hex-digit form.
	SpanID string `json:"span_id"`
	// ParentID is the parent span's ID, or empty for a root span.
	ParentID string `json:"parent_id,omitempty"`
	// Name is the operation, e.g. "job.run", "lease.attempt".
	Name string `json:"name"`
	// StartUnixNs and EndUnixNs bound the span on the wall clock.
	StartUnixNs int64 `json:"start_unix_ns"`
	EndUnixNs   int64 `json:"end_unix_ns"`
	// Attrs carries the typed attributes. Values are string, int64 or
	// bool locally; numbers decode as float64 after a JSON round trip,
	// which is lossless for the small integers used here.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// DeriveTraceID deterministically derives a 32-hex-digit trace ID from a
// seed such as a job ID, so a retried submission of the same job traces
// under the same ID without any coordination.
func DeriveTraceID(seed string) string {
	sum := sha256.Sum256([]byte("rlsched.trace\x00" + seed))
	return hex.EncodeToString(sum[:16])
}

// Trace is a bounded collector of spans sharing one trace ID. Multiple
// processes may contribute to the same trace ID: each Trace salts its
// span IDs with an origin-derived prefix so a coordinator and its
// workers never collide. Safe for concurrent use.
type Trace struct {
	traceID string
	prefix  uint64 // high 32 bits of every ID minted here

	onEnd func(name string, seconds float64)

	mu   sync.Mutex
	next uint32
	buf  *trace.Capped[Record]
}

// New creates a trace collector. traceID is the 32-hex-digit trace
// identifier (use DeriveTraceID or a parsed traceparent). origin is any
// string distinguishing this process's span-ID space within the trace —
// the coordinator uses its job ID, a worker the remote parent span ID —
// so independently minted IDs cannot collide. capacity bounds the span
// buffer; once full, further spans are dropped and counted, never
// evicting earlier spans (a root must outlive its subtree).
func New(traceID, origin string, capacity int) *Trace {
	h := fnv.New64a()
	h.Write([]byte(traceID))
	h.Write([]byte{0})
	h.Write([]byte(origin))
	return &Trace{
		traceID: traceID,
		prefix:  h.Sum64() << 32,
		buf:     trace.NewCapped[Record](capacity),
	}
}

// TraceID returns the trace identifier; empty on a nil Trace.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// OnEnd installs a hook invoked with every locally finished span's name
// and duration in seconds — the seam that folds span durations into
// metrics histograms. Set before recording; not for concurrent mutation.
func (t *Trace) OnEnd(fn func(name string, seconds float64)) {
	if t == nil {
		return
	}
	t.onEnd = fn
}

// Start begins a span under the given parent (zero for a root span).
// On a nil Trace it returns a nil Span, on which every method no-ops.
func (t *Trace) Start(parent ID, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := ID(t.prefix | uint64(t.next))
	t.mu.Unlock()
	return &Span{t: t, id: id, parent: parent, name: name, start: time.Now()}
}

// Import merges spans recorded by another process (a worker daemon)
// into this trace, folding in that process's own drop count. Imports
// beyond capacity are dropped and counted like local spans.
func (t *Trace) Import(records []Record, dropped uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, r := range records {
		t.buf.Append(r)
	}
	t.buf.NoteDrops(dropped)
	t.mu.Unlock()
}

// NoteDrops records n spans known to be lost (for example a worker
// whose span fetch failed) so the served drop count never understates.
func (t *Trace) NoteDrops(n uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf.NoteDrops(n)
	t.mu.Unlock()
}

// Dropped returns how many spans were dropped or noted lost.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Dropped()
}

// Snapshot returns the retained spans in a stable order: by start time,
// then span ID, so repeated reads of a settled trace are byte-identical.
func (t *Trace) Snapshot() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.buf.Snapshot()
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNs != out[j].StartUnixNs {
			return out[i].StartUnixNs < out[j].StartUnixNs
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Span is one in-flight operation. A nil Span (from a disabled Trace)
// accepts every call as a no-op, so call sites need no guards.
type Span struct {
	t      *Trace
	id     ID
	parent ID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []attr
	ended bool
}

type attr struct {
	key  string
	kind byte // 's', 'i', 'b'
	s    string
	i    int64
	b    bool
}

// ID returns the span's ID, or zero on a nil Span — safe to use as the
// parent for children either way.
func (s *Span) ID() ID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, kind: 's', s: v})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, kind: 'i', i: v})
	s.mu.Unlock()
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, kind: 'b', b: v})
	s.mu.Unlock()
}

// End finishes the span, recording it into the trace buffer and firing
// the trace's OnEnd hook. Repeated Ends after the first are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := Record{
		SpanID:      s.id.String(),
		Name:        s.name,
		StartUnixNs: s.start.UnixNano(),
		EndUnixNs:   end.UnixNano(),
	}
	if s.parent != 0 {
		rec.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			switch a.kind {
			case 's':
				rec.Attrs[a.key] = a.s
			case 'i':
				rec.Attrs[a.key] = a.i
			case 'b':
				rec.Attrs[a.key] = a.b
			}
		}
	}
	s.mu.Unlock()

	t := s.t
	t.mu.Lock()
	t.buf.Append(rec)
	t.mu.Unlock()
	if t.onEnd != nil {
		t.onEnd(s.name, end.Sub(s.start).Seconds())
	}
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
