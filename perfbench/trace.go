package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one simulation
// point, one scale run or one daemon job share a Trace ID. A span marked
// Aggregate stands for many short calls folded together (for example every
// ChooseAction callback of one point): its duration is their summed time,
// and Start/End only place that sum at the first call, so it covers its
// parent by duration rather than by interval.
type Span struct {
	Name      string `json:"name"`
	Trace     string `json:"trace"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
	Calls     int64  `json:"calls,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []Span
	roots map[string]int64
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), roots: make(map[string]int64)}
}

// OpenSpan is a span that has started and not yet ended.
type OpenSpan struct {
	t *Tracer
	s Span
}

// Begin opens a span. On a nil tracer it returns nil, whose methods are
// no-ops.
func (t *Tracer) Begin(trace string, parent int64, name string) *OpenSpan {
	if t == nil {
		return nil
	}
	s := Span{Name: name, Trace: trace, ID: t.next.Add(1), Parent: parent, Start: t.since(time.Now())}
	return &OpenSpan{t: t, s: s}
}

// BeginRoot opens the root span of a trace and remembers it, so layers that
// only see the trace ID (a request header, say) can attach to it.
func (t *Tracer) BeginRoot(trace, name string) *OpenSpan {
	o := t.Begin(trace, 0, name)
	if o != nil {
		t.mu.Lock()
		t.roots[trace] = o.s.ID
		t.mu.Unlock()
	}
	return o
}

// Root returns the root span ID of a trace, or 0 when none was opened.
func (t *Tracer) Root(trace string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots[trace]
}

// ID returns the span's ID (0 for a nil span).
func (o *OpenSpan) ID() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// Count sets the number of operations the span stands for (events fired
// by an engine run, for example).
func (o *OpenSpan) Count(n int64) {
	if o != nil {
		o.s.Calls = n
	}
}

// End closes the span and records it.
func (o *OpenSpan) End() {
	if o == nil {
		return
	}
	o.s.End = o.t.since(time.Now())
	o.t.add(o.s)
}

// Aggregate records calls folded into one span of total duration busy,
// starting at first.
func (t *Tracer) Aggregate(trace string, parent int64, name string, first time.Time, busy time.Duration, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	start := t.since(first)
	t.add(Span{Name: name, Trace: trace, ID: t.next.Add(1), Parent: parent,
		Start: start, End: start + int64(busy), Aggregate: true, Calls: calls})
}

func (t *Tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time by span ID: its duration minus
// the part of it that child spans cover. Interval children cover the union
// of their intervals clipped to the parent; aggregate children cover their
// summed duration. Self time never goes below zero.
func SelfTimes(spans []Span) map[int64]int64 {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self := s.Dur() - covered(s, kids[s.ID])
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// covered is the time of parent p taken by its children.
func covered(p Span, kids []Span) int64 {
	var agg int64
	var iv [][2]int64
	for _, k := range kids {
		if k.Aggregate {
			agg += k.Dur()
			continue
		}
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var union, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			union += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		union += curHi - curLo
	}
	return union + agg
}

// LayerTime sums one span name's occurrences: how many, their total
// duration and their total self time, in nanoseconds.
type LayerTime struct {
	Spans int   `json:"spans"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// ByName folds spans and their self times into one LayerTime per name.
func ByName(spans []Span) map[string]LayerTime {
	self := SelfTimes(spans)
	out := make(map[string]LayerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Total += s.Dur()
		lt.Self += self[s.ID]
		out[s.Name] = lt
	}
	return out
}

// WriteTrace writes the spans and the per-name self times as one JSON
// document.
func WriteTrace(path string, spans []Span) error {
	doc := struct {
		Spans  []Span               `json:"spans"`
		Layers map[string]LayerTime `json:"layers"`
	}{spans, ByName(spans)}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
