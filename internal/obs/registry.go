// Package obs is the unified telemetry layer of the repository: a
// zero-dependency metrics registry (counters, gauges and fixed-bucket
// histograms with mergeable snapshots) that renders the Prometheus text
// exposition format, a log/slog-based structured logger with job-ID and
// request-ID correlation, a runtime sampler (goroutines, heap, GC), HTTP
// middleware for per-route request metrics, and build-info helpers shared
// by the binaries.
//
// Everything here is stdlib-only and safe for concurrent use. The
// simulation library path never touches this package unless a caller
// opts in — a nil *Registry is inert on every method, so instrumentation
// hooks threaded through profiles and configs cost a nil check when
// disabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as key="value".
type Label struct {
	Key, Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind distinguishes the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: a metric instance under a family
// name plus a fixed label set.
type series struct {
	name   string
	labels []Label // sorted by key
	inst   any     // *Counter, *Gauge or *Histogram
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use and inert on
// a nil receiver, so library code can thread an optional *Registry
// without nil guards at every call site.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]metricKind // family name -> kind
	help     map[string]string     // family name -> help text
	byID     map[string]*series    // series id -> series
	ordered  []*series             // registration order (render sorts)
	onScrape []func(*Registry)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds: make(map[string]metricKind),
		help:  make(map[string]string),
		byID:  make(map[string]*series),
	}
}

// OnScrape registers a callback invoked at the start of every
// WritePrometheus call, before the metrics are rendered. Use it to
// refresh sampled gauges (queue depths, utilisation ratios) lazily
// instead of polling them on a timer.
func (r *Registry) OnScrape(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// seriesID renders the canonical identity of a series: the family name
// plus its sorted label pairs.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// sortLabels returns the labels sorted by key (copying, so caller slices
// are never mutated).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register resolves or creates the series for (name, labels); mk builds
// the instance on first registration. Re-registering the same series
// returns the existing instance; re-registering a family under a
// different kind panics — that is a programming error, not runtime state.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func() any) any {
	labels = sortLabels(labels)
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, k))
	}
	r.kinds[name] = kind
	if help != "" || r.help[name] == "" {
		r.help[name] = help
	}
	if s, ok := r.byID[id]; ok {
		return s.inst
	}
	s := &series{name: name, labels: labels, inst: mk()}
	r.byID[id] = s
	r.ordered = append(r.ordered, s)
	return s.inst
}

// Counter returns the monotonically increasing counter registered under
// name and labels, creating it on first use. Nil-safe: a nil registry
// returns a valid inert counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.register(name, help, kindCounter, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	return r.register(name, help, kindGauge, labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under name and
// labels, creating it on first use with the given ascending upper bounds
// (an implicit +Inf bucket is always appended). All series of one family
// must share bounds; mismatched bounds panic. Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	h := r.register(name, help, kindHistogram, labels, func() any { return newHistogram(bounds) }).(*Histogram)
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds (was %d)", name, len(bounds), len(h.bounds)))
	}
	return h
}

// Counter is a monotonically increasing uint64 counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (lock-free CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is lock-free;
// a concurrent Snapshot may tear across an in-flight observation (its
// bucket counted but its sum not yet added, or vice versa) by design —
// scrape-time skew of a single observation is harmless and the fast path
// stays wait-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit at the end
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // float64 accumulator reusing the gauge's CAS loop
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %g <= %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (tens) and almost always hit in
	// the first few slots for latency-shaped data.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram's current state. Snapshots taken from
// histograms with identical bounds merge associatively, so per-shard
// histograms can be reduced in any order.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram state: per-bucket counts (the
// last slot is the +Inf bucket), total count and value sum.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// DefBuckets is the default latency bucket layout in seconds, spanning
// sub-millisecond HTTP handlers to multi-minute simulation points.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
