package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instance.
	if reg.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := reg.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "").Inc()
	reg.Gauge("b", "").Set(1)
	reg.Histogram("c", "", DefBuckets).Observe(1)
	reg.OnScrape(func(*Registry) { t.Fatal("hook ran on nil registry") })
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

// TestHistogramBucketEdges pins the boundary semantics: an observation
// exactly on an upper bound lands in that bucket (le is inclusive), just
// above it spills into the next, and values past the last bound land in
// the implicit +Inf bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2.5, 5})
	for _, v := range []float64{0, 1, 1.0000001, 2.5, 5, 5.1, math.Inf(1)} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2} // le=1: {0,1}; le=2.5: {1.0000001,2.5}; le=5: {5}; +Inf: {5.1,Inf}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if !math.IsInf(s.Sum, 1) {
		t.Fatalf("sum = %g, want +Inf", s.Sum)
	}
}

// TestWritePrometheusStableOrder renders the same registry twice (and a
// semantically identical registry built in a different order) and
// demands byte-identical output.
func TestWritePrometheusStableOrder(t *testing.T) {
	build := func(reverse bool) *Registry {
		reg := NewRegistry()
		add := []func(){
			func() { reg.Counter("zz_total", "last family").Add(3) },
			func() { reg.Counter("aa_total", "first family", L("route", "b")).Add(1) },
			func() { reg.Counter("aa_total", "first family", L("route", "a")).Add(2) },
			func() { reg.Gauge("mid_gauge", "middle").Set(7.5) },
		}
		if reverse {
			for i := len(add) - 1; i >= 0; i-- {
				add[i]()
			}
		} else {
			for _, f := range add {
				f()
			}
		}
		return reg
	}
	var w1, w2, w3 strings.Builder
	if err := build(false).WritePrometheus(&w1); err != nil {
		t.Fatal(err)
	}
	if err := build(false).WritePrometheus(&w2); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WritePrometheus(&w3); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() || w1.String() != w3.String() {
		t.Fatalf("exposition output not stable:\n%s\nvs\n%s", w1.String(), w3.String())
	}
	out := w1.String()
	if !strings.Contains(out, "# TYPE aa_total counter") || !strings.Contains(out, `aa_total{route="a"} 2`) {
		t.Fatalf("unexpected exposition:\n%s", out)
	}
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if strings.Index(out, `route="a"`) > strings.Index(out, `route="b"`) {
		t.Fatalf("series not sorted within family:\n%s", out)
	}
}

// TestExpositionRoundTrip renders a registry with all three metric kinds
// and re-parses it with the package's own validator.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "jobs", L("state", "done")).Add(2)
	reg.Counter("jobs_total", "jobs", L("state", "failed")).Inc()
	reg.Gauge("queue_depth", "depth").Set(4)
	h := reg.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	RegisterBuildInfo(reg, BuildInfo{Version: "v1.2.3", Revision: "abc", GoVersion: "go1.22"})

	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, w.String())
	}
	byID := make(map[string]float64, len(samples))
	for _, s := range samples {
		byID[s.ID()] = s.Value
	}
	checks := map[string]float64{
		`jobs_total{state="done"}`:                                       2,
		`jobs_total{state="failed"}`:                                     1,
		`queue_depth`:                                                    4,
		`latency_seconds_bucket{le="0.1"}`:                               1,
		`latency_seconds_bucket{le="1"}`:                                 2,
		`latency_seconds_bucket{le="10"}`:                                3,
		`latency_seconds_bucket{le="+Inf"}`:                              4,
		`latency_seconds_count`:                                          4,
		`build_info{goversion="go1.22",revision="abc",version="v1.2.3"}`: 1,
	}
	for id, want := range checks {
		if got, ok := byID[id]; !ok || got != want {
			t.Errorf("series %s = %g (present %v), want %g", id, got, ok, want)
		}
	}
	if got := byID[`latency_seconds_sum`]; math.Abs(got-55.55) > 1e-9 {
		t.Errorf("latency sum = %g, want 55.55", got)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":        "foo 1\n",
		"dup series":     "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"bad value":      "# TYPE foo counter\nfoo abc\n",
		"bad labels":     "# TYPE foo counter\nfoo{x=1} 2\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, in)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "", L("msg", "a\"b\\c\nd")).Inc()
	var w strings.Builder
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(strings.NewReader(w.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, w.String())
	}
	if got := labelOf(samples[0], "msg"); got != "a\"b\\c\nd" {
		t.Fatalf("label round-trip = %q", got)
	}
}

// TestRegistryConcurrency hammers registration and observation from many
// goroutines while scraping; run under -race this guards the locking.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	reg.OnScrape(func(r *Registry) { r.Gauge("scrape_gauge", "").Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram("h_seconds", "", DefBuckets)
			for i := 0; i < 500; i++ {
				reg.Counter("c_total", "").Inc()
				h.Observe(float64(i) / 100)
				if i%100 == 0 {
					var sb strings.Builder
					if err := reg.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("c_total", "").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	s := reg.Histogram("h_seconds", "", DefBuckets).Snapshot()
	if s.Count != 8*500 {
		t.Fatalf("histogram count = %d, want %d", s.Count, 8*500)
	}
}

// labelOf returns the value of one label key of s ("" when absent).
func labelOf(s Sample, key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}
