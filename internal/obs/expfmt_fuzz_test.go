package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fuzzRegistry builds a registry exercising every metric kind and the
// label edge cases the exposition writer escapes: quotes, backslashes,
// newlines, braces inside values, and non-finite gauge values.
func fuzzRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", "requests served", L("route", "GET /v1/jobs/{id}"), L("code", "200")).Add(41)
	r.Counter("requests_total", "requests served", L("route", "POST /v1/jobs"), L("code", "202")).Inc()
	r.Gauge("queue_depth", "jobs waiting", L("q", `with "quotes" and \slashes\`)).Set(7.5)
	r.Gauge("weird_values", "non-finite values survive", L("which", "inf")).Set(math.Inf(1))
	r.Gauge("weird_values", "non-finite values survive", L("which", "newline\nin label")).Set(-0.25)
	h := r.Histogram("latency_seconds", "request latency", []float64{0.01, 0.1, 1}, L("route", "all"))
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	return r
}

// TestParseExpositionRoundTrip renders a registry and parses it back,
// checking the parse is lossless for names, labels and values.
func TestParseExpositionRoundTrip(t *testing.T) {
	r := fuzzRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parsing own render:\n%s\n%v", buf.String(), err)
	}
	want := map[string]float64{
		`requests_total{code="200",route="GET /v1/jobs/{id}"}`: 41,
		`requests_total{code="202",route="POST /v1/jobs"}`:     1,
		`queue_depth{q="with \"quotes\" and \\slashes\\"}`:     7.5,
		`weird_values{which="inf"}`:                            math.Inf(1),
		`latency_seconds_bucket{le="+Inf",route="all"}`:        4,
		`latency_seconds_count{route="all"}`:                   4,
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.ID()] = s.Value
	}
	for id, v := range want {
		pv, ok := got[id]
		if !ok {
			t.Errorf("sample %s missing from parse; have %v", id, keysOf(got))
			continue
		}
		if pv != v {
			t.Errorf("sample %s = %g, want %g", id, pv, v)
		}
	}
	for _, s := range samples {
		if s.Name == "weird_values" && labelOf(s, "which") == "newline\nin label" {
			return
		}
	}
	t.Error("label with embedded newline did not round-trip")
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// FuzzParseExposition feeds arbitrary bytes to the parser. The contract
// under fuzz: never panic, and on success every sample re-renders to a
// line the parser accepts again (parse → print → parse is stable).
func FuzzParseExposition(f *testing.F) {
	// Valid corpus: our own renderer's output plus hand-written edges.
	var buf bytes.Buffer
	if err := fuzzRegistry().WritePrometheus(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# TYPE a counter\na 1\n")
	f.Add("# HELP a help text\n# TYPE a gauge\na{x=\"y\"} -2.5e-3 1700000000\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n")
	f.Add("# TYPE v gauge\nv NaN\nv{a=\"b\"} +Inf\n")
	// Invalid corpus: must error, never panic.
	f.Add("a 1\n")                                                               // no preceding # TYPE
	f.Add("# TYPE a counter\na 1\na 1\n")                                        // duplicate series
	f.Add("# TYPE a wibble\n")                                                   // unknown type
	f.Add("# TYPE a gauge\na{x=\"y\n")                                           // unterminated label value
	f.Add("# TYPE a gauge\na{x=y\"} 1\n")                                        // malformed label set
	f.Add("# TYPE a gauge\na{x=\"\\\"")                                          // trailing escape
	f.Add("{} 1\n")                                                              // empty name
	f.Add("# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\n") // non-cumulative
	f.Add(string([]byte{0x00, 0xff, '{', '"', '\\'}))

	f.Fuzz(func(t *testing.T, input string) {
		samples, err := ParseExposition(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input: every sample's canonical form must parse again
		// when re-rendered under a fresh # TYPE header.
		for _, s := range samples {
			if !math.IsNaN(s.Value) && !math.IsInf(s.Value, 0) {
				line := "# TYPE " + s.Name + " untyped\n" + s.ID() + " " + formatValue(s.Value) + "\n"
				again, err := ParseExposition(strings.NewReader(line))
				if err != nil {
					t.Fatalf("re-parse of accepted sample failed:\n%s\n%v", line, err)
				}
				if len(again) != 1 || again[0].ID() != s.ID() || again[0].Value != s.Value {
					t.Fatalf("re-parse drifted: %q -> %+v", line, again)
				}
			}
		}
	})
}
