package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served by
// /metrics endpoints rendering WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// formatValue renders a sample value the way the exposition format
// expects: shortest round-trippable decimal, with +Inf/-Inf/NaN spelled
// out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// formatBound renders a histogram le= bound.
func formatBound(b float64) string { return formatValue(b) }

// WritePrometheus renders every registered metric in Prometheus text
// exposition format: families sorted by name, one # HELP and # TYPE line
// per family, series sorted by label set within the family, histograms
// expanded into cumulative _bucket/_sum/_count series. The output order
// is fully deterministic, so scrapes are byte-diffable in tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := make([]func(*Registry), len(r.onScrape))
	copy(hooks, r.onScrape)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(r)
	}

	r.mu.Lock()
	byName := make(map[string][]*series, len(r.kinds))
	names := make([]string, 0, len(r.kinds))
	for _, s := range r.ordered {
		if len(byName[s.name]) == 0 {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	kinds := make(map[string]metricKind, len(r.kinds))
	help := make(map[string]string, len(r.help))
	for k, v := range r.kinds {
		kinds[k] = v
	}
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		family := byName[name]
		sort.Slice(family, func(i, j int) bool {
			return seriesID(family[i].name, family[i].labels) < seriesID(family[j].name, family[j].labels)
		})
		if h := help[name]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, strings.ReplaceAll(h, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, kinds[name])
		for _, s := range family {
			writeSeries(bw, s)
		}
	}
	return bw.Flush()
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, s *series) {
	switch m := s.inst.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s %s\n", seriesID(s.name, s.labels), formatValue(float64(m.Value())))
	case *Gauge:
		fmt.Fprintf(w, "%s %s\n", seriesID(s.name, s.labels), formatValue(m.Value()))
	case *Histogram:
		snap := m.Snapshot()
		cum := uint64(0)
		for i, b := range snap.Bounds {
			cum += snap.Counts[i]
			fmt.Fprintf(w, "%s %d\n", seriesID(s.name+"_bucket", withLE(s.labels, formatBound(b))), cum)
		}
		cum += snap.Counts[len(snap.Counts)-1]
		fmt.Fprintf(w, "%s %d\n", seriesID(s.name+"_bucket", withLE(s.labels, "+Inf")), cum)
		fmt.Fprintf(w, "%s %s\n", seriesID(s.name+"_sum", s.labels), formatValue(snap.Sum))
		fmt.Fprintf(w, "%s %d\n", seriesID(s.name+"_count", s.labels), snap.Count)
	}
}

// withLE appends the le label, keeping the sorted-by-key invariant.
func withLE(labels []Label, bound string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	out = append(out, L("le", bound))
	return sortLabels(out)
}

// Sample is one parsed exposition sample: a fully labelled series and its
// value.
type Sample struct {
	// Name is the sample's metric name (for histograms, the expanded
	// _bucket/_sum/_count name).
	Name string
	// Labels holds the sample's label pairs sorted by key.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// ID renders the sample's canonical series identity.
func (s Sample) ID() string { return seriesID(s.Name, s.Labels) }

// ParseExposition parses Prometheus text exposition format, validating
// the subset WritePrometheus emits: # HELP/# TYPE comments, sample lines
// of the form name{labels} value, no duplicate series, every sample
// preceded by a # TYPE for its family, and cumulative (non-decreasing)
// histogram buckets ending at +Inf. It exists so tests — and the CI
// smoke scrape — can verify /metrics output structurally rather than by
// substring.
func ParseExposition(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		samples []Sample
		typed   = make(map[string]string) // family -> type
		seen    = make(map[string]bool)   // series id -> present
		lastBkt = make(map[string]uint64) // histogram series (sans le) -> last cumulative count
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 && fields[1] == "TYPE" {
				switch t := fields[3]; t {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typed[fields[2]] = t
				default:
					return nil, fmt.Errorf("obs: line %d: unknown metric type %q", lineNo, t)
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			return nil, fmt.Errorf("obs: line %d: sample %s has no preceding # TYPE", lineNo, s.Name)
		}
		if id := s.ID(); seen[id] {
			return nil, fmt.Errorf("obs: line %d: duplicate series %s", lineNo, id)
		} else {
			seen[id] = true
		}
		if strings.HasSuffix(s.Name, "_bucket") && typed[family] == "histogram" {
			if err := checkBucket(s, lastBkt); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return samples, nil
}

// checkBucket enforces cumulative bucket counts per histogram series.
func checkBucket(s Sample, lastBkt map[string]uint64) error {
	var rest []Label
	for _, l := range s.Labels {
		if l.Key != "le" {
			rest = append(rest, l)
		}
	}
	key := seriesID(s.Name, rest)
	if uint64(s.Value) < lastBkt[key] {
		return fmt.Errorf("histogram %s buckets not cumulative (%g < %d)", key, s.Value, lastBkt[key])
	}
	lastBkt[key] = uint64(s.Value)
	return nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		// The closing brace must be found outside quoted label values:
		// braces are legal inside them (route="GET /v1/jobs/{id}").
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip the escaped byte
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = sortLabels(labels)
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// Ignore an optional trailing timestamp.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseValue parses a sample value including the Inf/NaN spellings.
func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(tok, 64)
}

// parseLabels parses the inside of a {...} label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label set %q", s)
		}
		key := s[:eq]
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, L(key, b.String()))
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}
