// Command perfbench is the repository's benchmark. One invocation runs one
// closed-loop workload for a fixed time, checks every output, and prints
// its metrics: the end-to-end ones with tracing off, or, with tracing on,
// the per-layer ones, with the spans written to a file. Run it from the
// repository root, which builds it from source first:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// Workloads: figures (the Figures 7-12 campaign), scale (a 250-site
// streaming run) and daemon (a coordinator and two workers over loopback
// HTTP). The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it, each
// starting with "# ", are the run record.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median.
	setupRuns = 5
	// maxOvertime bounds how far a window may run past its nominal length
	// to collect enough samples for the percentile rule.
	maxOvertime = 30 * time.Second
	// outDir holds the benchmark's build, scratch files and span traces,
	// relative to the repository root.
	outDir = ".bench_build"
)

// bench is one workload.
type bench interface {
	// setup returns a ready instance after one untimed warm-up. tr, when
	// non-nil, is the tracer the instance's probes record into.
	setup(tr *Tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs closed-loop operations for at least d, and on until
	// both latency samples hold minN operations, then checks the outputs
	// outside the timed window. tr is nil for an untraced window.
	measure(d time.Duration, tr *Tracer, minN int) (*window, error)
	// layers adds the per-layer metrics of the last traced window and
	// returns run-record lines with the sample counts behind them.
	layers(m map[string]float64, spans []Span) []string
	close()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: figures, scale or daemon")
	seed := fl.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fl.Int("seconds", 10, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	t := &tally{}
	b, err := newBench(*name, *seed, t)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec := []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%d trace=%d", *name, *seed, *seconds, *trace),
		revision(),
		fmt.Sprintf("go=%s os=%s/%s nproc=%d GOMAXPROCS=%d", runtime.Version(), runtime.GOOS, runtime.GOARCH,
			runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	}
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 0 {
		metrics, err = untraced(b, time.Duration(*seconds)*time.Second, t, &rec)
		defs = endToEnd
	} else {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		metrics, err = traced(b, time.Duration(*seconds)*time.Second, path, t, &rec)
		defs = perLayer
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	attempted, failed, errs := t.counts()
	rec = append(rec, fmt.Sprintf("failed_ratio=%g (failed %d of %d attempted)", t.ratio(), failed, attempted))
	for _, e := range errs {
		rec = append(rec, "failure: "+e)
	}
	for _, line := range rec {
		fmt.Fprintln(stdout, "# "+line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = value{metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func newBench(name string, seed uint64, t *tally) (bench, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case "figures":
		return newFigures(seed, t)
	case "scale":
		return &scaleBench{seed: seed, t: t}, nil
	case "daemon":
		return &daemonBench{seed: seed, scratch: outDir, t: t}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, scale or daemon)", name)
}

// setUp sets the workload up setupRuns times, keeps the last instance and
// returns the median set-up time in seconds.
func setUp(b bench, tr *Tracer, rec *[]string) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = b.setup(tr); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	*rec = append(*rec, fmt.Sprintf("setup_s samples=%v", times))
	return inst, median(times), nil
}

// untraced measures one untraced window. A latency sample too small for
// the percentile rule fails the run's result rather than the run.
func untraced(b bench, d time.Duration, t *tally, rec *[]string) (map[string]float64, error) {
	inst, setup, err := setUp(b, nil, rec)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	w, err := inst.measure(d, nil, minSamples)
	if err != nil {
		return nil, err
	}
	*rec = append(*rec, windowRecord("untraced", w)...)
	m, err := w.endToEnd(setup)
	if err != nil {
		t.fail(err)
	}
	return m, nil
}

// traced measures an untraced and then a traced window, each half of d on
// a fresh instance with the same seed, so their results must agree byte
// for byte and their difference is the tracing overhead. Neither reports
// end-to-end percentiles, so neither runs on for more samples.
func traced(b bench, d time.Duration, path string, t *tally, rec *[]string) (map[string]float64, error) {
	half := max(d/2, time.Second)
	inst, _, err := setUp(b, nil, rec)
	if err != nil {
		return nil, err
	}
	u, err := inst.measure(half, nil, 0)
	inst.close()
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	inst, err = b.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer inst.close()
	w, err := inst.measure(half, tr, 0)
	if err != nil {
		return nil, err
	}
	spans := tr.Spans()
	m := make(map[string]float64, len(perLayer))
	samples := inst.layers(m, spans)
	t.check(u.digest == w.digest, "traced results differ from untraced ones: digest %s vs %s", w.digest, u.digest)
	ue, _ := u.endToEnd(0)
	te, _ := w.endToEnd(0)
	m["trace.overhead_pct"] = 100 * (ue["sim_tasks_per_s"] - te["sim_tasks_per_s"]) / ue["sim_tasks_per_s"]
	*rec = append(*rec, windowRecord("untraced", u)...)
	*rec = append(*rec, windowRecord("traced", w)...)
	var over []string
	for _, def := range endToEnd[1:] {
		over = append(over, fmt.Sprintf("%s %+.4g", def.Name, te[def.Name]-ue[def.Name]))
	}
	*rec = append(*rec, "tracing overhead (traced minus untraced): "+strings.Join(over, ", "))
	*rec = append(*rec, samples...)
	*rec = append(*rec, selfTimeRecord(spans)...)
	if err := WriteTrace(path, spans); err != nil {
		return nil, err
	}
	*rec = append(*rec, fmt.Sprintf("spans=%d written to %s", len(spans), path))
	return m, nil
}

func windowRecord(label string, w *window) []string {
	_, coldBeyond := percentile(w.cold, 0.9)
	_, warmBeyond := percentile(w.warm, 0.9)
	return []string{
		fmt.Sprintf("%s window: %.3fs ops=%d tasks=%d cold_samples=%d (beyond p90: %d) warm_samples=%d (beyond p90: %d)",
			label, w.elapsed.Seconds(), w.ops, w.tasks, len(w.cold), coldBeyond, len(w.warm), warmBeyond),
		fmt.Sprintf("%s result digest sha256=%s", label, w.digest),
	}
}

func selfTimeRecord(spans []Span) []string {
	by := ByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{"layer self time (span, count, total ms, self ms):"}
	for _, n := range names {
		lt := by[n]
		out = append(out, fmt.Sprintf("  %-32s %7d %12.3f %12.3f", n, lt.Spans, float64(lt.Total)/1e6, float64(lt.Self)/1e6))
	}
	return out
}

// subseed derives an independent 48-bit seed for one use of the workload
// seed, so the program under test only ever sees generated values.
func subseed(seed uint64, tag string, i int) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h := sha256.Sum256(append(b[:], tag...))
	return binary.LittleEndian.Uint64(h[:8])>>16 + 1
}

// revision identifies the source under test: the VCS revision when the
// build recorded one, and a digest of every Go source and module file
// under the working directory.
func revision() string {
	vcs := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				vcs = s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	src := hex.EncodeToString(h.Sum(nil))[:16]
	if err != nil {
		src = "unreadable: " + err.Error()
	}
	return fmt.Sprintf("revision vcs=%s source_sha256=%s", vcs, src)
}
