// Command rlsim runs a single simulation and prints its summary — the
// quickest way to poke at one scenario.
//
// Usage:
//
//	rlsim [-policy adaptive-rl] [-n 1000] [-cv 0] [-seed 1]
//	      [-config profile.json] [-series-csv series.csv]
//	      [-decisions-csv decisions.csv] [-report run.html]
//
// Large-scale streaming runs (thousands of sites, millions of tasks,
// O(active) memory) use the scale presets instead of a profile:
//
//	rlsim -scale large [-scale-sites 5000] [-scale-tasks 2000000]
//	      [-policy adaptive-rl] [-seed 1]
//
// With -scale, the flags only a profile run reads (-n, -cv, -config and
// the output flags) are refused with exit code 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"rlsched"
	"rlsched/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rlsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policy := fs.String("policy", "adaptive-rl",
		"policy: adaptive-rl | online-rl | q+-learning | prediction-based | greedy")
	n := fs.Int("n", 1000, "number of tasks")
	cv := fs.Float64("cv", 0, "heterogeneity override (0 = nominal platform)")
	seed := fs.Uint64("seed", 1, "seed")
	configPath := fs.String("config", "", "profile JSON (default: built-in profile)")
	dumpTasks := fs.String("dump-tasks", "", "write per-task records CSV to this file")
	dumpGroups := fs.String("dump-groups", "", "write per-group records CSV to this file")
	dumpGantt := fs.String("dump-gantt", "", "write the per-processor schedule (Gantt CSV) to this file")
	seriesCSV := fs.String("series-csv", "", "record in-sim time series and write them as CSV to this file")
	decisionsCSV := fs.String("decisions-csv", "", "record the scheduling-decision audit and write it as CSV to this file")
	reportPath := fs.String("report", "", "write a self-contained HTML run report to this file")
	seriesCadence := fs.Float64("series-cadence", 0, "sim-time sampling interval for -series-csv/-report (0 = default)")
	seriesMax := fs.Int("series-max", 0, "retained points per series before downsampling (0 = default)")
	scale := fs.String("scale", "", "run a large-scale streaming scenario instead: small | medium | large")
	scaleSites := fs.Int("scale-sites", 0, "override the scale preset's site count")
	scaleTasks := fs.Int("scale-tasks", 0, "override the scale preset's task count")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "rlsim %s\n", obs.ReadBuildInfo())
		return 0
	}
	if *scale != "" {
		// A scale run reads only the -scale*, -policy and -seed flags:
		// refuse any other rather than ignore it without a word.
		bad := ""
		fs.Visit(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "scale") && f.Name != "policy" && f.Name != "seed" {
				bad = f.Name
			}
		})
		if bad != "" {
			fmt.Fprintf(stderr, "rlsim: -%s cannot be combined with -scale\n", bad)
			return 2
		}
		return runScale(*scale, *scaleSites, *scaleTasks, *policy, *seed, stdout, stderr)
	}

	profile := rlsched.DefaultProfile()
	if *configPath != "" {
		f, err := rlsched.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		profile = f.Profile
	}

	var timeline *rlsched.Timeline
	if *dumpGantt != "" {
		timeline = rlsched.NewTimeline()
		profile.Engine.Tracer = timeline
	}
	// The record log backs -dump-tasks, -dump-groups and the exact p95
	// of the summary.
	records := new(rlsched.Records)
	profile.Engine.Records = records

	// rlsim runs one point, so either series output attaches one probe
	// recorder and either decision output one audit recorder straight to
	// the engine. Both export as campaign point 0 under the point's
	// canonical label, the label (and CSV writers) the daemon's series
	// and decisions endpoints use.
	spec := rlsched.RunSpec{
		Policy:          rlsched.PolicyName(*policy),
		NumTasks:        *n,
		HeterogeneityCV: *cv,
		Seed:            *seed,
	}
	label := rlsched.PointLabel(spec)
	wantSeries := *seriesCSV != "" || *reportPath != ""
	wantDecisions := *decisionsCSV != "" || *reportPath != ""
	if wantSeries {
		profile.Engine.Probe = rlsched.NewProbeRecorder(rlsched.ProbeConfig{Cadence: *seriesCadence, MaxPoints: *seriesMax})
	}
	if wantDecisions {
		profile.Engine.Audit = rlsched.NewAuditRecorder(rlsched.AuditConfig{})
	}

	res, err := rlsched.Run(profile, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "policy            %s\n", res.Policy)
	fmt.Fprintf(stdout, "tasks             %d submitted, %d completed\n", res.Submitted, res.Completed)
	fmt.Fprintf(stdout, "avg response time %.2f t units (wait %.2f, p95 %.2f)\n",
		res.AveRT, res.MeanWait, records.RTPercentile(95))
	fmt.Fprintf(stdout, "energy (ECS)      %.3f million W·t (%.1f per task, idle share %.1f%%)\n",
		res.ECS/1e6, res.Efficiency.EnergyPerTask, res.Efficiency.IdleFraction*100)
	fmt.Fprintf(stdout, "successful rate   %.3f (%d deadline hits)\n", res.SuccessRate, res.DeadlineHits)
	fmt.Fprintf(stdout, "utilisation       %.3f mean busy fraction\n", res.MeanUtilization)
	fmt.Fprintf(stdout, "group size        %.2f mean (adaptive opnum outcome)\n", res.MeanGroupSize)
	fmt.Fprintf(stdout, "makespan          %.1f t units\n", res.EndTime)
	// export writes one requested output file and reports it; an empty
	// path means the output was not requested. False means it failed.
	export := func(path string, write func(io.Writer) error) bool {
		if path == "" {
			return true
		}
		if err := writeFile(path, write); err != nil {
			fmt.Fprintln(stderr, err)
			return false
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		return true
	}
	if !export(*dumpTasks, records.WriteTaskRecords) ||
		!export(*dumpGroups, records.WriteGroupRecords) ||
		!export(*dumpGantt, timeline.WriteCSV) {
		return 1
	}
	if len(res.UtilWindows) > 0 {
		fmt.Fprintf(stdout, "util by cycles    ")
		for _, u := range res.UtilWindows {
			fmt.Fprintf(stdout, "%.2f ", u)
		}
		fmt.Fprintln(stdout)
	}

	var (
		decRuns []rlsched.DecisionRunLog
		runs    []rlsched.ProbeRunSeries
	)
	if wantDecisions {
		log, _ := profile.Engine.Audit.Snapshot()
		decRuns = []rlsched.DecisionRunLog{{Label: label, Log: log}}
	}
	if wantSeries {
		series, _ := profile.Engine.Probe.Snapshot()
		runs = []rlsched.ProbeRunSeries{{Label: label, Series: series}}
	}
	if !export(*decisionsCSV, func(w io.Writer) error { return rlsched.WriteDecisionsCSV(w, decRuns) }) ||
		!export(*seriesCSV, func(w io.Writer) error { return rlsched.WriteSeriesCSV(w, runs) }) {
		return 1
	}
	if *reportPath == "" {
		return 0
	}
	rep := rlsched.NewHTMLReport(fmt.Sprintf("rlsim run: %s", *policy))
	rep.AddKeyValues("Run summary", [][2]string{
		{"policy", res.Policy},
		{"tasks", fmt.Sprintf("%d submitted, %d completed", res.Submitted, res.Completed)},
		{"avg response time", fmt.Sprintf("%.2f t units", res.AveRT)},
		{"energy (ECS)", fmt.Sprintf("%.3f million W·t", res.ECS/1e6)},
		{"successful rate", fmt.Sprintf("%.3f", res.SuccessRate)},
		{"utilisation", fmt.Sprintf("%.3f", res.MeanUtilization)},
		{"makespan", fmt.Sprintf("%.1f t units", res.EndTime)},
	})
	rep.AddRunSeries(runs[0])
	// The decision audit rides along in the same report: learning
	// curves, state-visitation heatmap, and the top-decision table
	// that -decisions-csv exports in raw form.
	dr := decRuns[0]
	if len(dr.Curves) > 0 {
		rep.AddRunSeries(rlsched.ProbeRunSeries{
			Index: dr.Index, Label: dr.Label + " — learning curves", Series: dr.Curves,
		})
	}
	rep.AddStateHeatmap(dr)
	rep.AddDecisionTable(dr)
	if !export(*reportPath, rep.Render) {
		return 1
	}
	return 0
}

// runScale executes one large-scale streaming scenario and prints its
// summary plus the process's peak heap, the number the O(active) memory
// claim is about.
func runScale(preset string, sites, tasks int, policy string, seed uint64, stdout, stderr io.Writer) int {
	cfg, err := rlsched.ScalePreset(preset)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if sites > 0 {
		cfg.Sites = sites
	}
	if tasks > 0 {
		cfg.NumTasks = tasks
	}
	cfg.Policy = rlsched.PolicyName(policy)
	cfg.Seed = seed
	res, err := rlsched.RunScale(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(stdout, "scenario          %s: %d sites, %d tasks, load %.2f\n",
		preset, cfg.Sites, cfg.NumTasks, cfg.Load)
	fmt.Fprintf(stdout, "policy            %s\n", res.Policy)
	fmt.Fprintf(stdout, "tasks             %d submitted, %d completed\n", res.Submitted, res.Completed)
	fmt.Fprintf(stdout, "avg response time %.2f t units (wait %.2f, p95 ~%.2f)\n",
		res.AveRT, res.MeanWait, res.Collector.RTPercentile(95))
	fmt.Fprintf(stdout, "energy (ECS)      %.3f million W·t (%.1f per task)\n",
		res.ECS/1e6, res.Efficiency.EnergyPerTask)
	fmt.Fprintf(stdout, "successful rate   %.3f (%d deadline hits)\n", res.SuccessRate, res.DeadlineHits)
	fmt.Fprintf(stdout, "utilisation       %.3f mean busy fraction\n", res.MeanUtilization)
	fmt.Fprintf(stdout, "makespan          %.1f t units\n", res.EndTime)
	fmt.Fprintf(stdout, "peak heap         %.1f MiB (HeapSys %.1f MiB)\n",
		float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapSys)/(1<<20))
	return 0
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
