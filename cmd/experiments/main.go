// Command experiments regenerates the paper's evaluation figures (7-12)
// and the extension figures (E1-E3).
//
// Usage:
//
//	experiments [-fig 7..12|E1..E3|all|ext] [-reps N] [-seed S]
//	            [-period T] [-sizescale F] [-workers W] [-csv] [-chart]
//
// Each figure prints as an aligned table (default), optionally with an
// ASCII chart and CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/obs"
	"rlsched/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figID := fs.String("fig", "all", "figure to regenerate: 7..12, E1..E3, ext, or all")
	reps := fs.Int("reps", 0, "replications per point (0 = profile default)")
	seed := fs.Uint64("seed", 0, "base seed (0 = profile default)")
	period := fs.Float64("period", 0, "observation period override (time units)")
	sizeScale := fs.Float64("sizescale", 0, "task-size scale override")
	csv := fs.Bool("csv", false, "also print CSV")
	chart := fs.Bool("chart", false, "also print an ASCII chart")
	md := fs.Bool("md", false, "print as a markdown table instead of aligned text")
	ablations := fs.Bool("ablations", false, "run the design-choice ablation table instead of figures")
	outDir := fs.String("out", "", "directory to write one CSV per figure")
	reportPath := fs.String("report", "", "write every regenerated figure into one self-contained HTML report")
	configPath := fs.String("config", "", "profile JSON (default: built-in profile)")
	workers := fs.Int("workers", 0, "simulation points run concurrently (0 = one per CPU, 1 = serial)")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "experiments %s\n", obs.ReadBuildInfo())
		return 0
	}

	profile := experiments.DefaultProfile()
	if *configPath != "" {
		f, err := config.Load(*configPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		profile = f.Profile
	}
	if *reps > 0 {
		profile.Replications = *reps
	}
	if *seed > 0 {
		profile.Seed = *seed
	}
	if *period > 0 {
		profile.ObservationPeriod = *period
	}
	if *sizeScale > 0 {
		profile.SizeScale = *sizeScale
	}
	if *workers > 0 {
		profile.Workers = *workers
	}

	if *ablations {
		start := time.Now()
		results, err := experiments.RunAblations(profile, experiments.DefaultAblationArms())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, report.AblationTable(results))
		fmt.Fprintf(stdout, "(ablations run in %v)\n", time.Since(start).Round(time.Millisecond))
		return 0
	}

	// One Figures call regenerates a whole group, so figures that read
	// the same points (7 and 8, 11 and 12, 9/10 and 7) share their runs;
	// each figure's line reports the group's time.
	start := time.Now()
	figs, err := experiments.Figures(context.Background(), profile, *figID)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	var htmlRep *report.HTMLReport
	if *reportPath != "" {
		htmlRep = report.NewHTMLReport("rlsched evaluation figures")
		htmlRep.AddKeyValues("Profile", [][2]string{
			{"replications", fmt.Sprintf("%d", profile.Replications)},
			{"observation period", fmt.Sprintf("%g t units", profile.ObservationPeriod)},
			{"size scale", fmt.Sprintf("%g", profile.SizeScale)},
			{"seed", fmt.Sprintf("%d", profile.Seed)},
		})
	}
	for _, fig := range figs {
		if *md {
			fmt.Fprint(stdout, report.Markdown(fig))
		} else {
			fmt.Fprint(stdout, report.Table(fig))
		}
		if *chart {
			fmt.Fprint(stdout, report.Chart(fig, 72, 18))
		}
		if *csv {
			fmt.Fprint(stdout, report.CSV(fig))
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			path := filepath.Join(*outDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(report.CSV(fig)), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "(wrote %s)\n", path)
		}
		if htmlRep != nil {
			htmlRep.AddFigure(fig)
		}
		fmt.Fprintf(stdout, "(%s regenerated in %v)\n\n", fig.ID, elapsed)
	}
	if htmlRep != nil {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := htmlRep.Render(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "(wrote %s)\n", *reportPath)
	}
	return 0
}
