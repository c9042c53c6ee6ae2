package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlsched"
)

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") {
		t.Fatalf("stderr: %q", errOut.String())
	}
}

func TestRunBadPolicy(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-policy", "bogus", "-n", "10"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if errOut.Len() == 0 {
		t.Fatal("no error printed")
	}
}

func TestRunTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-policy", "greedy", "-n", "20"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr=%q", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"policy            greedy", "20 submitted", "avg response time", "energy (ECS)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stdout missing %q:\n%s", want, s)
		}
	}
}

func TestRunScale(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-scale", "small", "-scale-sites", "12", "-scale-tasks", "600", "-policy", "greedy", "-seed", "4"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr=%q", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{"scenario          small: 12 sites, 600 tasks", "600 submitted, 600 completed", "peak heap"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stdout missing %q:\n%s", want, s)
		}
	}
}

func TestRunScaleBadPreset(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "galactic"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown scale preset") {
		t.Fatalf("stderr: %q", errOut.String())
	}
}

// TestRunScaleRejectsProfileFlags checks that -scale refuses, with exit
// code 2 and the flag's name, every flag only a profile run reads,
// instead of running and writing nothing.
func TestRunScaleRejectsProfileFlags(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"series-csv", "decisions-csv", "dump-tasks", "dump-groups", "dump-gantt", "report", "n"} {
		path := filepath.Join(dir, name)
		var out, errOut bytes.Buffer
		args := []string{"-scale", "small", "-scale-sites", "2", "-scale-tasks", "50", "-" + name, path}
		if name == "n" {
			args[len(args)-1] = "10"
		}
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("-%s: exit code = %d, want 2", name, code)
		}
		if !strings.Contains(errOut.String(), "-"+name+" ") || out.Len() != 0 {
			t.Errorf("-%s: stderr %q, stdout %q", name, errOut.String(), out.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-%s: a file was written", name)
		}
	}
}

func TestRunDumpGantt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gantt.csv")
	var out, errOut bytes.Buffer
	if code := run([]string{"-policy", "greedy", "-n", "20", "-dump-gantt", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr=%q", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("gantt CSV empty")
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr=%q", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "rlsim ") || !strings.Contains(out.String(), "go1") {
		t.Fatalf("version output: %q", out.String())
	}
}

func TestRunSeriesCSVAndReport(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "series.csv")
	htmlPath := filepath.Join(dir, "run.html")
	var out, errOut bytes.Buffer
	code := run([]string{"-policy", "greedy", "-n", "20", "-seed", "3",
		"-series-csv", csvPath, "-report", htmlPath, "-series-cadence", "10"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr=%q", code, errOut.String())
	}

	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := rlsched.ReadSeriesCSV(f)
	f.Close()
	if err != nil {
		t.Fatalf("series CSV unparseable: %v", err)
	}
	if len(runs) == 0 || len(runs[0].Series) == 0 {
		t.Fatalf("series CSV empty: %+v", runs)
	}
	if !strings.Contains(runs[0].Label, "greedy n=20") {
		t.Fatalf("run label = %q", runs[0].Label)
	}

	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(html)
	if !strings.Contains(s, "<svg") || !strings.Contains(s, "<style>") {
		t.Fatal("HTML report missing inline chart or stylesheet")
	}
	for _, banned := range []string{"<script", "http://", "https://", "src="} {
		if strings.Contains(s, banned) {
			t.Fatalf("HTML report contains %q — not self-contained", banned)
		}
	}
}

// TestRunSeriesDoesNotChangeSummary pins the zero-interference contract
// at the CLI level: the human-readable summary of a probed run is
// character-identical to an unprobed one.
func TestRunSeriesDoesNotChangeSummary(t *testing.T) {
	var plain, probed, errOut bytes.Buffer
	if code := run([]string{"-policy", "greedy", "-n", "20", "-seed", "3"}, &plain, &errOut); code != 0 {
		t.Fatalf("plain run failed: %q", errOut.String())
	}
	csvPath := filepath.Join(t.TempDir(), "series.csv")
	if code := run([]string{"-policy", "greedy", "-n", "20", "-seed", "3", "-series-csv", csvPath}, &probed, &errOut); code != 0 {
		t.Fatalf("probed run failed: %q", errOut.String())
	}
	probedOut := strings.Replace(probed.String(), "wrote "+csvPath+"\n", "", 1)
	if plain.String() != probedOut {
		t.Fatalf("probing changed the run summary:\nplain:\n%s\nprobed:\n%s", plain.String(), probedOut)
	}
}
