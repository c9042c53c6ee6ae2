package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestRunUnknownFigure(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "99"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if msg := errOut.String(); !strings.Contains(msg, `unknown figure "99"`) || strings.Contains(msg, "extension figure") {
		t.Fatalf("stderr: %q", msg)
	}
}

func TestRunBadConfigPath(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-config", filepath.Join(t.TempDir(), "missing.json")}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
}

// TestRunTinyFigure regenerates figure 10 and the extension group under
// a deliberately tiny config file: the full CLI path from flags through
// config.Load to the figure sweep and table report.
func TestRunTinyFigure(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "tiny.json")
	cfg := `{"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 30, "HeavyTasks": 50, "Workers": 2}}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	for fig, ids := range map[string][]string{
		"10":  {"figure10"},
		"ext": {"figureE1", "figureE2", "figureE3"},
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-fig", fig, "-config", cfgPath, "-csv"}, &out, &errOut); code != 0 {
			t.Fatalf("-fig %s: exit code = %d, stderr=%q", fig, code, errOut.String())
		}
		for _, id := range ids {
			if want := "(" + id + " regenerated in"; !strings.Contains(out.String(), want) {
				t.Fatalf("-fig %s: stdout missing %q:\n%s", fig, want, out.String())
			}
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr=%q", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "experiments ") || !strings.Contains(out.String(), "go1") {
		t.Fatalf("version output: %q", out.String())
	}
}

// TestRunHTMLReport regenerates one small figure into the single-file
// HTML report and checks the output is self-contained.
func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "tiny.json")
	cfg := `{"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 30, "HeavyTasks": 50, "Workers": 2}}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	htmlPath := filepath.Join(dir, "figs.html")
	var out, errOut bytes.Buffer
	if code := run([]string{"-fig", "10", "-config", cfgPath, "-report", htmlPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr=%q", code, errOut.String())
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"<svg", "<style>", "FIGURE10"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://", "src="} {
		if strings.Contains(s, banned) {
			t.Fatalf("report contains %q — not self-contained", banned)
		}
	}
}
