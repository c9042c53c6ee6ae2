package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// promMetric scrapes a daemon's Prometheus text exposition and returns
// the value of one unlabelled series.
func promMetric(t *testing.T, d *daemon, name string) float64 {
	t.Helper()
	code, raw := httpGet(t, d.url("/metrics"))
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in exposition", name)
	return 0
}

// waitProgress polls a job until points_done reaches min.
func waitProgress(t *testing.T, d *daemon, id string, min int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, raw := httpGet(t, d.url("/v1/jobs/"+id))
		var st struct {
			State      string `json:"state"`
			PointsDone int    `json:"points_done"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.PointsDone >= min {
			return
		}
		switch st.State {
		case "failed", "cancelled", "timeout":
			t.Fatalf("job %s settled as %s before reaching %d points", id, st.State, min)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d completed points", id, min)
}

// fetchResult returns the /result payload of a done job.
func fetchResult(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	code, raw := httpGet(t, d.url("/v1/jobs/"+id+"/result"))
	if code != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", id, code, raw)
	}
	return raw
}

// TestClusterEndToEnd is the multi-process acceptance test: a
// coordinator fanning campaigns out across two real worker daemons over
// loopback must produce byte-identical results to a standalone daemon —
// including after one worker is SIGKILLed mid-campaign — and a
// coordinator restarted on the same -cache-dir must serve a repeated
// campaign from the disk cache.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster e2e skipped in -short")
	}
	w1 := startDaemon(t, "", "-worker")
	w2 := startDaemon(t, "", "-worker")
	cacheDir := t.TempDir()
	coord := startDaemon(t, "", "-cache-dir", cacheDir,
		"-peers", "http://"+w1.addr+",http://"+w2.addr)
	solo := startDaemon(t, "")

	// Same submission order on both daemons, so job ids (and therefore
	// whole result payloads) are directly comparable.
	figure := `{"kind": "figure", "figure": "10",
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 2}}`
	// About 25 ms of simulation per point (20,000 tasks), so the SIGKILL
	// below lands while the victim is simulating a leased point, not
	// between two lease round trips.
	var pts []string
	for i := 0; i < 24; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20000, "Seed": %d}`, i+1))
	}
	campaign := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 2}}`

	// Phase 1: a figure fanned out across both workers matches solo.
	figID := submitJob(t, coord, figure)
	soloFigID := submitJob(t, solo, figure)
	if figID != soloFigID {
		t.Fatalf("job ids diverged: coordinator %s, solo %s", figID, soloFigID)
	}
	waitDone(t, coord, figID)
	waitDone(t, solo, soloFigID)
	if got, want := fetchResult(t, coord, figID), fetchResult(t, solo, soloFigID); !bytes.Equal(got, want) {
		t.Fatalf("cluster figure differs from solo:\ncluster: %s\nsolo:    %s", got, want)
	}
	if remote := promMetric(t, coord, "cluster_points_remote_total"); remote != 2 {
		t.Fatalf("cluster_points_remote_total = %v, want 2 (both figure points leased)", remote)
	}

	// Phase 2: SIGKILL a worker mid-campaign; its points are re-leased
	// and the result is still byte-identical.
	campID := submitJob(t, coord, campaign)
	waitProgress(t, coord, campID, 1)
	if err := w2.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL worker: %v", err)
	}
	_, _ = w2.cmd.Process.Wait()
	waitDone(t, coord, campID)

	soloCampID := submitJob(t, solo, campaign)
	if campID != soloCampID {
		t.Fatalf("job ids diverged: coordinator %s, solo %s", campID, soloCampID)
	}
	waitDone(t, solo, soloCampID)
	if got, want := fetchResult(t, coord, campID), fetchResult(t, solo, soloCampID); !bytes.Equal(got, want) {
		t.Fatalf("result after worker kill differs from solo:\ncluster: %s\nsolo:    %s", got, want)
	}
	if retries := promMetric(t, coord, "cluster_lease_retries_total"); retries < 1 {
		t.Fatalf("cluster_lease_retries_total = %v, want >= 1 after SIGKILL", retries)
	}

	// The cache spool holds real sharded entries on disk by now.
	shards, err := os.ReadDir(cacheDir)
	if err != nil || len(shards) == 0 {
		t.Fatalf("cache dir %s empty after campaigns (err=%v)", cacheDir, err)
	}

	// Phase 3: a fresh coordinator on the same -cache-dir serves the
	// repeated figure from the disk cache — no recomputation, non-zero
	// hits on /metrics, still byte-identical.
	coord.kill()
	coord2 := startDaemon(t, "", "-cache-dir", cacheDir, "-peers", "http://"+w1.addr)
	warmID := submitJob(t, coord2, figure)
	waitDone(t, coord2, warmID)
	if warmID != soloFigID {
		t.Fatalf("warm run id %s, solo figure id %s", warmID, soloFigID)
	}
	if got, want := fetchResult(t, coord2, warmID), fetchResult(t, solo, soloFigID); !bytes.Equal(got, want) {
		t.Fatalf("warm-cache figure differs from solo:\nwarm: %s\nsolo: %s", got, want)
	}
	if hits := promMetric(t, coord2, "cache_hits_total"); hits != 2 {
		t.Fatalf("cache_hits_total = %v, want 2 (both points from the disk cache)", hits)
	}
	if cached := promMetric(t, coord2, "cluster_points_cached_total"); cached != 2 {
		t.Fatalf("cluster_points_cached_total = %v, want 2", cached)
	}
}

// TestClusterEndToEndCoordinatorCrash SIGKILLs a coordinator that runs
// with -spool only (its result cache then spools under <spool>/cache)
// once its campaign has finished a point, and restarts it on the same
// spool. The re-run job must take the finished points from that cache
// and still match a standalone daemon byte for byte.
func TestClusterEndToEndCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster e2e skipped in -short")
	}
	w := startDaemon(t, "", "-worker")
	spool := t.TempDir()
	coord := startDaemon(t, spool, "-peers", "http://"+w.addr)
	solo := startDaemon(t, "")

	// About 25 ms of simulation per point on one worker, so the kill
	// below lands with most of the campaign still to run.
	var pts []string
	for i := 0; i < 24; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20000, "Seed": %d}`, i+1))
	}
	campaign := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 2}}`

	id := submitJob(t, coord, campaign)
	waitProgress(t, coord, id, 1)
	coord.kill()
	// A point counts as done only after its cache put, so the spool
	// holds at least one entry by now.
	shards, err := os.ReadDir(filepath.Join(spool, "cache"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("%s/cache empty after a finished point (err=%v)", spool, err)
	}

	coord2 := startDaemon(t, spool, "-peers", "http://"+w.addr)
	waitDone(t, coord2, id)
	soloID := submitJob(t, solo, campaign)
	if soloID != id {
		t.Fatalf("job ids diverged: coordinator %s, solo %s", id, soloID)
	}
	waitDone(t, solo, soloID)
	if got, want := fetchResult(t, coord2, id), fetchResult(t, solo, soloID); !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from solo:\ncluster: %s\nsolo:    %s", got, want)
	}
	cached := promMetric(t, coord2, "cluster_points_cached_total")
	if cached < 1 || cached >= float64(len(pts)) {
		t.Fatalf("cluster_points_cached_total = %v, want 1..%d (the points finished before the kill)", cached, len(pts)-1)
	}
	t.Logf("resumed with %v of %d points from the spooled cache", cached, len(pts))
}
