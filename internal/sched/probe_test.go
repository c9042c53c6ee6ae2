package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"rlsched/internal/platform"
	"rlsched/internal/probe"
	"rlsched/internal/rng"
	"rlsched/internal/workload"
)

// TestProbedRunIdenticalResults pins the probe contract: sampling is
// read-only with respect to simulation outcomes, so a probed run's
// Result matches an unprobed run of the same spec byte for byte except
// for the instrumentation counters (the sampling events themselves add
// to the DES event count).
func TestProbedRunIdenticalResults(t *testing.T) {
	plain := statsScenario(t, 11, DefaultConfig()).MustRun()

	cfg := DefaultConfig()
	cfg.Probe = probe.NewRecorder(probe.Config{Cadence: 10})
	probed := statsScenario(t, 11, cfg).MustRun()

	if probed.Stats.Events <= plain.Stats.Events {
		t.Errorf("probed run counted %d events, want more than unprobed %d (sampling events)",
			probed.Stats.Events, plain.Stats.Events)
	}
	// Everything except the event counters must be identical.
	probed.Stats, plain.Stats = RunStats{}, RunStats{}
	if probed.AveRT != plain.AveRT ||
		probed.ECS != plain.ECS || probed.EndTime != plain.EndTime ||
		probed.Completed != plain.Completed || probed.SuccessRate != plain.SuccessRate ||
		probed.MeanWait != plain.MeanWait || probed.MeanUtilization != plain.MeanUtilization {
		t.Fatalf("probe changed simulation outcomes:\nprobed   %+v\nunprobed %+v", probed, plain)
	}
}

// TestProbeRecordsAllFamilies checks that an engine run populates every
// series family with plausible values.
func TestProbeRecordsAllFamilies(t *testing.T) {
	rec := probe.NewRecorder(probe.Config{Cadence: 10})
	cfg := DefaultConfig()
	cfg.Probe = rec
	res := statsScenario(t, 11, cfg).MustRun()

	series, _ := rec.Snapshot()
	byFamily := map[string]int{}
	byName := map[string]probe.Series{}
	for _, s := range series {
		byFamily[s.Family]++
		byName[s.Name] = s
		if len(s.Points) == 0 {
			t.Errorf("series %s recorded no points", s.Name)
		}
	}
	// The stats scenario has 2 sites: 2 queue-depth + 2 backlog series.
	if byFamily[probe.FamilyQueue] != 4 {
		t.Errorf("queue family has %d series, want 4 (2 sites x depth+backlog)", byFamily[probe.FamilyQueue])
	}
	if byFamily[probe.FamilyUtil] != 2 {
		t.Errorf("util family has %d series, want 2", byFamily[probe.FamilyUtil])
	}
	for _, want := range []string{"power.draw", "energy.total", "rl.reward", "rl.error", "rl.hit_rate", "group.mean_size"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("series %q missing (have %v)", want, byFamily)
		}
	}
	// Cumulative energy must be nondecreasing and end near the result's
	// total (the last sample is taken at run end, so it matches exactly).
	en := byName["energy.total"].Points
	for i := 1; i < len(en); i++ {
		if en[i].V < en[i-1].V {
			t.Fatalf("cumulative energy decreased: %v -> %v", en[i-1], en[i])
		}
	}
	if got := en[len(en)-1].V; got != res.ECS {
		t.Errorf("final energy sample %g != result ECS %g", got, res.ECS)
	}
	// Utilization is a fraction.
	for _, s := range series {
		if s.Family != probe.FamilyUtil {
			continue
		}
		for _, p := range s.Points {
			if p.V < 0 || p.V > 1 {
				t.Fatalf("utilization sample %v outside [0,1] in %s", p, s.Name)
			}
		}
	}
}

// TestProbeFamilySelection checks the engine honours the recorder's
// family selection: unselected families get no series at all.
func TestProbeFamilySelection(t *testing.T) {
	rec := probe.NewRecorder(probe.Config{Cadence: 10, Series: []string{probe.FamilyPower}})
	cfg := DefaultConfig()
	cfg.Probe = rec
	statsScenario(t, 11, cfg).MustRun()
	series, _ := rec.Snapshot()
	if len(series) != 1 || series[0].Name != "power.draw" {
		names := make([]string, len(series))
		for i, s := range series {
			names[i] = s.Name
		}
		t.Fatalf("selected only power, recorded %v", names)
	}
}

// TestNilProbeAllocsNothing extends the disabled-instrumentation
// contract to the probe hook: the nil-Probe guards the engine runs are
// branch-only, so an unprobed run pays zero allocations for the
// subsystem's existence.
func TestNilProbeAllocsNothing(t *testing.T) {
	e := statsScenario(t, 3, DefaultConfig())
	if allocs := testing.AllocsPerRun(1000, func() {
		if e.cfg.Probe != nil {
			e.attachProbes()
		}
		if e.cfg.Probe != nil {
			e.cfg.Probe.SampleNow(0)
		}
	}); allocs != 0 {
		t.Fatalf("nil-probe guard path allocates %.1f per op, want 0", allocs)
	}
}

// probeLayoutRun runs a Greedy scenario over the given number of
// two-node, one-slot sites with a probe recorder attached and returns its series.
func probeLayoutRun(t *testing.T, sites int) []probe.Series {
	t.Helper()
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = sites
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	// One queue slot per node, so a loaded site backlogs groups.
	pcfg.MinQueueCap, pcfg.MaxQueueCap = 1, 1
	r := rng.NewStream(3, "probe-layout")
	pl, err := platform.Generate(pcfg, r.Split("platform"))
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.Generate(workload.GenConfig{
		NumTasks: 600, MeanInterArrival: 0.05, MinSizeMI: 600, MaxSizeMI: 7200,
		SlowestSpeedMIPS: pcfg.MinSpeedMIPS, Mix: workload.DefaultMix(),
	}, r.Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	rec := probe.NewRecorder(probe.Config{Cadence: 10})
	cfg := DefaultConfig()
	cfg.Probe = rec
	MustNew(cfg, pl, tasks, NewGreedy(), r.Split("engine")).MustRun()
	series, _ := rec.Snapshot()
	return series
}

// seriesDigest hashes every series' name and exact sampled points.
func seriesDigest(series []probe.Series) string {
	h := sha256.New()
	for _, s := range series {
		fmt.Fprintf(h, "%s/%s/%s:", s.Name, s.Family, s.Unit)
		for _, p := range s.Points {
			fmt.Fprintf(h, "%x,%x;", math.Float64bits(p.T), math.Float64bits(p.V))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestProbeSeriesLayouts pins both probe layouts: one set of queue,
// backlog and utilisation series per site up to 64 sites, and one
// platform-wide set above that. Names, order and the sampled values are
// pinned, so a refactor of how the series are registered cannot move a
// single sample.
func TestProbeSeriesLayouts(t *testing.T) {
	global := []string{"power.draw", "energy.total", "rl.reward", "rl.error", "rl.hit_rate", "group.mean_size"}
	for _, tc := range []struct {
		sites  int
		names  []string
		digest string
	}{
		{2, append([]string{
			"site0.queue_depth", "site0.backlog", "site0.utilization",
			"site1.queue_depth", "site1.backlog", "site1.utilization",
		}, global...), "47da5938bdaac865"},
		{65, append([]string{"sites.queue_depth", "sites.backlog", "sites.utilization"}, global...), "766fa8449c3a69f6"},
	} {
		series := probeLayoutRun(t, tc.sites)
		names := make([]string, len(series))
		for i, s := range series {
			names[i] = s.Name
		}
		if !slices.Equal(names, tc.names) {
			t.Errorf("%d sites: series %v, want %v", tc.sites, names, tc.names)
		}
		if tc.sites > routeScanMax {
			// The platform-wide series must have seen real load.
			for _, s := range series[:3] {
				peak := 0.0
				for _, p := range s.Points {
					peak = max(peak, p.V)
				}
				if peak == 0 {
					t.Errorf("%d sites: %s never rose above 0", tc.sites, s.Name)
				}
			}
		}
		if got := seriesDigest(series); got != tc.digest {
			t.Errorf("%d sites: sampled values digest %s, want %s", tc.sites, got, tc.digest)
		}
	}
}
