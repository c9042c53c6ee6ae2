package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rlsched/internal/cache"
	"rlsched/internal/core"
	"rlsched/internal/metrics"
	"rlsched/internal/sched"
)

// goldenDigests pins the engine's deterministic output: for every
// cache.EngineVersion, the SHA-256 of each golden point's canonical
// result (see goldenPointDigest). The result cache serves any entry
// stored under the current EngineVersion forever, so an engine change
// that moves a single result bit without a version bump would make every
// warm cache serve stale results. Never edit a recorded entry: bump
// cache.EngineVersion and add a new one.
var goldenDigests = map[string]map[string]string{
	"rlsched-v1": {
		"70 sites":               "dba4a4d9b8b17ac5986c52a8b41b0f95cd085ba9b8258b644a3b397628bbb7ad",
		"adaptive-rl":            "5ebace9561802aff9cfbabb229aa1868ffb3ddecdfadef00c528e44876f0b710",
		"cooperative-game":       "9a26f6464f4a224fc3485157791ca00b6f845a34306e19e23bb88e5f03545350",
		"dvfs":                   "fde9fee58fb64d38d16f2a2ae895b770c323f447f98f8851030e26dc6d3a5eb2",
		"failures":               "4dcd05c90c6e0b2bc51f810a3cdd51c0a7327db6b5e9eda0dbd7741f55bb12a2",
		"greedy":                 "f59c9a88096b2324b4f922e17baac392c62cfddb98e229d1bd9269d34fedd139",
		"idle-sleep":             "5345b69cb3baeca0fadb4118ee85e6462c49d5518f18d099b6c58b2d34378a53",
		"low-memory adaptive-rl": "1ad02fc0fe2e76f2cce42ad889f878977f4959acf6617ae05eaffbc97d3c3d7d",
		"low-memory online-rl":   "48d051738e6ce3d7635766a35fbf86cba877235e6ecb4b948816ffd9ace8e023",
		"online-rl":              "862ec36eb55335368dee222e15015d605dfd77aaafd9c2468c802e72ecfacf6e",
		"prediction-based":       "eefe4532965b3f7fe7113ff2691e12afb9917cd2fc2fbe8f88d89aad39247a80",
		"q+-learning":            "348ed033c99da0d5d35aa64a6c8d86d82f2fb6f712bea1df7095e3948f3f7b43",
		"random":                 "c8771029d32069b12861f8ef500c075ca3a8b78b747358534e832290d1ecbac7",
		"round-robin":            "035a3e3af500bcdccccf1a194cf621b158607bc44cab0ea1f7e4dc1d2963ed6c",
		"scale":                  "5b96ee1deba36120466e3ab3d3b077187b17fdcb9261dc458b6be3dfab10d6eb",
	},
}

// goldenPoint is one tiny simulation point of the digest panel. A
// default-mode point runs with a record log attached (records); a
// low-memory or scale point keeps none.
type goldenPoint struct {
	name    string
	run     func() (sched.Result, error)
	records *metrics.Records
}

// goldenPanel covers every policy and every engine path at a size that
// keeps the whole panel well under two seconds: failure injection, the
// idle-sleep and DVFS ablations, low-memory mode, prefix-sum routing
// (more than routeScanMax sites) and a cut-down scale scenario.
func goldenPanel() []goldenPoint {
	tiny := DefaultProfile()
	tiny.Replications = 1
	tiny.ObservationPeriod = 300
	const n = 300
	spec := func(p PolicyName) RunSpec { return RunSpec{Policy: p, NumTasks: n, Seed: 1} }
	run := func(name string, prof Profile, s RunSpec) goldenPoint {
		if !prof.Engine.LowMemory {
			prof.Engine.Records = new(metrics.Records)
		}
		return goldenPoint{name, func() (sched.Result, error) { return Run(prof, s) }, prof.Engine.Records}
	}

	var panel []goldenPoint
	for _, p := range []PolicyName{AdaptiveRL, OnlineRL, QPlus, Predictive, Greedy, RoundRobin, Random, Cooperative} {
		panel = append(panel, run(string(p), tiny, spec(p)))
	}

	failures := tiny
	failures.Engine.FailureMTBF, failures.Engine.RepairTime = 400, 20
	panel = append(panel, run("failures", failures, spec(AdaptiveRL)))

	sleep := tiny
	sleep.Platform.SleepPowerW = 5
	sleep.Engine.Records = new(metrics.Records)
	panel = append(panel, goldenPoint{"idle-sleep", func() (sched.Result, error) {
		cfg := core.DefaultConfig()
		cfg.ManageIdleSleep = true
		policy, err := core.New(cfg)
		if err != nil {
			return sched.Result{}, err
		}
		return RunWith(sleep, spec(AdaptiveRL), policy)
	}, sleep.Engine.Records})

	dvfs := tiny
	dvfs.Platform.PowerExponent = 3
	dvfs.Engine.DVFSLazy = true
	panel = append(panel, run("dvfs", dvfs, spec(AdaptiveRL)))

	lowMem := tiny
	lowMem.Engine.LowMemory = true
	panel = append(panel, run("low-memory adaptive-rl", lowMem, spec(AdaptiveRL)))
	panel = append(panel, run("low-memory online-rl", lowMem, spec(OnlineRL)))

	wide := tiny
	wide.Platform.Sites = 70
	wide.Platform.MinNodesPerSite, wide.Platform.MaxNodesPerSite = 1, 1
	panel = append(panel, run("70 sites", wide, RunSpec{Policy: AdaptiveRL, NumTasks: 400, Seed: 1}))

	panel = append(panel, goldenPoint{"scale", func() (sched.Result, error) {
		c, err := ScalePreset("small")
		if err != nil {
			return sched.Result{}, err
		}
		c.Sites, c.NumTasks = 80, 20_000
		return RunScale(c)
	}, nil})
	return panel
}

// goldenPointDigest hashes what the result cache stores for a point — the
// canonical JSON of its Result with the Collector dropped — plus the
// point's record exports: the task and group record CSVs and the 95th
// response-time percentile. A default-mode point reads them from its
// record log; a point with none (records nil: low-memory and scale
// points) hashes header-only CSVs and its collector's histogram p95.
func goldenPointDigest(res sched.Result, records *metrics.Records) (string, error) {
	p95 := res.Collector.RTPercentile(95)
	if records == nil {
		records = new(metrics.Records)
	} else {
		p95 = records.RTPercentile(95)
	}
	res.Collector = nil
	canon, err := cache.CanonicalJSON(res)
	if err != nil {
		return "", err
	}
	var tasks, groups bytes.Buffer
	if err := records.WriteTaskRecords(&tasks); err != nil {
		return "", err
	}
	if err := records.WriteGroupRecords(&groups); err != nil {
		return "", err
	}
	h := sha256.New()
	for _, part := range [][]byte{canon, tasks.Bytes(), groups.Bytes(),
		[]byte(strconv.FormatFloat(p95, 'g', -1, 64))} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestGoldenEngineDigest fails when any golden point's output moves
// without a cache.EngineVersion bump.
func TestGoldenEngineDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other architectures fuse multiply-adds, which
		// changes float rounding; the digests are recorded on amd64.
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	got := make(map[string]string)
	for _, pt := range goldenPanel() {
		res, err := pt.run()
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		if pt.name == "failures" && res.Failures == 0 {
			t.Fatalf("failures point injected no failures")
		}
		if got[pt.name], err = goldenPointDigest(res, pt.records); err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
	}

	want, ok := goldenDigests[cache.EngineVersion]
	var moved []string
	for name, d := range got {
		if want[name] != d {
			moved = append(moved, name)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			moved = append(moved, name+" (no longer in the panel)")
		}
	}
	if ok && len(moved) == 0 {
		return
	}
	sort.Strings(moved)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var entry strings.Builder
	fmt.Fprintf(&entry, "\t%q: {\n", cache.EngineVersion)
	for _, name := range names {
		fmt.Fprintf(&entry, "\t\t%q: %q,\n", name, got[name])
	}
	entry.WriteString("\t},\n")
	t.Fatalf("results changed: bump cache.EngineVersion and record the digest\n"+
		"points that moved under %q: %s\nentry for the current outputs:\n%s",
		cache.EngineVersion, strings.Join(moved, ", "), entry.String())
}
