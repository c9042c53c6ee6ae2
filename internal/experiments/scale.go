package experiments

import (
	"fmt"

	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// ScaleConfig describes one large-scale streaming scenario: a platform of
// thousands of sites fed a multi-million-task diurnal arrival stream. The
// whole pipeline runs in streaming mode — tasks are generated lazily,
// pulled by the engine as the clock reaches them, and retired once their
// group's feedback is delivered — so peak memory is O(active tasks +
// aggregate statistics) and does not grow with NumTasks.
//
// Unlike Profile, which fixes an observation period and lets the task
// count set the load, a scale scenario fixes the offered load and lets
// the task count set the duration: the arrival rate is derived from the
// platform's expected aggregate capacity so any site count runs at the
// same per-processor pressure.
type ScaleConfig struct {
	// Sites and NodesPerSite size the platform; processor counts, speeds
	// and power levels keep the §V.A defaults.
	Sites        int
	NodesPerSite int
	// NumTasks is the total number of tasks streamed through the run.
	NumTasks int
	// Load is the offered-load fraction of aggregate capacity (arrival
	// rate × mean task size ÷ total speed), e.g. 0.7.
	Load float64
	// Amplitude and Period shape the diurnal arrival modulation (see
	// workload.DiurnalConfig). Period 0 selects a quarter of the expected
	// arrival span, so every run sees several day/night cycles.
	Amplitude float64
	Period    float64
	// Policy and Seed identify the run.
	Policy PolicyName
	Seed   uint64
	// Recorders are handed to the run's engine unchanged (a probe
	// records platform-wide series above 64 sites). The run's counters
	// come back in Result.Stats.
	sched.Recorders
}

// ScalePresets names the built-in scale scenario sizes.
var ScalePresets = []string{"small", "medium", "large"}

// ScalePreset returns a named scenario: small (100 sites, 50k tasks) for
// smoke tests, medium (1,000 sites, 500k tasks), and large (5,000 sites,
// 2M tasks) — the headline configuration.
func ScalePreset(name string) (ScaleConfig, error) {
	c := ScaleConfig{
		NodesPerSite: 2,
		Load:         0.7,
		Amplitude:    0.6,
		Policy:       AdaptiveRL,
		Seed:         1,
	}
	switch name {
	case "small":
		c.Sites, c.NumTasks = 100, 50_000
	case "medium":
		c.Sites, c.NumTasks = 1_000, 500_000
	case "large":
		c.Sites, c.NumTasks = 5_000, 2_000_000
	default:
		return ScaleConfig{}, fmt.Errorf("experiments: unknown scale preset %q (want one of %v)", name, ScalePresets)
	}
	return c, nil
}

// Validate checks the scenario parameters.
func (c ScaleConfig) Validate() error {
	switch {
	case c.Sites < 1:
		return fmt.Errorf("experiments: scale Sites must be >= 1, got %d", c.Sites)
	case c.NodesPerSite < 1:
		return fmt.Errorf("experiments: scale NodesPerSite must be >= 1, got %d", c.NodesPerSite)
	case c.NumTasks < 1:
		return fmt.Errorf("experiments: scale NumTasks must be >= 1, got %d", c.NumTasks)
	case c.Load <= 0 || c.Load > 1:
		return fmt.Errorf("experiments: scale Load must be in (0, 1], got %g", c.Load)
	case c.Amplitude < 0 || c.Amplitude >= 1:
		return fmt.Errorf("experiments: scale Amplitude must be in [0, 1), got %g", c.Amplitude)
	case c.Period < 0:
		return fmt.Errorf("experiments: scale Period must be >= 0, got %g", c.Period)
	}
	if _, err := NewPolicy(c.Policy); err != nil {
		return err
	}
	return nil
}

// platformConfig is the §V.A platform sized to the scenario.
func (c ScaleConfig) platformConfig() platform.GenConfig {
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = c.Sites
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = c.NodesPerSite, c.NodesPerSite
	return pcfg
}

// meanInterArrival derives the arrival mean that offers Load times the
// platform's expected aggregate capacity.
func (c ScaleConfig) meanInterArrival(pcfg platform.GenConfig) float64 {
	procs := float64(c.Sites*c.NodesPerSite) * float64(pcfg.MinProcsPerNode+pcfg.MaxProcsPerNode) / 2
	meanSize := (600.0 + 7200.0) / 2
	return meanSize / (c.Load * procs * pcfg.MeanSpeed())
}

// Workload returns the scenario's streaming task source and its
// configuration, without running anything — the knob Build is to Run.
func (c ScaleConfig) Workload(r *rng.Stream) (workload.Source, workload.DiurnalConfig, error) {
	pcfg := c.platformConfig()
	iat := c.meanInterArrival(pcfg)
	period := c.Period
	if period == 0 {
		period = float64(c.NumTasks) * iat / 4
	}
	dcfg := workload.DiurnalConfig{
		GenConfig: workload.GenConfig{
			NumTasks:         c.NumTasks,
			MeanInterArrival: iat,
			MinSizeMI:        600,
			MaxSizeMI:        7200,
			SlowestSpeedMIPS: pcfg.MinSpeedMIPS,
			Mix:              workload.DefaultMix(),
		},
		Amplitude: c.Amplitude,
		Period:    period,
	}
	src, err := workload.NewDiurnalSource(dcfg, r)
	if err != nil {
		return nil, workload.DiurnalConfig{}, err
	}
	return src, dcfg, nil
}

// RunScale executes one scale scenario end to end: streaming diurnal
// workload, low-memory engine, aggregated metrics. The returned Result
// carries exact headline metrics (AveRT, ECS, SuccessRate, utilisation)
// and a streaming Collector (RTPercentile approximate — see
// metrics.NewStreamingCollector).
func RunScale(c ScaleConfig) (sched.Result, error) {
	if err := c.Validate(); err != nil {
		return sched.Result{}, err
	}
	r := rng.NewStream(c.Seed, fmt.Sprintf("scale-%s-s%d-n%d", c.Policy, c.Sites, c.NumTasks))
	pl, err := platform.Generate(c.platformConfig(), r.Split("platform"))
	if err != nil {
		return sched.Result{}, err
	}
	src, _, err := c.Workload(r.Split("workload"))
	if err != nil {
		return sched.Result{}, err
	}
	policy, err := NewPolicy(c.Policy)
	if err != nil {
		return sched.Result{}, err
	}
	ecfg := sched.DefaultConfig()
	ecfg.LowMemory = true
	ecfg.Recorders = c.Recorders
	eng, err := sched.NewFromSource(ecfg, pl, src, policy, r.Split("engine"))
	if err != nil {
		return sched.Result{}, err
	}
	return eng.Run()
}
