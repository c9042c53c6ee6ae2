package platform

import (
	"fmt"
	"math"

	"rlsched/internal/rng"
)

// GenConfig parameterises random platform generation along the knobs of
// §V.A: 5–10 resource sites, 5–20 compute nodes per site, 4–6 processors
// per node, speeds uniform in [500, 1000] MIPS, peak wattage in [80, 95]
// proportional to speed, idle wattage ≈ half of peak (48 W for a 95 W peak).
type GenConfig struct {
	// Sites is the number of resource sites (each gets one agent).
	Sites int
	// MinNodesPerSite and MaxNodesPerSite bound the uniform node count.
	MinNodesPerSite, MaxNodesPerSite int
	// MinProcsPerNode and MaxProcsPerNode bound the uniform processor
	// count (4–6 in §V.A).
	MinProcsPerNode, MaxProcsPerNode int
	// MinSpeedMIPS and MaxSpeedMIPS bound the uniform speed draw.
	MinSpeedMIPS, MaxSpeedMIPS float64
	// PMaxLoW and PMaxHiW bound peak power; a processor's peak is
	// interpolated within this range proportionally to its speed (§III.B).
	PMaxLoW, PMaxHiW float64
	// PMinFrac is idle power as a fraction of peak (≈0.505 reproduces the
	// paper's 48 W idle against a 95 W peak).
	PMinFrac float64
	// SleepPowerW and WakeLatency configure the deep-sleep state used by
	// the Q+ baseline.
	SleepPowerW, WakeLatency float64
	// PowerExponent shapes busy power in the throttle (see
	// Processor.PowerExponent); 0/1 is the paper's proportional model.
	PowerExponent float64
	// MinQueueCap and MaxQueueCap bound the per-node group-queue length.
	MinQueueCap, MaxQueueCap int
	// HeterogeneityCV, when positive, overrides the speed range with one
	// of controlled service heterogeneity h ∈ (0, 1): speeds are drawn
	// uniformly from mid ± (MaxSpeedMIPS−MinSpeedMIPS)·h around the
	// nominal midpoint mid = (Min+Max)/2. The mean processing capacity is
	// therefore constant across a sweep (no load confound), and h = 0.5
	// reproduces exactly the nominal §V.A range (500–1000 MIPS); larger h
	// widens both tails. Experiment 3 sweeps h from 0.1 to 0.9.
	HeterogeneityCV float64
}

// DefaultGenConfig returns the §V.A defaults. Site/node counts sit at the
// low end of the paper's ranges so a default simulation finishes quickly;
// experiments override them.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Sites:           5,
		MinNodesPerSite: 5,
		MaxNodesPerSite: 5,
		MinProcsPerNode: 4,
		MaxProcsPerNode: 6,
		MinSpeedMIPS:    500,
		MaxSpeedMIPS:    1000,
		PMaxLoW:         80,
		PMaxHiW:         95,
		PMinFrac:        48.0 / 95.0,
		SleepPowerW:     DefaultSleepPowerW,
		WakeLatency:     DefaultWakeLatency,
		MinQueueCap:     4,
		MaxQueueCap:     8,
	}
}

// Validate checks the generator configuration.
func (c GenConfig) Validate() error {
	switch {
	case c.Sites <= 0:
		return fmt.Errorf("platform: Sites must be positive, got %d", c.Sites)
	case c.MinNodesPerSite <= 0 || c.MaxNodesPerSite < c.MinNodesPerSite:
		return fmt.Errorf("platform: invalid nodes-per-site range [%d, %d]", c.MinNodesPerSite, c.MaxNodesPerSite)
	case c.MinProcsPerNode <= 0 || c.MaxProcsPerNode < c.MinProcsPerNode:
		return fmt.Errorf("platform: invalid procs-per-node range [%d, %d]", c.MinProcsPerNode, c.MaxProcsPerNode)
	case c.MinSpeedMIPS <= 0 || c.MaxSpeedMIPS < c.MinSpeedMIPS:
		return fmt.Errorf("platform: invalid speed range [%g, %g]", c.MinSpeedMIPS, c.MaxSpeedMIPS)
	case c.PMaxLoW <= 0 || c.PMaxHiW < c.PMaxLoW:
		return fmt.Errorf("platform: invalid peak-power range [%g, %g]", c.PMaxLoW, c.PMaxHiW)
	case c.PMinFrac <= 0 || c.PMinFrac >= 1:
		return fmt.Errorf("platform: PMinFrac must be in (0,1), got %g", c.PMinFrac)
	case c.SleepPowerW < 0 || c.WakeLatency < 0:
		return fmt.Errorf("platform: negative sleep power or wake latency")
	case c.PowerExponent < 0:
		return fmt.Errorf("platform: negative PowerExponent %g", c.PowerExponent)
	case c.MinQueueCap <= 0 || c.MaxQueueCap < c.MinQueueCap:
		return fmt.Errorf("platform: invalid queue-cap range [%d, %d]", c.MinQueueCap, c.MaxQueueCap)
	case c.HeterogeneityCV < 0 || c.HeterogeneityCV >= 1:
		return fmt.Errorf("platform: HeterogeneityCV %g out of [0, 1)", c.HeterogeneityCV)
	}
	return nil
}

// speedRange returns the effective [lo, hi] speed interval, applying the
// heterogeneity override when set. The lower bound is floored at a tenth
// of MinSpeedMIPS so extreme settings keep execution times finite.
func (c GenConfig) speedRange() (lo, hi float64) {
	if c.HeterogeneityCV <= 0 {
		return c.MinSpeedMIPS, c.MaxSpeedMIPS
	}
	mid := (c.MinSpeedMIPS + c.MaxSpeedMIPS) / 2
	halfW := (c.MaxSpeedMIPS - c.MinSpeedMIPS) * c.HeterogeneityCV
	lo = mid - halfW
	if floor := c.MinSpeedMIPS / 10; lo < floor {
		lo = floor
	}
	return lo, mid + halfW
}

// drawSpeed samples one processor speed according to the configuration.
func (c GenConfig) drawSpeed(r *rng.Stream) float64 {
	lo, hi := c.speedRange()
	if hi <= lo {
		return lo
	}
	return r.Uniform(lo, hi)
}

// pMaxFor interpolates the peak wattage from the speed (§III.B: peak power
// proportional to processing capacity, within [PMaxLoW, PMaxHiW]).
func (c GenConfig) pMaxFor(speed float64) float64 {
	lo, hi := c.speedRange()
	span := hi - lo
	if span <= 0 {
		return c.PMaxLoW
	}
	frac := math.Min(1, math.Max(0, (speed-lo)/span))
	return c.PMaxLoW + (c.PMaxHiW-c.PMaxLoW)*frac
}

// MeanSpeed returns the expected processor speed of the configuration,
// used by experiment profiles to hold the offered load constant across a
// heterogeneity sweep.
func (c GenConfig) MeanSpeed() float64 {
	lo, hi := c.speedRange()
	return (lo + hi) / 2
}

// Generate builds a random platform. All randomness comes from r, so a
// fixed (config, stream) pair always yields the same platform.
func Generate(cfg GenConfig, r *rng.Stream) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl := &Platform{}
	procID, nodeID := 0, 0
	for si := 0; si < cfg.Sites; si++ {
		site := &Site{ID: si}
		numNodes := r.IntRange(cfg.MinNodesPerSite, cfg.MaxNodesPerSite)
		for ni := 0; ni < numNodes; ni++ {
			node := &Node{
				ID:       nodeID,
				Index:    ni,
				Site:     site,
				QueueCap: r.IntRange(cfg.MinQueueCap, cfg.MaxQueueCap),
			}
			nodeID++
			numProcs := r.IntRange(cfg.MinProcsPerNode, cfg.MaxProcsPerNode)
			for pi := 0; pi < numProcs; pi++ {
				speed := cfg.drawSpeed(r)
				pmax := cfg.pMaxFor(speed)
				proc := &Processor{
					ID:            procID,
					Index:         pi,
					Node:          node,
					SpeedMIPS:     speed,
					PMaxW:         pmax,
					PMinW:         pmax * cfg.PMinFrac,
					PSleepW:       cfg.SleepPowerW,
					WakeLatency:   cfg.WakeLatency,
					Throttle:      1,
					PowerExponent: cfg.PowerExponent,
					pl:            pl,
				}
				procID++
				node.Processors = append(node.Processors, proc)
				pl.processors = append(pl.processors, proc)
			}
			site.Nodes = append(site.Nodes, node)
			pl.nodes = append(pl.nodes, node)
		}
		pl.Sites = append(pl.Sites, site)
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("platform: generated platform failed validation: %w", err)
	}
	return pl, nil
}

// MustGenerate is Generate that panics on error, for tests and examples.
func MustGenerate(cfg GenConfig, r *rng.Stream) *Platform {
	pl, err := Generate(cfg, r)
	if err != nil {
		panic(err)
	}
	return pl
}

// MaxProcsPerNode returns the largest processor count of any node — the
// cap on opnum in the TG technique ("must not exceed the maximum number of
// processors in a node", §IV.D.1).
func (pl *Platform) MaxProcsPerNode() int {
	maxM := 0
	for _, n := range pl.nodes {
		if m := n.NumProcessors(); m > maxM {
			maxM = m
		}
	}
	return maxM
}
