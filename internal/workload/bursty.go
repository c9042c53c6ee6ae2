package workload

import (
	"fmt"

	"rlsched/internal/rng"
)

// BurstyConfig extends the §III.A generator with an on/off modulated
// Poisson arrival process (a Markov-modulated Poisson process with two
// phases). Real grid and cloud arrival logs are bursty rather than
// homogeneous-Poisson; this generator produces workloads that stress the
// adaptive task-grouping far harder than the paper's stationary stream
// while keeping the same long-run arrival rate, so results remain
// comparable against plain Generate runs.
type BurstyConfig struct {
	GenConfig
	// BurstFactor multiplies the arrival rate during a burst (> 1).
	BurstFactor float64
	// MeanBurstLen and MeanGapLen are the exponential mean durations of
	// the burst and gap phases, in time units.
	MeanBurstLen, MeanGapLen float64
}

// DefaultBurstyConfig returns a 4x burst every ~5 gap-lengths.
func DefaultBurstyConfig() BurstyConfig {
	return BurstyConfig{
		GenConfig:    DefaultGenConfig(),
		BurstFactor:  4,
		MeanBurstLen: 50,
		MeanGapLen:   200,
	}
}

// burstFraction is the long-run share of time spent in the burst phase.
func (c BurstyConfig) burstFraction() float64 {
	return c.MeanBurstLen / (c.MeanBurstLen + c.MeanGapLen)
}

// gapRateScale is the arrival-rate multiplier of the gap phase chosen so
// the long-run rate equals 1/MeanInterArrival:
// f·burst + (1−f)·gap = 1  =>  gap = (1 − f·burst)/(1 − f).
func (c BurstyConfig) gapRateScale() float64 {
	f := c.burstFraction()
	return (1 - f*c.BurstFactor) / (1 - f)
}

// Validate checks the configuration; the burst factor must leave the gap
// phase a positive arrival rate.
func (c BurstyConfig) Validate() error {
	if err := c.GenConfig.Validate(); err != nil {
		return err
	}
	switch {
	case c.BurstFactor <= 1:
		return fmt.Errorf("workload: BurstFactor must exceed 1, got %g", c.BurstFactor)
	case c.MeanBurstLen <= 0 || c.MeanGapLen <= 0:
		return fmt.Errorf("workload: burst/gap lengths must be positive, got %g/%g", c.MeanBurstLen, c.MeanGapLen)
	}
	if c.gapRateScale() <= 0 {
		return fmt.Errorf("workload: BurstFactor %g with burst fraction %.3f starves the gap phase",
			c.BurstFactor, c.burstFraction())
	}
	return nil
}

// GenerateBursty produces a workload whose arrivals follow the two-phase
// modulated Poisson process. Size, deadline and priority semantics are
// identical to Generate. It is the materialising adapter over
// NewBurstySource.
func GenerateBursty(cfg BurstyConfig, r *rng.Stream) ([]*Task, error) {
	src, err := NewBurstySource(cfg, r)
	if err != nil {
		return nil, err
	}
	return collect(make([]*Task, 0, cfg.NumTasks), src), nil
}
