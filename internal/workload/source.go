package workload

import (
	"fmt"
	"math"

	"rlsched/internal/rng"
)

// Source yields tasks one at a time in non-decreasing arrival order,
// without requiring the whole workload to exist in memory. It is the
// streaming counterpart of a []*Task slice: the scheduling engine pulls
// the next task only when the simulation clock approaches its arrival, so
// a multi-million-task run holds O(active tasks) rather than O(all tasks).
//
// Sources are single-use and not safe for concurrent use; construct one
// per run.
type Source interface {
	// Next returns the next task in arrival order, or (nil, false) once
	// the source is exhausted. Tasks are owned by the caller once
	// returned; the source never touches a task again after handing it
	// out.
	Next() (*Task, bool)
}

// sliceSource adapts a materialised slice to the Source interface.
type sliceSource struct {
	tasks []*Task
	i     int
}

// FromSlice wraps an in-memory workload as a Source. The slice is not
// copied; the caller must not mutate it while the source is in use.
func FromSlice(tasks []*Task) Source {
	return &sliceSource{tasks: tasks}
}

func (s *sliceSource) Next() (*Task, bool) {
	if s.i >= len(s.tasks) {
		return nil, false
	}
	t := s.tasks[s.i]
	s.i++
	return t, true
}

// collect appends everything src yields to tasks; Generate and
// GenerateBursty pass a slice sized to the task count.
func collect(tasks []*Task, src Source) []*Task {
	for {
		t, ok := src.Next()
		if !ok {
			return tasks
		}
		tasks = append(tasks, t)
	}
}

// slabSize is how many tasks a generating source allocates at once. Tasks
// are handed out from the chunk in place, so a source pays one allocation
// per slabSize tasks instead of one per task; a chunk stays reachable
// while any of its tasks is, so it is kept small for streaming runs.
const slabSize = 256

// slab hands out the tasks of a generating source from fixed-size chunks.
type slab struct {
	free []Task
}

// generator streams the §III.A synthetic workload. Its per-task draw
// order (inter-arrival, size, priority, slack) is exactly Generate's
// historical order, so collecting a generator reproduces Generate
// byte-for-byte for the same (cfg, stream) pair.
type generator struct {
	cfg     GenConfig
	weights []float64
	r       *rng.Stream
	clock   float64
	i       int
	slab    slab
}

// NewGenerator returns a streaming source of cfg.NumTasks tasks drawn
// from r. Generate collects one.
func NewGenerator(cfg GenConfig, r *rng.Stream) (Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mix := cfg.Mix.Normalize()
	return &generator{
		cfg:     cfg,
		weights: []float64{mix.Low, mix.Medium, mix.High},
		r:       r,
	}, nil
}

func (g *generator) Next() (*Task, bool) {
	if g.i >= g.cfg.NumTasks {
		return nil, false
	}
	g.clock += g.r.Exp(g.cfg.MeanInterArrival)
	t := g.slab.makeTask(g.i, g.cfg, g.weights, g.clock, g.r)
	g.i++
	return t, true
}

// makeTask draws the non-arrival attributes of task id (of
// cfg.NumTasks), in the fixed order (size, priority, slack) every
// generator shares, into the next task of the slab. The last chunk holds
// only the tasks still to come.
func (s *slab) makeTask(id int, cfg GenConfig, weights []float64, clock float64, r *rng.Stream) *Task {
	size := r.Uniform(cfg.MinSizeMI, cfg.MaxSizeMI)
	prio := Priorities[r.WeightedChoice(weights)]
	act := size / cfg.SlowestSpeedMIPS
	slack := slackFor(prio, r)
	if len(s.free) == 0 {
		s.free = make([]Task, min(slabSize, cfg.NumTasks-id))
	}
	t := &s.free[0]
	s.free = s.free[1:]
	*t = Task{
		ID:          id,
		SizeMI:      size,
		ACT:         act,
		Deadline:    act * (1 + slack),
		Priority:    prio,
		ArrivalTime: clock,
		StartTime:   -1,
		FinishTime:  -1,
	}
	return t
}

// burstySource streams the two-phase modulated Poisson workload of
// GenerateBursty, with the identical draw sequence.
type burstySource struct {
	cfg      BurstyConfig
	weights  []float64
	r        *rng.Stream
	clock    float64
	inBurst  bool
	phaseEnd float64
	gapScale float64
	i        int
	slab     slab
}

// NewBurstySource returns a streaming source for the bursty arrival
// process. GenerateBursty collects one.
func NewBurstySource(cfg BurstyConfig, r *rng.Stream) (Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mix := cfg.Mix.Normalize()
	return &burstySource{
		cfg:      cfg,
		weights:  []float64{mix.Low, mix.Medium, mix.High},
		r:        r,
		phaseEnd: r.Exp(cfg.MeanGapLen),
		gapScale: cfg.gapRateScale(),
	}, nil
}

func (b *burstySource) Next() (*Task, bool) {
	if b.i >= b.cfg.NumTasks {
		return nil, false
	}
	// Draw the next arrival under the current phase's rate; if it crosses
	// the phase boundary, re-draw from the boundary under the new phase
	// (memorylessness makes this exact).
	for {
		mean := b.cfg.MeanInterArrival / b.gapScale
		if b.inBurst {
			mean = b.cfg.MeanInterArrival / b.cfg.BurstFactor
		}
		next := b.clock + b.r.Exp(mean)
		if next <= b.phaseEnd {
			b.clock = next
			break
		}
		b.clock = b.phaseEnd
		b.inBurst = !b.inBurst
		if b.inBurst {
			b.phaseEnd = b.clock + b.r.Exp(b.cfg.MeanBurstLen)
		} else {
			b.phaseEnd = b.clock + b.r.Exp(b.cfg.MeanGapLen)
		}
	}
	t := b.slab.makeTask(b.i, b.cfg.GenConfig, b.weights, b.clock, b.r)
	b.i++
	return t, true
}

// DiurnalConfig modulates the Poisson arrival rate with a sinusoidal
// day/night cycle — the canonical shape of production cluster arrival
// logs, and the arrival model of the large-scale `scale` scenarios. The
// long-run rate stays 1/MeanInterArrival, so results remain comparable
// with stationary runs of the same size.
type DiurnalConfig struct {
	GenConfig
	// Amplitude in [0, 1) is the relative swing: the instantaneous rate
	// varies between (1−A) and (1+A) times the mean rate.
	Amplitude float64
	// Period is the cycle length in time units.
	Period float64
}

// Validate checks the modulation parameters.
func (c DiurnalConfig) Validate() error {
	if err := c.GenConfig.Validate(); err != nil {
		return err
	}
	switch {
	case c.Amplitude < 0 || c.Amplitude >= 1:
		return fmt.Errorf("workload: diurnal Amplitude must be in [0, 1), got %g", c.Amplitude)
	case c.Period <= 0:
		return fmt.Errorf("workload: diurnal Period must be positive, got %g", c.Period)
	}
	return nil
}

// diurnalSource streams arrivals from the inhomogeneous Poisson process
// via Lewis-Shedler thinning: candidates arrive at the peak rate and are
// accepted with probability rate(t)/peakRate, which is exact for any
// bounded rate function.
type diurnalSource struct {
	cfg     DiurnalConfig
	weights []float64
	r       *rng.Stream
	clock   float64
	i       int
	slab    slab
}

// NewDiurnalSource returns a streaming source for the diurnal arrival
// process.
func NewDiurnalSource(cfg DiurnalConfig, r *rng.Stream) (Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mix := cfg.Mix.Normalize()
	return &diurnalSource{
		cfg:     cfg,
		weights: []float64{mix.Low, mix.Medium, mix.High},
		r:       r,
	}, nil
}

func (d *diurnalSource) Next() (*Task, bool) {
	if d.i >= d.cfg.NumTasks {
		return nil, false
	}
	meanRate := 1 / d.cfg.MeanInterArrival
	peakRate := meanRate * (1 + d.cfg.Amplitude)
	for {
		d.clock += d.r.Exp(1 / peakRate)
		rate := meanRate * (1 + d.cfg.Amplitude*math.Sin(2*math.Pi*d.clock/d.cfg.Period))
		if d.r.Float64()*peakRate < rate {
			break
		}
	}
	t := d.slab.makeTask(d.i, d.cfg.GenConfig, d.weights, d.clock, d.r)
	d.i++
	return t, true
}
