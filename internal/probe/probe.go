// Package probe records simulation-domain time series while a run is in
// flight. Where internal/obs watches the host process (goroutines, HTTP
// latency, job counters), probe watches the *simulated world*: per-site
// queue depth, instantaneous power draw, the RL agents' reward and error
// signals — each sampled on the DES clock at a fixed sim-time cadence.
//
// A Recorder is attached to one engine run via sched.Config.Probe. The
// engine registers closures for every series family the recorder wants
// and calls Start, which schedules a recurring DES event; each firing
// reads all registered closures at the same simulated instant. Sampling
// is read-only with respect to simulation outcomes: a probed run
// produces byte-identical results to an unprobed one (only the DES
// event count differs), and a nil Recorder costs nothing at all.
//
// Memory stays O(MaxPoints) per series regardless of run length: when a
// series fills, adjacent points are merged pairwise (mean value, later
// timestamp) and the sampling stride doubles, so resolution degrades
// gracefully instead of memory growing. Every such rewrite bumps the
// recorder's epoch, which live consumers (the daemon's SSE stream) use
// to detect that previously shipped points were rewritten.
package probe

import (
	"sync"

	"rlsched/internal/des"
)

// Series families a Recorder can sample. A Config selects a subset;
// engines ask Enabled before building the (potentially costly) closure.
const (
	// FamilyQueue samples per-site scheduler queue depth and agent
	// backlog, in task groups.
	FamilyQueue = "queue"
	// FamilyUtil samples the fraction of each site's processors that
	// are busy.
	FamilyUtil = "util"
	// FamilyPower samples platform-wide instantaneous power draw in
	// watts, including sleeping and waking nodes.
	FamilyPower = "power"
	// FamilyEnergy samples cumulative platform energy since t=0.
	FamilyEnergy = "energy"
	// FamilyRL samples the learning signals: mean reward, mean
	// turnaround-estimate error and shared-memory hit rate.
	FamilyRL = "rl"
	// FamilyGroup samples the mean task-group size placed so far.
	FamilyGroup = "group"
)

// Families lists every valid series family in canonical order.
var Families = []string{FamilyQueue, FamilyUtil, FamilyPower, FamilyEnergy, FamilyRL, FamilyGroup}

// ValidFamily reports whether name is a known series family.
func ValidFamily(name string) bool {
	for _, f := range Families {
		if f == name {
			return true
		}
	}
	return false
}

// Defaults used when a Config leaves Cadence or MaxPoints zero.
const (
	// DefaultCadence is the sampling interval in simulated time units.
	// At the paper's observation period (1000 units) this yields 40
	// raw samples per run before any downsampling.
	DefaultCadence = 25.0
	// DefaultMaxPoints bounds retained points per series.
	DefaultMaxPoints = 512
)

// minPoints is the floor ClampPoints enforces; below this the
// merge-adjacent reservoir would degrade to uselessness.
const minPoints = 8

// ClampPoints resolves a reservoir bound: n <= 0 selects def, and the
// result is clamped to an even value of at least 8 so the merge-adjacent
// downsampler halves cleanly.
func ClampPoints(n, def int) int {
	if n <= 0 {
		n = def
	}
	if n < minPoints {
		n = minPoints
	}
	return n &^ 1
}

// Reservoir is one named series' bounded merge-adjacent point store —
// the retention scheme behind every probe series and every decision-audit
// learning curve: samples fold into the current stride, each completed
// stride becomes one point (mean value, last timestamp), and when the
// reservoir fills adjacent point pairs merge and the stride doubles.
// Create with NewReservoir; not safe for concurrent use.
type Reservoir struct {
	name, family, unit string

	max    int
	points []Point
	// stride is how many raw samples fold into one retained point; it
	// starts at 1 and doubles every time the reservoir halves.
	stride int
	// accT/accV/accN accumulate the in-progress stride: last sample
	// time, value sum and sample count.
	accT, accV float64
	accN       int
}

// NewReservoir returns an empty reservoir for the named series,
// retaining at most maxPoints points; pass a bound resolved by
// ClampPoints.
func NewReservoir(name, family, unit string, maxPoints int) *Reservoir {
	return &Reservoir{name: name, family: family, unit: unit, max: maxPoints, stride: 1}
}

// Add folds one sample taken at t and reports whether retained history
// was rewritten (the reservoir halved), which callers surface as an
// epoch bump so streaming consumers know to resend.
func (r *Reservoir) Add(t, v float64) bool {
	r.accT, r.accV = t, r.accV+v
	r.accN++
	if r.accN < r.stride {
		return false
	}
	r.points = append(r.points, Point{T: r.accT, V: r.accV / float64(r.accN)})
	r.accT, r.accV, r.accN = 0, 0, 0
	if len(r.points) < r.max {
		return false
	}
	half := len(r.points) / 2
	for i := 0; i < half; i++ {
		a, b := r.points[2*i], r.points[2*i+1]
		r.points[i] = Point{T: b.T, V: (a.V + b.V) / 2}
	}
	r.points = r.points[:half]
	r.stride *= 2
	return true
}

// Series returns a deep copy of the retained points under the series'
// identity. An in-progress stride accumulation is included as a
// provisional trailing point so live consumers see the newest sample
// without waiting a full stride.
func (r *Reservoir) Series() Series {
	pts := make([]Point, len(r.points), len(r.points)+1)
	copy(pts, r.points)
	if r.accN > 0 {
		pts = append(pts, Point{T: r.accT, V: r.accV / float64(r.accN)})
	}
	return Series{Name: r.name, Family: r.family, Unit: r.unit, Points: pts}
}

// Config selects what a Recorder samples and how much it retains.
type Config struct {
	// Cadence is the sim-time interval between samples (0 = default).
	Cadence float64
	// MaxPoints bounds retained points per series (0 = default). It is
	// clamped to an even value of at least 8 so the merge-adjacent
	// downsampler halves cleanly.
	MaxPoints int
	// Series selects the families to record; empty selects all.
	Series []string
}

// withDefaults resolves zero fields and clamps MaxPoints.
func (c Config) withDefaults() Config {
	if c.Cadence <= 0 {
		c.Cadence = DefaultCadence
	}
	c.MaxPoints = ClampPoints(c.MaxPoints, DefaultMaxPoints)
	return c
}

// recSeries is one registered series: its sampling closure and its
// bounded point reservoir.
type recSeries struct {
	*Reservoir
	fn func() float64
}

// Recorder samples registered series on the DES clock. The zero value
// is not usable; call NewRecorder. All methods are safe for concurrent
// use — the engine samples from the event loop while the daemon
// snapshots from HTTP handlers.
type Recorder struct {
	cfg  Config
	want map[string]bool // nil = all families

	mu     sync.Mutex
	series []recSeries
	epoch  uint64
}

// NewRecorder builds a Recorder for the given config. Unknown families
// in cfg.Series are ignored (config validation rejects them upstream).
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults()}
	if len(cfg.Series) > 0 {
		r.want = make(map[string]bool, len(cfg.Series))
		for _, f := range cfg.Series {
			r.want[f] = true
		}
	}
	return r
}

// Enabled reports whether the recorder wants series of this family.
// Engines use it to skip building closures nobody will read.
func (r *Recorder) Enabled(family string) bool {
	if r == nil {
		return false
	}
	return r.want == nil || r.want[family]
}

// Register adds a named series sampled by fn at each cadence tick. It
// is a no-op when the family is not enabled. Registration order is the
// canonical series order in snapshots and exports.
func (r *Recorder) Register(family, name, unit string, fn func() float64) {
	if !r.Enabled(family) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, recSeries{NewReservoir(name, family, unit, r.cfg.MaxPoints), fn})
}

// Start takes an immediate sample and schedules the recurring sampling
// event on sim. The engine stops the simulator when the run completes,
// which retires the recurring event.
func (r *Recorder) Start(sim *des.Simulator) {
	r.SampleNow(sim.Now())
	sim.Every(r.cfg.Cadence, func(s *des.Simulator) {
		r.SampleNow(s.Now())
	})
}

// SampleNow reads every registered series at simulated time t. The
// engine calls it once at run end (in addition to the cadence ticks) so
// the final simulated instant is always represented.
func (r *Recorder) SampleNow(t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.series {
		if s.Add(t, s.fn()) {
			r.epoch++
		}
	}
}

// Snapshot returns a deep copy of every recorded series plus the
// current downsample epoch (captured atomically with the points); see
// Reservoir.Series for the provisional trailing point.
func (r *Recorder) Snapshot() ([]Series, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Series, len(r.series))
	for i, s := range r.series {
		out[i] = s.Series()
	}
	return out, r.epoch
}
