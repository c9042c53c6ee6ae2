package sched

import (
	"fmt"
	"math"
	"sort"

	"rlsched/internal/audit"
	"rlsched/internal/des"
	"rlsched/internal/energy"
	"rlsched/internal/grouping"
	"rlsched/internal/memory"
	"rlsched/internal/metrics"
	"rlsched/internal/platform"
	"rlsched/internal/probe"
	"rlsched/internal/rng"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

// Config holds the engine parameters that the paper leaves unspecified;
// DESIGN.md §2 documents them as chosen-once defaults swept by ablation
// benches.
type Config struct {
	// GroupCloseTimeout is the base deadline for closing a partial merge
	// buffer, so tail tasks are never stranded. Per-class timeouts are
	// this base scaled by TimeoutScale.
	GroupCloseTimeout float64
	// TimeoutScale scales the close timeout per buffer class: indices
	// 0..2 are the identical-priority buffers (low/medium/high), index 3
	// the mixed buffer. Urgent classes close early; patient classes wait
	// to fill (§IV.D.1).
	TimeoutScale [4]float64
	// TickInterval is the decision interval: OnTick cadence and energy
	// sampling period.
	TickInterval float64
	// DisableSplit turns off the split process (§IV.D.2) for ablations.
	DisableSplit bool
	// SpeedAwareDispatch makes idle processors be filled fastest-first so
	// the EDF-first task lands on the fastest available processor. The
	// paper's model dispatches without speed matching (§IV.D.2 observes
	// that execution times "still vary according to the processor" a task
	// happens to run on), so the default is off; enabling it is an
	// engine-level optimisation measured by an ablation bench.
	SpeedAwareDispatch bool
	// MaxEvents guards against scheduling loops (0 = default guard).
	MaxEvents uint64
	// DVFSLazy is an extension beyond the paper (after its DVS references
	// [15][23]): at dispatch, the processor clocks down to the lowest
	// throttle that still meets the task's absolute deadline (with a 10%
	// margin), and returns to full speed afterwards. With a superlinear
	// PowerExponent this trades idle headroom for busy energy. Do not
	// combine with policies that manage throttles themselves (Online-RL).
	DVFSLazy bool
	// FailureMTBF enables failure injection when positive: each processor
	// fails after an exponentially distributed uptime with this mean
	// (§I motivates this: overheating causes freezes and frequent
	// failures). A failed processor draws no power, loses its in-flight
	// task (which the engine re-executes elsewhere), and returns to
	// service after RepairTime.
	FailureMTBF float64
	// RepairTime is the downtime per failure (only used when FailureMTBF
	// is positive).
	RepairTime float64
	// Tracer, when non-nil, receives structured events at every
	// scheduling decision point. It is runtime-only state and is not
	// serialised by the config package.
	Tracer trace.Tracer `json:"-"`
	// Stats, when non-nil, receives the run's RunStats (atomically, once,
	// at the end of Run), so concurrent runs of one campaign aggregate
	// into a single job-level tally. Runtime-only, like Tracer. The
	// engine's own per-run counters are always collected — they are plain
	// single-threaded increments — and returned in Result.Stats.
	Stats *Stats `json:"-"`
	// Probe, when non-nil, records simulation-domain time series (queue
	// depths, power draw, learning signals) at a sim-time cadence.
	// Runtime-only, like Tracer: a nil Probe costs nothing, and sampling
	// never changes simulation outcomes — only the DES event count.
	Probe *probe.Recorder `json:"-"`
	// Audit, when non-nil, records scheduling decisions (state, action,
	// explore-vs-exploit kind, candidate scores, reward feedback) into a
	// bounded reservoir. Runtime-only, like Probe, and stricter still:
	// the recorder draws no randomness and schedules no events, so an
	// audited run is byte-identical to an unaudited one — Events
	// included — and a nil Audit costs one branch per decision site.
	Audit *audit.Recorder `json:"-"`
	// LowMemory switches the run to streaming observation so memory stays
	// O(active tasks + aggregate statistics) regardless of workload length:
	// the collector retains no task or group records (Collector.Tasks/
	// Groups return nothing, RTPercentile becomes approximate) and only a
	// strided cycle series, and learning-cycle utilisation bookkeeping is
	// O(1) per cycle instead of O(processors+nodes). Required for
	// multi-million-task scale runs; leave off to keep full per-task
	// records and byte-identical historical results.
	LowMemory bool
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		GroupCloseTimeout: 10,
		TimeoutScale:      [4]float64{4, 2, 0.5, 1}, // low, medium, high, mixed
		TickInterval:      25,
	}
}

// Validate checks the engine configuration.
func (c Config) Validate() error {
	if c.GroupCloseTimeout <= 0 {
		return fmt.Errorf("sched: GroupCloseTimeout must be positive, got %g", c.GroupCloseTimeout)
	}
	for i, s := range c.TimeoutScale {
		if s <= 0 {
			return fmt.Errorf("sched: TimeoutScale[%d] must be positive, got %g", i, s)
		}
	}
	if c.TickInterval <= 0 {
		return fmt.Errorf("sched: TickInterval must be positive, got %g", c.TickInterval)
	}
	if c.FailureMTBF < 0 {
		return fmt.Errorf("sched: FailureMTBF must be non-negative, got %g", c.FailureMTBF)
	}
	if c.FailureMTBF > 0 && c.RepairTime <= 0 {
		return fmt.Errorf("sched: RepairTime must be positive when failures are enabled, got %g", c.RepairTime)
	}
	return nil
}

// Result summarises one simulation run.
type Result struct {
	// Policy is the policy name.
	Policy string
	// Submitted and Completed count tasks; a correct run completes all.
	Submitted, Completed int
	// DeadlineHits is Σ δ_i (Eq. 8) over all groups.
	DeadlineHits int
	// AveRT is Eq. 4 in time units; MeanWait is its queueing component.
	AveRT, MeanWait float64
	// ECS is total energy consumption Σ_c E_c in watt·time-units.
	ECS float64
	// SuccessRate is rew_val / N.
	SuccessRate float64
	// MeanUtilization is the busy fraction over the whole run.
	MeanUtilization float64
	// EndTime is when the last task completed.
	EndTime float64
	// UtilWindows is the Figures 9/10 series: utilisation within each
	// decile of learning cycles.
	UtilWindows []float64
	// UtilCumulative is the cumulative variant of the same series.
	UtilCumulative []float64
	// MeanGroupSize reports how the adaptive opnum settled.
	MeanGroupSize float64
	// MeanGroupLVal is the average learning value of completed groups.
	MeanGroupLVal float64
	// Heterogeneity is the platform's realised service CV.
	Heterogeneity float64
	// Failures and Restarts count injected processor failures and the
	// task executions they aborted (each restarted elsewhere).
	Failures, Restarts int
	// Stats carries the engine's per-run instrumentation counters.
	Stats RunStats
	// Efficiency bundles derived energy indicators.
	Efficiency energy.Efficiency

	// Collector retains per-task/group records for detailed analysis.
	Collector *metrics.Collector
}

// Engine wires a platform, a workload and a policy into a discrete-event
// simulation run. Tasks are pulled lazily from a workload.Source as the
// simulation clock reaches them, so the engine never holds the whole
// workload: a finished task is unreachable once its group's feedback is
// delivered, and memory stays proportional to the active set.
type Engine struct {
	cfg    Config
	sim    *des.Simulator
	pl     *platform.Platform
	policy Policy
	src    workload.Source

	agents   []*Agent
	mem      *memory.Shared
	col      *metrics.Collector
	ctx      *Context
	maxOpnum int

	queues     [][]*grouping.Group // by node ID
	accts      []nodeAcct          // by node ID
	retries    [][]retryEntry      // by node ID: aborted executions awaiting re-dispatch
	groupAgent map[int]*Agent      // open groups only; entries are deleted on completion
	running    []runningTask       // by processor ID; an entry is live while task != nil

	// Per-decision scratch reused across scheduling events so the hot path
	// stays allocation-free: candBuf backs the candidate slice handed to
	// PlaceGroup, idleBuf the dispatch order, procPower the per-node
	// NodeInfo power vectors, and candMark/candGen the O(1) candidate
	// membership index (a node is a current candidate iff its mark equals
	// the generation of the latest freeCandidates call).
	candBuf   []NodeInfo
	idleBuf   []*platform.Processor
	procPower [][]float64
	candMark  []uint64
	candGen   uint64

	rngRoute    *rng.Stream
	rngFail     *rng.Stream
	siteWeights []float64
	// sitePrefix holds cumulative site weights when the platform has more
	// than routeScanMax sites: arrival routing then draws one uniform (the
	// same stream consumption as WeightedChoice) and binary-searches in
	// O(log sites) instead of scanning. Small platforms keep the linear
	// scan so historical results stay float-for-float identical.
	sitePrefix []float64
	siteTotal  float64

	// lite, when non-nil (LowMemory), maintains the recordCycle integrals
	// incrementally so a learning cycle costs O(1).
	lite *liteUtil

	nextGroupID int
	submitted   int
	srcDone     bool
	completed   int
	failures    int
	restarts    int
	arrivalsEnd float64

	// Per-run instrumentation tallies (see RunStats). Plain fields on the
	// single-threaded event loop: incrementing them allocates nothing.
	statTasks, statGroups, statSplits, statBacklogged uint64
	// statGroupTasks sums the sizes of placed groups so probes can report
	// the running mean group size in O(1) per sample.
	statGroupTasks uint64
}

// routeScanMax is the site count up to which arrival routing keeps the
// historical linear WeightedChoice scan. Beyond it the engine switches to
// a prefix-sum binary search — same stream consumption, same
// distribution, O(log sites) per arrival — which large-scale platforms
// need but whose float comparisons are not bit-identical to the scan.
const routeScanMax = 64

// New builds an engine over a materialised workload. The platform must
// validate; the workload must be non-empty and in arrival order; r seeds
// the engine's internal streams (routing, policy exploration). It is a
// thin adapter over NewFromSource.
func New(cfg Config, pl *platform.Platform, tasks []*workload.Task, policy Policy, r *rng.Stream) (*Engine, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sched: empty workload")
	}
	for i := 1; i < len(tasks); i++ {
		if tasks[i].ArrivalTime < tasks[i-1].ArrivalTime {
			return nil, fmt.Errorf("sched: workload not in arrival order at index %d", i)
		}
	}
	e, err := NewFromSource(cfg, pl, workload.FromSlice(tasks), policy, r)
	if err != nil {
		return nil, err
	}
	// The task count is known here, so the event-loop guard can start at
	// its final value (NewFromSource grows it as tasks stream in).
	if cfg.MaxEvents == 0 {
		e.sim.MaxEvents = uint64(len(tasks))*1000 + 1_000_000
	}
	return e, nil
}

// NewFromSource builds an engine that pulls tasks lazily from a
// streaming source, holding O(active tasks) memory regardless of how
// many tasks the source will yield. The source must yield tasks in
// non-decreasing arrival order (checked as they stream; a violation
// surfaces as an *InvariantError from Run). An empty source is also
// reported by Run, since it cannot be detected without consuming.
func NewFromSource(cfg Config, pl *platform.Platform, src workload.Source, policy Policy, r *rng.Stream) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		sim:        des.New(),
		pl:         pl,
		policy:     policy,
		src:        src,
		mem:        memory.NewShared(),
		maxOpnum:   pl.MaxProcsPerNode(),
		groupAgent: make(map[int]*Agent),
		rngRoute:   r.Split("route"),
		rngFail:    r.Split("failures"),
	}
	if cfg.LowMemory {
		e.col = metrics.NewStreamingCollector(pl.NumProcessors())
		e.lite = &liteUtil{}
	} else {
		e.col = metrics.NewCollector(pl.NumProcessors())
	}
	maxProcID := 0
	for _, p := range pl.Processors() {
		if p.ID > maxProcID {
			maxProcID = p.ID
		}
	}
	e.running = make([]runningTask, maxProcID+1)
	e.queues = make([][]*grouping.Group, pl.NumNodes())
	e.accts = make([]nodeAcct, pl.NumNodes())
	e.retries = make([][]retryEntry, pl.NumNodes())
	e.procPower = make([][]float64, pl.NumNodes())
	e.candMark = make([]uint64, pl.NumNodes())
	for _, n := range pl.Nodes() {
		e.procPower[n.ID] = make([]float64, len(n.Processors))
	}
	for _, site := range pl.Sites {
		ag := &Agent{ID: site.ID, Site: site}
		ag.Merger = grouping.NewMerger(grouping.ModeMixed, e.nextGroup)
		e.agents = append(e.agents, ag)
	}
	// Arrivals are routed to sites proportionally to their aggregate
	// processing speed: the front-end dispatcher of a PDCS knows each
	// site's advertised capacity (static), while balancing WITHIN a site
	// is the agents' job. Uniform routing would swamp slow sites as the
	// heterogeneity sweep of Experiment 3 widens capacity spreads.
	e.siteWeights = make([]float64, len(e.agents))
	for i, ag := range e.agents {
		for _, n := range ag.Site.Nodes {
			e.siteWeights[i] += n.TotalSpeed()
		}
	}
	if len(e.siteWeights) > routeScanMax {
		e.sitePrefix = make([]float64, len(e.siteWeights))
		sum := 0.0
		for i, w := range e.siteWeights {
			sum += w
			e.sitePrefix[i] = sum
		}
		e.siteTotal = sum
	}
	e.ctx = &Context{engine: e, Rand: r.Split("policy"), Memory: e.mem, Audit: cfg.Audit}
	// Guard against scheduling loops: a generous bound relative to the
	// tasks streamed in so far, raised as arrivals are pulled (New starts
	// it at its final value when the count is known up front).
	e.sim.MaxEvents = cfg.MaxEvents
	if e.sim.MaxEvents == 0 {
		e.sim.MaxEvents = 1_000_000
	}
	return e, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, pl *platform.Platform, tasks []*workload.Task, policy Policy, r *rng.Stream) *Engine {
	e, err := New(cfg, pl, tasks, policy, r)
	if err != nil {
		panic(err)
	}
	return e
}

// tracing reports whether events at level are being collected. Hot-path
// emit calls are guarded by it so the variadic field slice (and the
// interface boxing inside trace.F) is never built when tracing is off —
// with a nil Tracer a scheduling event pays only this nil check.
func (e *Engine) tracing(level trace.Level) bool {
	t := e.cfg.Tracer
	return t != nil && t.Enabled(level)
}

// emit sends a trace event when tracing is enabled.
func (e *Engine) emit(level trace.Level, kind string, fields ...trace.Field) {
	t := e.cfg.Tracer
	if t == nil || !t.Enabled(level) {
		return
	}
	t.Emit(trace.Event{At: e.sim.Now(), Level: level, Kind: kind, Fields: fields})
}

func (e *Engine) nextGroup() int {
	id := e.nextGroupID
	e.nextGroupID++
	return id
}

// Agents returns the engine's agents.
func (e *Engine) Agents() []*Agent { return e.agents }

// Memory returns the shared learning memory.
func (e *Engine) Memory() *memory.Shared { return e.mem }

// Run executes the simulation to completion and returns the summary.
// A violated run invariant — an engine or policy bug, detected mid-run or
// by the run-end flush — is returned as an *InvariantError rather than
// crashing the caller; any other panic propagates unchanged.
func (e *Engine) Run() (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(*InvariantError)
			if !ok {
				panic(r)
			}
			res, err = Result{}, ie
		}
	}()
	e.policy.Init(e.ctx)
	e.scheduleNextArrival()
	if e.srcDone && e.submitted == 0 {
		return Result{}, fmt.Errorf("sched: empty workload")
	}
	e.sim.AfterFunc(e.cfg.GroupCloseTimeout/2, e.houseKeep)
	e.sim.AfterFunc(e.cfg.TickInterval, e.tick)
	if e.cfg.FailureMTBF > 0 {
		for _, n := range e.pl.Nodes() {
			for _, p := range n.Processors {
				e.scheduleFailure(n, p)
			}
		}
	}
	if e.cfg.Probe != nil {
		e.attachProbes()
	}
	e.sim.Run()
	if !e.done() {
		return Result{}, &InvariantError{Policy: e.policy.Name(),
			Msg: fmt.Sprintf("run ended with %d/%d tasks completed", e.completed, e.submitted)}
	}
	return e.buildResult(), nil
}

// scheduleNextArrival pulls the next task from the source and schedules
// its arrival event. Exactly one arrival is in flight at any instant —
// the chain re-arms itself when the event fires — so pending arrivals
// never accumulate in the event queue no matter how long the source is.
func (e *Engine) scheduleNextArrival() {
	t, ok := e.src.Next()
	if !ok {
		e.srcDone = true
		return
	}
	if e.submitted > 0 && t.ArrivalTime < e.arrivalsEnd {
		e.invariantf("workload not in arrival order: task %d at %g after %g",
			t.ID, t.ArrivalTime, e.arrivalsEnd)
	}
	e.submitted++
	e.arrivalsEnd = t.ArrivalTime
	// Keep the runaway guard proportional to the streamed task count.
	if b := uint64(e.submitted)*1000 + 1_000_000; e.cfg.MaxEvents == 0 && b > e.sim.MaxEvents {
		e.sim.MaxEvents = b
	}
	e.sim.AtFunc(t.ArrivalTime, func(*des.Simulator) {
		e.scheduleNextArrival()
		e.onArrival(t)
	})
}

// MustRun is Run that panics on an invariant error, for callers (tests,
// examples) where a violated invariant is fatal anyway.
func (e *Engine) MustRun() Result {
	res, err := e.Run()
	if err != nil {
		panic(err)
	}
	return res
}

func (e *Engine) buildResult() Result {
	end := e.sim.Now()
	e.pl.AdvanceAll(end)
	res := Result{
		Policy:          e.policy.Name(),
		Submitted:       e.submitted,
		Completed:       e.completed,
		DeadlineHits:    e.col.DeadlineHits(),
		AveRT:           e.col.AveRT(),
		MeanWait:        e.col.MeanWait(),
		ECS:             e.pl.TotalEnergy(),
		SuccessRate:     e.col.SuccessRate(e.submitted),
		MeanUtilization: e.pl.MeanUtilization(),
		EndTime:         end,
		UtilWindows:     e.col.UtilizationByCycleFraction(10),
		UtilCumulative:  e.col.CumulativeUtilizationByCycleFraction(10),
		MeanGroupSize:   e.col.MeanGroupSize(),
		MeanGroupLVal:   e.col.MeanGroupLVal(),
		Heterogeneity:   e.pl.Heterogeneity(),
		Failures:        e.failures,
		Restarts:        e.restarts,
		Efficiency:      energy.ComputeEfficiency(e.pl, end, e.completed),
		Collector:       e.col,
		Stats: RunStats{
			Events:          e.sim.Fired(),
			TasksScheduled:  e.statTasks,
			GroupsPlaced:    e.statGroups,
			Splits:          e.statSplits,
			Backlogged:      e.statBacklogged,
			HeapHighWater:   uint64(e.sim.HeapHighWater()),
			MemoryLookups:   e.mem.Lookups(),
			MemoryHits:      e.mem.Hits(),
			MemoryEvictions: e.mem.Evictions(),
			MemoryOccupancy: e.mem.Occupancy(),
		},
	}
	if d, ok := e.cfg.Tracer.(interface{ Dropped() int }); ok {
		res.Stats.TimelineDrops = uint64(d.Dropped())
	}
	if e.cfg.Probe != nil {
		e.cfg.Probe.SampleNow(end)
	}
	e.cfg.Stats.add(res.Stats)
	return res
}

// attachProbes registers the engine's simulation-domain series on the
// configured probe recorder and starts its sampling event. Every closure
// is strictly read-only — energy uses the TotalEnergyAt projection
// rather than AdvanceAll, so even the float rounding of the energy
// integral is untouched — and probed runs produce byte-identical
// results to unprobed ones.
func (e *Engine) attachProbes() {
	rec := e.cfg.Probe
	if len(e.agents) > routeScanMax {
		// Thousands of per-site series would dwarf the data they describe;
		// large platforms get platform-wide aggregates instead.
		rec.Register(probe.FamilyQueue, "sites.queue_depth", "groups", func() float64 {
			n := 0
			for _, q := range e.queues {
				n += len(q)
			}
			return float64(n)
		})
		rec.Register(probe.FamilyQueue, "sites.backlog", "groups", func() float64 {
			n := 0
			for _, ag := range e.agents {
				n += ag.BacklogLen()
			}
			return float64(n)
		})
		rec.Register(probe.FamilyUtil, "sites.utilization", "fraction", func() float64 {
			busy, total := 0, 0
			for _, p := range e.pl.Processors() {
				total++
				if p.State() == platform.StateBusy {
					busy++
				}
			}
			if total == 0 {
				return 0
			}
			return float64(busy) / float64(total)
		})
		e.attachGlobalProbes(rec)
		return
	}
	for _, ag := range e.agents {
		ag := ag
		site := ag.Site
		rec.Register(probe.FamilyQueue, fmt.Sprintf("site%d.queue_depth", site.ID), "groups", func() float64 {
			n := 0
			for _, nd := range site.Nodes {
				n += len(e.queues[nd.ID])
			}
			return float64(n)
		})
		rec.Register(probe.FamilyQueue, fmt.Sprintf("site%d.backlog", site.ID), "groups", func() float64 {
			return float64(ag.BacklogLen())
		})
		rec.Register(probe.FamilyUtil, fmt.Sprintf("site%d.utilization", site.ID), "fraction", func() float64 {
			busy, total := 0, 0
			for _, nd := range site.Nodes {
				for _, p := range nd.Processors {
					total++
					if p.State() == platform.StateBusy {
						busy++
					}
				}
			}
			if total == 0 {
				return 0
			}
			return float64(busy) / float64(total)
		})
	}
	e.attachGlobalProbes(rec)
}

// attachGlobalProbes registers the platform-wide series shared by both
// probe layouts and starts the recorder's sampling event.
func (e *Engine) attachGlobalProbes(rec *probe.Recorder) {
	rec.Register(probe.FamilyPower, "power.draw", "W", func() float64 {
		w := 0.0
		for _, p := range e.pl.Processors() {
			w += p.InstantPower()
		}
		return w
	})
	rec.Register(probe.FamilyEnergy, "energy.total", "W·t", func() float64 {
		return e.pl.TotalEnergyAt(e.sim.Now())
	})
	rec.Register(probe.FamilyRL, "rl.reward", "reward", e.mem.MeanReward)
	rec.Register(probe.FamilyRL, "rl.error", "err_tg", e.mem.MeanError)
	rec.Register(probe.FamilyRL, "rl.hit_rate", "fraction", e.mem.HitRate)
	rec.Register(probe.FamilyGroup, "group.mean_size", "tasks", func() float64 {
		if e.statGroups == 0 {
			return 0
		}
		return float64(e.statGroupTasks) / float64(e.statGroups)
	})
	rec.Start(e.sim)
}

// routeSite draws the destination site for an arrival, proportionally to
// site capacity. Platforms over routeScanMax sites use the prefix-sum
// binary search; both branches consume exactly one uniform draw from the
// routing stream.
func (e *Engine) routeSite() *Agent {
	if e.sitePrefix == nil {
		return e.agents[e.rngRoute.WeightedChoice(e.siteWeights)]
	}
	x := e.rngRoute.Float64() * e.siteTotal
	i := sort.Search(len(e.sitePrefix), func(k int) bool { return e.sitePrefix[k] > x })
	if i >= len(e.agents) {
		i = len(e.agents) - 1
	}
	return e.agents[i]
}

// onArrival routes a task to a site agent and merges it.
func (e *Engine) onArrival(t *workload.Task) {
	ag := e.routeSite()
	if e.tracing(trace.LevelDebug) {
		e.emit(trace.LevelDebug, "arrival", trace.F("task", t.ID), trace.F("agent", ag.ID), trace.F("prio", t.Priority.String()))
	}
	action := e.ctx.validateAction(e.policy.ChooseAction(e.ctx, ag, t))
	if e.cfg.Audit != nil {
		// The policy may have annotated its choice through the context;
		// an empty note records as a plain "policy" decision, so every
		// policy is audited uniformly.
		note := e.ctx.takeAuditNote()
		note.HitRate = e.mem.HitRate()
		e.cfg.Audit.Decision(e.sim.Now(), ag.ID,
			memory.Action{Opnum: action.Opnum, Mode: action.Mode}, note)
	}
	ag.Merger.SetMode(action.Mode)
	if g := ag.Merger.Add(t, action.Opnum, e.sim.Now()); g != nil {
		e.place(ag, g)
	}
}

// houseKeep flushes stale merge buffers and reschedules itself while the
// run is live.
func (e *Engine) houseKeep(*des.Simulator) {
	now := e.sim.Now()
	var timeouts [4]float64
	for i, s := range e.cfg.TimeoutScale {
		timeouts[i] = e.cfg.GroupCloseTimeout * s
	}
	for _, ag := range e.agents {
		for _, g := range ag.Merger.FlushExpired(now, timeouts) {
			e.place(ag, g)
		}
	}
	if !e.done() {
		e.sim.AfterFunc(e.cfg.GroupCloseTimeout/4, e.houseKeep)
	}
}

// tick folds energy up to now and runs the policy's decision interval.
// The AdvanceAll splits the energy integrals at every tick, which fixes
// the float rounding of ECS.
func (e *Engine) tick(*des.Simulator) {
	e.pl.AdvanceAll(e.sim.Now())
	e.policy.OnTick(e.ctx)
	if !e.done() {
		e.sim.AfterFunc(e.cfg.TickInterval, e.tick)
	}
}

// done reports run completion: the source is drained and every streamed
// task finished. A task pulled but not yet arrived cannot have finished,
// so this never trips early while an arrival is still in flight.
func (e *Engine) done() bool { return e.srcDone && e.completed == e.submitted }

// runningTask records an in-flight execution so node views can report the
// remaining in-flight work exactly and failures can abort it.
type runningTask struct {
	finishAt float64
	speed    float64
	handle   des.Handle
	task     *workload.Task
	group    *grouping.Group
}

// retryEntry is an execution aborted by a processor failure, awaiting
// re-dispatch on the same node. The group's dispatch counter already
// accounts for the task, so a retry start must not advance it again.
type retryEntry struct {
	task  *workload.Task
	group *grouping.Group
}

// nodeAcct tracks a node's engaged-utilisation integrals: while the node
// has work (running or queued undispatched tasks), capDemand integrates
// its processor-time and busyDemand the busy share of it. Their ratio is
// the "utilisation rate" of Figures 9/10 — how well the scheduler keeps
// the processors of engaged nodes busy — which, unlike the raw busy
// fraction, is meaningful at light load as well.
type nodeAcct struct {
	lastT        float64
	busy         int
	undispatched int
	busyDemand   float64
	capDemand    float64
}

// touchAcct folds elapsed time into a node's engaged-utilisation account.
func (e *Engine) touchAcct(node *platform.Node) *nodeAcct {
	a := &e.accts[node.ID]
	now := e.sim.Now()
	dt := now - a.lastT
	if dt > 0 {
		if a.busy > 0 || a.undispatched > 0 {
			a.capDemand += float64(node.NumProcessors()) * dt
			a.busyDemand += float64(a.busy) * dt
		}
		a.lastT = now
	} else {
		a.lastT = now
	}
	return a
}

// acctDelta applies a busy/undispatched change to a node's account. In
// low-memory mode it also folds the node's engagement transition into the
// global O(1) integrals that replace the per-node recordCycle sweep.
func (e *Engine) acctDelta(node *platform.Node, dBusy, dUndisp int) {
	a := e.touchAcct(node)
	if e.lite == nil {
		a.busy += dBusy
		a.undispatched += dUndisp
		return
	}
	e.lite.advance(e.sim.Now())
	if a.busy+a.undispatched > 0 {
		e.lite.busyEngaged -= a.busy
		e.lite.engagedCap -= node.NumProcessors()
	}
	a.busy += dBusy
	a.undispatched += dUndisp
	if a.busy+a.undispatched > 0 {
		e.lite.busyEngaged += a.busy
		e.lite.engagedCap += node.NumProcessors()
	}
}

// liteUtil is the low-memory replacement for the recordCycle node
// sweep: the same two cumulative integrals (the engaged-node
// busy/capacity demands behind the Figures 9/10 utilisation rate),
// maintained incrementally at every dispatch transition so reading them
// at a cycle boundary is O(1).
type liteUtil struct {
	lastT float64
	// busyEngaged and engagedCap are the busy and total processor counts
	// summed over engaged nodes (those with running or queued work).
	busyEngaged int
	engagedCap  int
	busyDemand  float64
	capDemand   float64
}

// advance folds the elapsed interval into the integrals.
func (u *liteUtil) advance(now float64) {
	if dt := now - u.lastT; dt > 0 {
		u.busyDemand += float64(u.busyEngaged) * dt
		u.capDemand += float64(u.engagedCap) * dt
	}
	u.lastT = now
}

// queuedWeight sums Eq. 10 processing weights over a node's queued groups.
func (e *Engine) queuedWeight(n *platform.Node) float64 {
	sum := 0.0
	for _, g := range e.queues[n.ID] {
		sum += g.PW()
	}
	return sum
}

// nodeInfo builds the policy-visible state of a node. The returned view's
// ProcPower aliases an engine-owned per-node buffer that is refreshed on
// the next view of the same node, so views must not be retained across
// scheduling events (see the NodeInfo contract in policy.go).
func (e *Engine) nodeInfo(n *platform.Node) NodeInfo {
	q := e.queues[n.ID]
	ni := NodeInfo{
		Node:         n,
		QueuedGroups: len(q),
		FreeSlots:    n.QueueCap - len(q),
		QueuedWeight: e.queuedWeight(n),
		ProcPower:    e.procPower[n.ID],
	}
	for _, g := range q {
		for _, t := range g.Tasks[g.Dispatched():] {
			ni.QueuedWork += t.SizeMI
		}
	}
	now := e.sim.Now()
	for i, p := range n.Processors {
		if rt := &e.running[p.ID]; rt.task != nil && rt.finishAt > now {
			ni.InflightWork += (rt.finishAt - now) * rt.speed
		}
		switch p.State() {
		case platform.StateBusy:
			ni.ProcPower[i] = p.InstantPower()
		case platform.StateSleep:
			ni.ProcPower[i] = p.PSleepW
			ni.SleepProcs++
		case platform.StateWaking:
			ni.ProcPower[i] = p.PMaxW
		case platform.StateFailed:
			ni.ProcPower[i] = 0
		default:
			ni.ProcPower[i] = p.PMinW
			ni.IdleProcs++
		}
	}
	return ni
}

// place assigns a closed group to a node, or backlogs it when the site has
// no free queue slot.
func (e *Engine) place(ag *Agent, g *grouping.Group) {
	candidates := e.freeCandidates(ag)
	if len(candidates) == 0 {
		if e.tracing(trace.LevelInfo) {
			e.emit(trace.LevelInfo, "backlog", trace.F("group", g.ID), trace.F("agent", ag.ID))
		}
		ag.backlog = append(ag.backlog, g)
		e.statBacklogged++
		return
	}
	node := e.policy.PlaceGroup(e.ctx, ag, g, candidates)
	if !e.isCandidate(node) {
		node = e.leastLoaded(candidates)
	}
	e.enqueue(ag, g, node)
}

// freeCandidates lists the agent's nodes with a free queue slot. The
// returned slice is engine-owned scratch, valid until the next call; each
// listed node is stamped with the current candidate generation so
// membership checks are O(1).
func (e *Engine) freeCandidates(ag *Agent) []NodeInfo {
	out := e.candBuf[:0]
	e.candGen++
	for _, n := range ag.Site.Nodes {
		if n.QueueCap-len(e.queues[n.ID]) > 0 {
			out = append(out, e.nodeInfo(n))
			e.candMark[n.ID] = e.candGen
		}
	}
	e.candBuf = out
	return out
}

// isCandidate reports whether n was offered by the latest freeCandidates
// call, via the generation stamp rather than a scan (policies may return
// arbitrary nodes, including ones the engine never generated).
func (e *Engine) isCandidate(n *platform.Node) bool {
	return n != nil && n.ID >= 0 && n.ID < len(e.candMark) && e.candMark[n.ID] == e.candGen
}

// leastLoaded returns the candidate with the smallest queued weight,
// breaking ties by larger capacity then node ID for determinism.
func (e *Engine) leastLoaded(candidates []NodeInfo) *platform.Node {
	best := candidates[0]
	for _, c := range candidates[1:] {
		switch {
		case c.QueuedWeight < best.QueuedWeight:
			best = c
		case c.QueuedWeight == best.QueuedWeight && c.Node.Capacity() > best.Node.Capacity():
			best = c
		}
	}
	return best.Node
}

// enqueue commits the placement: records err_tg (Eq. 9), notifies the
// policy and starts dispatch.
func (e *Engine) enqueue(ag *Agent, g *grouping.Group, node *platform.Node) {
	if len(e.queues[node.ID]) >= node.QueueCap {
		e.invariantf("enqueue on full node %d", node.ID)
	}
	now := e.sim.Now()
	e.statGroups++
	e.statGroupTasks += uint64(g.Len())
	g.NodeID = node.ID
	g.EnqueuedAt = now
	g.ErrTG = grouping.ErrTGFor(g.PW(), node.Capacity())
	e.acctDelta(node, 0, g.Len())
	e.queues[node.ID] = append(e.queues[node.ID], g)
	e.groupAgent[g.ID] = ag
	if e.tracing(trace.LevelInfo) {
		e.emit(trace.LevelInfo, "enqueue",
			trace.F("group", g.ID), trace.F("node", node.ID), trace.F("size", g.Len()), trace.F("errtg", g.ErrTG))
	}
	e.policy.OnAssigned(e.ctx, ag, g, node)
	if e.cfg.Audit != nil {
		e.cfg.Audit.Assigned(ag.ID, g.ID)
	}
	e.tryDispatch(node)
}

// tryDispatch feeds idle processors of a node from its queue: the head
// group first, then — when the head is fully dispatched and splitting is
// enabled — tasks pulled forward from later groups (§IV.D.2).
func (e *Engine) tryDispatch(node *platform.Node) {
	q := e.queues[node.ID]
	if len(q) == 0 {
		return
	}
	demand := e.dispatchDemand(node)
	if demand == 0 {
		return
	}
	for _, proc := range e.idleProcs(node) {
		// Aborted executions restart first: their groups hold queue slots
		// and their deadlines have been running the longest.
		if rl := e.retries[node.ID]; len(rl) > 0 {
			e.retries[node.ID] = rl[1:]
			e.startTask(node, proc, rl[0].group, rl[0].task, true)
			continue
		}
		task, g := e.nextDispatchable(node)
		if task == nil {
			break
		}
		e.startTask(node, proc, g, task, false)
	}
	// If demand remains but every available processor is asleep, wake as
	// many sleepers as needed (the engine's auto-wake keeps baseline
	// policies deadlock-free; the wake latency is their learning signal).
	remaining := e.dispatchDemand(node)
	if remaining > 0 {
		for _, p := range node.Processors {
			if remaining == 0 {
				break
			}
			if p.State() == platform.StateSleep {
				e.wake(node, p)
				remaining--
			}
		}
	}
}

// dispatchDemand counts the tasks currently eligible to start on the node.
func (e *Engine) dispatchDemand(node *platform.Node) int {
	demand := len(e.retries[node.ID])
	q := e.queues[node.ID]
	if len(q) == 0 {
		return demand
	}
	demand += len(q[0].Tasks) - q[0].Dispatched()
	if !e.cfg.DisableSplit && len(q) > 1 {
		// §IV.D.2: the split process pulls tasks from the NEXT waiting
		// group only, once the head group is fully dispatched.
		demand += len(q[1].Tasks) - q[1].Dispatched()
	}
	return demand
}

// nextDispatchable returns the next task to start: head group in EDF
// order; with split enabled, later groups feed in once the head is fully
// dispatched.
func (e *Engine) nextDispatchable(node *platform.Node) (*workload.Task, *grouping.Group) {
	q := e.queues[node.ID]
	if len(q) == 0 {
		return nil, nil
	}
	if t := q[0].NextUndispatched(); t != nil {
		return t, q[0]
	}
	if e.cfg.DisableSplit || len(q) < 2 {
		return nil, nil
	}
	if t := q[1].NextUndispatched(); t != nil {
		e.statSplits++
		return t, q[1]
	}
	return nil, nil
}

// idleProcs lists awake idle processors — in index order by default, or
// fastest-first when SpeedAwareDispatch is enabled. The returned slice is
// engine-owned scratch, valid until the next call.
func (e *Engine) idleProcs(node *platform.Node) []*platform.Processor {
	out := e.idleBuf[:0]
	for _, p := range node.Processors {
		if p.State() == platform.StateIdle {
			out = append(out, p)
		}
	}
	e.idleBuf = out
	if e.cfg.SpeedAwareDispatch {
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j].EffectiveSpeed() > out[j-1].EffectiveSpeed(); j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	return out
}

// startTask begins executing a task on a processor. retry marks the
// re-execution of an aborted run, whose group dispatch counter was already
// advanced.
func (e *Engine) startTask(node *platform.Node, proc *platform.Processor, g *grouping.Group, task *workload.Task, retry bool) {
	now := e.sim.Now()
	e.statTasks++
	e.acctDelta(node, 1, -1)
	if e.cfg.DVFSLazy {
		proc.SetThrottle(e.lazyThrottle(proc, task, now), now)
	}
	proc.SetState(platform.StateBusy, now)
	if !retry {
		g.NoteDispatched()
	}
	if e.tracing(trace.LevelDebug) {
		e.emit(trace.LevelDebug, "dispatch",
			trace.F("task", task.ID), trace.F("group", g.ID), trace.F("proc", proc.ID), trace.F("retry", retry))
	}
	task.StartTime = now
	speed := proc.EffectiveSpeed()
	task.ProcessorSpeed = speed
	et := task.SizeMI / speed
	handle := e.sim.AfterFunc(et, func(*des.Simulator) { e.finishTask(node, proc, g, task) })
	e.running[proc.ID] = runningTask{finishAt: now + et, speed: speed, handle: handle, task: task, group: g}
}

// lazyThrottle returns the lowest throttle that finishes the task by its
// absolute deadline with a 10% margin (full speed when the deadline is
// already at risk).
func (e *Engine) lazyThrottle(proc *platform.Processor, task *workload.Task, now float64) float64 {
	window := (task.AbsoluteDeadline() - now) * 0.9
	if window <= 0 {
		return 1
	}
	needed := task.SizeMI / window / proc.SpeedMIPS
	if needed >= 1 {
		return 1
	}
	return needed // SetThrottle clamps to MinThrottle
}

// finishTask completes a task execution.
func (e *Engine) finishTask(node *platform.Node, proc *platform.Processor, g *grouping.Group, task *workload.Task) {
	now := e.sim.Now()
	e.running[proc.ID] = runningTask{}
	e.acctDelta(node, -1, 0)
	task.FinishTime = now
	proc.NoteTaskRun()
	if e.cfg.DVFSLazy {
		proc.SetThrottle(1, now)
	}
	proc.SetState(platform.StateIdle, now)
	met := task.MetDeadline()
	e.col.RecordTask(metrics.TaskRecord{
		ID:           task.ID,
		Priority:     task.Priority,
		ResponseTime: task.ResponseTime(),
		WaitTime:     task.StartTime - task.ArrivalTime,
		MetDeadline:  met,
		FinishedAt:   now,
	})
	if e.tracing(trace.LevelDebug) {
		e.emit(trace.LevelDebug, "finish",
			trace.F("task", task.ID), trace.F("proc", proc.ID), trace.F("met", met))
	}
	e.completed++
	if g.NoteFinished(met) {
		e.completeGroup(g, node)
	}
	// Re-dispatch first so the freed processor is reused before the policy
	// considers sleeping it.
	e.tryDispatch(node)
	if proc.State() == platform.StateIdle {
		e.policy.OnProcessorIdle(e.ctx, proc)
	}
	if e.done() {
		e.finalFlush()
		// Halt the event loop: pending housekeeping/tick/failure events
		// would otherwise drain and advance the clock (and thus the idle
		// energy integral) past the completion instant.
		e.sim.Stop()
	}
}

// completeGroup removes the group from its queue, records the learning
// cycle and delivers the reward feedback.
func (e *Engine) completeGroup(g *grouping.Group, node *platform.Node) {
	q := e.queues[node.ID]
	removed := false
	for i, qg := range q {
		if qg == g {
			e.queues[node.ID] = append(q[:i], q[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		e.invariantf("completed group %d not found in node %d queue", g.ID, node.ID)
	}
	now := e.sim.Now()
	ag := e.groupAgent[g.ID]
	delete(e.groupAgent, g.ID) // retire the entry: the map tracks open groups only
	exp := memory.Experience{Reward: float64(g.Reward()), Error: g.ErrTG}
	e.col.RecordGroup(metrics.GroupRecord{
		GroupID:     g.ID,
		AgentID:     ag.ID,
		Size:        g.Len(),
		Reward:      g.Reward(),
		ErrTG:       g.ErrTG,
		LVal:        exp.LVal(),
		CompletedAt: now,
	})
	if e.tracing(trace.LevelInfo) {
		e.emit(trace.LevelInfo, "group-complete",
			trace.F("group", g.ID), trace.F("reward", g.Reward()), trace.F("size", g.Len()))
	}
	e.recordCycle(now)
	ag.Cycles++
	e.policy.OnGroupComplete(e.ctx, ag, g)
	if e.cfg.Audit != nil {
		e.cfg.Audit.Feedback(g.ID, now, float64(g.Reward()), g.ErrTG)
	}
	ag.LastReward = float64(g.Reward())
	e.placeBacklog(ag)
	e.tryDispatch(node)
}

// recordCycle logs the engaged-utilisation integrals at a learning-cycle
// boundary. In low-memory mode the values come from the incrementally
// maintained integrals in O(1); otherwise from the historical node sweep,
// kept bit-exact. The sweep's AdvanceAll splits the energy integrals at
// every cycle, which fixes the float rounding of ECS.
func (e *Engine) recordCycle(now float64) {
	if e.lite != nil {
		e.lite.advance(now)
		e.col.RecordCycle(now, e.lite.busyDemand, e.lite.capDemand)
		return
	}
	e.pl.AdvanceAll(now)
	var busyDemand, capDemand float64
	for _, n := range e.pl.Nodes() {
		a := e.touchAcct(n)
		busyDemand += a.busyDemand
		capDemand += a.capDemand
	}
	e.col.RecordCycle(now, busyDemand, capDemand)
}

// placeBacklog retries the agent's deferred groups in FIFO order.
func (e *Engine) placeBacklog(ag *Agent) {
	for len(ag.backlog) > 0 {
		candidates := e.freeCandidates(ag)
		if len(candidates) == 0 {
			return
		}
		g := ag.backlog[0]
		ag.backlog = ag.backlog[1:]
		node := e.policy.PlaceGroup(e.ctx, ag, g, candidates)
		if !e.isCandidate(node) {
			node = e.leastLoaded(candidates)
		}
		e.enqueue(ag, g, node)
	}
}

// sleepProcessor honours a policy's go_sleep action on an idle processor.
func (e *Engine) sleepProcessor(p *platform.Processor) {
	if p.State() != platform.StateIdle {
		return
	}
	if e.tracing(trace.LevelDebug) {
		e.emit(trace.LevelDebug, "sleep", trace.F("proc", p.ID))
	}
	p.SetState(platform.StateSleep, e.sim.Now())
}

// wake starts the sleep→idle transition: the processor enters the waking
// state (drawing peak power) for its wake latency, then becomes idle and
// dispatch resumes.
func (e *Engine) wake(node *platform.Node, p *platform.Processor) {
	if e.tracing(trace.LevelDebug) {
		e.emit(trace.LevelDebug, "wake", trace.F("proc", p.ID), trace.F("node", node.ID))
	}
	p.SetState(platform.StateWaking, e.sim.Now())
	e.sim.AfterFunc(p.WakeLatency, func(*des.Simulator) {
		if p.State() == platform.StateWaking {
			p.SetState(platform.StateIdle, e.sim.Now())
		}
		e.tryDispatch(node)
	})
}

// scheduleFailure arms the next failure of a processor.
func (e *Engine) scheduleFailure(node *platform.Node, proc *platform.Processor) {
	uptime := e.rngFail.Exp(e.cfg.FailureMTBF)
	e.sim.AfterFunc(uptime, func(*des.Simulator) { e.failProcessor(node, proc) })
}

// failProcessor takes a processor down: an in-flight execution is aborted
// and queued for re-execution, the processor draws no power until the
// repair completes, and the next failure is armed after the repair.
func (e *Engine) failProcessor(node *platform.Node, proc *platform.Processor) {
	if e.done() {
		return // run is over; let the event queue drain
	}
	now := e.sim.Now()
	e.failures++
	if rt := e.running[proc.ID]; rt.task != nil {
		e.sim.Cancel(rt.handle)
		e.running[proc.ID] = runningTask{}
		e.acctDelta(node, -1, 1)
		rt.task.StartTime = -1
		e.retries[node.ID] = append(e.retries[node.ID], retryEntry{task: rt.task, group: rt.group})
		e.restarts++
		if e.tracing(trace.LevelWarn) {
			e.emit(trace.LevelWarn, "failure",
				trace.F("proc", proc.ID), trace.F("aborted", rt.task.ID))
		}
	} else {
		if e.tracing(trace.LevelWarn) {
			e.emit(trace.LevelWarn, "failure", trace.F("proc", proc.ID))
		}
	}
	proc.SetState(platform.StateFailed, now)
	e.sim.AfterFunc(e.cfg.RepairTime, func(*des.Simulator) {
		if proc.State() == platform.StateFailed {
			proc.SetState(platform.StateIdle, e.sim.Now())
		}
		if e.tracing(trace.LevelInfo) {
			e.emit(trace.LevelInfo, "repair", trace.F("proc", proc.ID))
		}
		e.tryDispatch(node)
		if !e.done() {
			e.scheduleFailure(node, proc)
		}
	})
}

// finalFlush asserts run-end invariants once the last task completed. A
// violation raises an *InvariantError (via invariantf) that Run returns
// to its caller.
func (e *Engine) finalFlush() {
	for _, ag := range e.agents {
		if ag.Merger.Pending() > 0 || len(ag.backlog) > 0 {
			e.invariantf("agent %d still holds work after completion", ag.ID)
		}
	}
	for id, q := range e.queues {
		if len(q) != 0 {
			e.invariantf("node %d queue non-empty after completion", id)
		}
	}
	for id, rl := range e.retries {
		if len(rl) != 0 {
			e.invariantf("node %d retry queue non-empty after completion", id)
		}
	}
	if err := e.col.Validate(); err != nil {
		e.invariantf("metric records inconsistent: %v", err)
	}
	if !math.IsInf(e.arrivalsEnd, 0) && e.sim.Now() < e.arrivalsEnd {
		e.invariantf("completed before the last arrival")
	}
}
