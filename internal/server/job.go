package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/audit"
	"rlsched/internal/cache"
	"rlsched/internal/cluster"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/obs/span"
	"rlsched/internal/probe"
	"rlsched/internal/sched"
	"rlsched/internal/trace"
)

// State is the lifecycle state of a job.
type State string

// The job lifecycle: queued -> running -> done | failed | cancelled |
// timeout. A queued job cancelled before a worker picks it up goes
// straight to cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateTimeout marks a job stopped by its own timeout_sec deadline
	// — distinct from cancelled (a client or shutdown decision) and from
	// failed (the job itself broke).
	StateTimeout State = "timeout"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateTimeout
}

// JobStatus is the wire snapshot of one job, returned by GET
// /v1/jobs/{id} and streamed as SSE data on /v1/jobs/{id}/events.
type JobStatus struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Kind        string `json:"kind"`
	Figure      string `json:"figure,omitempty"`
	Description string `json:"description,omitempty"`
	// PointsDone counts completed simulation points; PointsTotal is the
	// job's expected total, so done/total is a completion fraction.
	PointsDone  int `json:"points_done"`
	PointsTotal int `json:"points_total"`
	// Attempts counts execution attempts, including the current one: it
	// exceeds 1 only when transient faults triggered retries.
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Engine aggregates the engine's per-run instrumentation counters
	// over every simulation point the job ran. Present once the job has
	// settled; absent for restored jobs (the counters are runtime-only).
	Engine *sched.RunStats `json:"engine,omitempty"`
}

// TraceEvent is the wire form of one retained trace event.
type TraceEvent struct {
	At     float64        `json:"at"`
	Level  string         `json:"level"`
	Kind   string         `json:"kind"`
	Fields map[string]any `json:"fields,omitempty"`
}

// TraceResponse is the payload of GET /v1/jobs/{id}/trace.
type TraceResponse struct {
	ID string `json:"id"`
	// Total counts every event the job's engine runs emitted; Retained is
	// how many the bounded ring kept (the most recent ones).
	Total    uint64       `json:"total"`
	Retained int          `json:"retained"`
	Events   []TraceEvent `json:"events"`
}

// SpansResponse is the payload of GET /v1/jobs/{id}/spans: the job's
// distributed span trace in a stable order (start time, then span ID).
// Dropped counts spans lost to the bounded buffer — locally, on a
// worker, or to a failed worker span fetch — so a reader knows when the
// tree is incomplete.
type SpansResponse struct {
	ID       string        `json:"id"`
	TraceID  string        `json:"trace_id"`
	Retained int           `json:"retained"`
	Dropped  uint64        `json:"dropped"`
	Spans    []span.Record `json:"spans"`
}

// PointResult is the compact per-point summary returned for JobPoints
// jobs — the same columns cmd/sweep prints.
type PointResult struct {
	Spec            experiments.RunSpec `json:"spec"`
	AveRT           float64             `json:"avert"`
	ECS             float64             `json:"ecs"`
	SuccessRate     float64             `json:"success"`
	MeanUtilization float64             `json:"utilization"`
	MeanWait        float64             `json:"meanwait"`
	EndTime         float64             `json:"endtime"`
	Completed       int                 `json:"completed"`
}

// summarizePoint reduces a full engine result to the wire summary.
func summarizePoint(spec experiments.RunSpec, r sched.Result) PointResult {
	return PointResult{
		Spec:            spec,
		AveRT:           r.AveRT,
		ECS:             r.ECS,
		SuccessRate:     r.SuccessRate,
		MeanUtilization: r.MeanUtilization,
		MeanWait:        r.MeanWait,
		EndTime:         r.EndTime,
		Completed:       r.Completed,
	}
}

// JobResult is the payload of GET /v1/jobs/{id}/result. Exactly one of
// Figures (JobFigure jobs) or Points (JobPoints jobs) is set.
type JobResult struct {
	ID      string               `json:"id"`
	Figures []experiments.Figure `json:"figures,omitempty"`
	Points  []PointResult        `json:"points,omitempty"`
}

// FullResult is the payload of GET /v1/jobs/{id}/result?view=full for
// JobPoints jobs submitted with "keep_results": true: every point's
// full engine result (Collector excluded), in spec order. This is the
// cluster lease wire shape — a coordinator rebuilds figures from these
// byte-identically to a local run.
type FullResult struct {
	ID      string         `json:"id"`
	Results []sched.Result `json:"results"`
}

// ClusterStatus is the payload of GET /v1/cluster.
type ClusterStatus struct {
	// Role is "coordinator" (a non-empty worker pool), "worker"
	// (serves leases, never fans out) or "standalone".
	Role string `json:"role"`
	// Workers is the coordinator's pool snapshot.
	Workers []cluster.WorkerStatus `json:"workers,omitempty"`
	// Cache reports the content-addressed result cache counters.
	Cache cache.Stats `json:"cache"`
}

// job is the in-memory record of one submitted job.
type job struct {
	id    string
	spec  config.JobSpec
	total int
	done  atomic.Int64 // points completed; written by Progress hooks
	// acceptedAt feeds the queue-wait histogram; for restored jobs it is
	// the restore time, which still measures real waiting.
	acceptedAt time.Time
	// ring, series and decisions hold the job's engine trace and its
	// per-point probe and decision-audit recorders when the spec asked
	// for them ("trace", "series", "decisions"); each is nil otherwise,
	// and the job pays nothing for it. They are runtime-only: a restored
	// job serves empty ones.
	ring      *trace.Ring
	series    *pointLog[*probe.Recorder, probe.RunSeries]
	decisions *pointLog[*audit.Recorder, audit.RunLog]
	// spans collects the job's distributed span trace when the spec asked
	// for one ("spans": true); nil otherwise, and an untraced job pays a
	// nil check per hook site. spanParent is the remote parent adopted
	// from a submit's traceparent header (zero for a locally rooted
	// trace), and reqID the correlation ID of the accepting request,
	// forwarded on every lease this job fans out.
	spans      *span.Trace
	spanParent span.ID
	reqID      string

	mu       sync.Mutex
	state    State
	attempts int // execution attempts so far (>1 after transient retries)
	err      string
	figures  []experiments.Figure
	points   []PointResult
	// results retains the full per-point engine results for keep_results
	// jobs; nil otherwise. Runtime-only — never journaled — so a
	// restored job serves only the summary.
	results   []sched.Result
	engine    *sched.RunStats    // aggregated engine counters, set at settle
	cancel    context.CancelFunc // non-nil while running
	cancelled bool               // cancellation requested
	watchers  map[chan struct{}]struct{}

	// doneCh closes when the job reaches a terminal state.
	doneCh chan struct{}
}

func newJob(id string, spec config.JobSpec, total int) *job {
	j := &job{
		id:         id,
		spec:       spec,
		total:      total,
		acceptedAt: time.Now(),
		state:      StateQueued,
		watchers:   make(map[chan struct{}]struct{}),
		doneCh:     make(chan struct{}),
	}
	if spec.Trace {
		j.ring = trace.NewRing(traceCap, trace.LevelDebug)
	}
	if spec.Series != nil {
		cfg := spec.Series.ProbeConfig()
		j.series = newPointLog(func() *probe.Recorder { return probe.NewRecorder(cfg) }, seriesView)
	}
	if spec.Decisions != nil {
		cfg := spec.Decisions.AuditConfig()
		j.decisions = newPointLog(func() *audit.Recorder { return audit.NewRecorder(cfg) }, decisionsView)
	}
	if spec.Spans {
		j.spans = span.New(span.DeriveTraceID(id), id, spanCap)
	}
	return j
}

// recordersFor returns the job's experiments.Profile.RecordersFor hook:
// every point gets the job's trace ring plus a fresh probe and audit
// recorder for the artifacts the spec asked for. A job that records
// nothing gets a nil hook, so its points may still be served from the
// cache or leased to workers.
func (j *job) recordersFor() func(int, experiments.RunSpec) sched.Recorders {
	if j.ring == nil && j.series == nil && j.decisions == nil {
		return nil
	}
	var tracer trace.Tracer
	if j.ring != nil {
		tracer = j.ring // never a nil *trace.Ring inside the interface
	}
	return func(i int, spec experiments.RunSpec) sched.Recorders {
		return sched.Recorders{Tracer: tracer, Probe: j.series.hook(i, spec), Audit: j.decisions.hook(i, spec)}
	}
}

// adoptTraceparent re-roots the job's span trace under a remote parent:
// the trace ID comes from the coordinator and the job's root span will
// hang off the coordinator's lease span, stitching this daemon's
// timeline into the caller's. Only meaningful before the job runs; a
// no-op for jobs without spans.
func (j *job) adoptTraceparent(tp span.Traceparent) {
	if j.spans == nil {
		return
	}
	j.spans = span.New(tp.TraceID, tp.Parent.String(), spanCap)
	j.spanParent = tp.Parent
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Kind:        j.spec.Kind,
		Figure:      j.spec.Figure,
		Description: j.spec.Description,
		PointsDone:  int(j.done.Load()),
		PointsTotal: j.total,
		Attempts:    j.attempts,
		Error:       j.err,
		Engine:      j.engine,
	}
}

// watch registers a coalescing wake-up channel: notify does a
// non-blocking send, so a slow subscriber sees bursts folded into one
// wake-up and re-reads the current snapshot.
func (j *job) watch() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unwatch(ch chan struct{}) {
	j.mu.Lock()
	delete(j.watchers, ch)
	j.mu.Unlock()
}

// notify wakes every watcher without blocking.
func (j *job) notify() {
	j.mu.Lock()
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}
