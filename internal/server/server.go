// Package server turns the simulator into a long-running
// simulation-as-a-service daemon: campaign jobs arrive over a JSON REST
// API, flow through a bounded in-memory queue into a worker pool that
// executes them via the experiments runner, and report progress through
// polling endpoints, Server-Sent Events and a Prometheus-style metrics
// endpoint.
//
// API (all bodies JSON unless noted):
//
//	POST   /v1/jobs             submit a config.JobSpec -> 202 + JobStatus
//	GET    /v1/jobs             list retained jobs (submission order)
//	GET    /v1/jobs/{id}        job status snapshot; ?wait=<Go duration>
//	                            (0s to 1m, cluster.MaxStatusWait) makes it
//	                            a long poll that answers when the job
//	                            settles, the wait elapses, the client
//	                            leaves or Shutdown begins; any other wait
//	                            is a 400
//	GET    /v1/jobs/{id}/result finished payload (409 until done);
//	                            ?view=full serves the full per-point
//	                            engine results of "keep_results" jobs
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events progress stream (SSE, ends at terminal)
//	GET    /v1/jobs/{id}/trace  retained engine trace (404 unless the job
//	                            was submitted with "trace": true)
//	GET    /v1/jobs/{id}/spans  distributed trace of the campaign
//	                            pipeline (404 unless the job was
//	                            submitted with "spans": true); JSON by
//	                            default, a self-contained HTML waterfall
//	                            via ?format=html
//	GET    /v1/jobs/{id}/series recorded simulation time series (404
//	                            unless the job was submitted with a
//	                            "series" block); JSON by default, CSV
//	                            via ?format=csv or Accept: text/csv
//	GET    /v1/jobs/{id}/series/stream
//	                            live series over SSE: full snapshot,
//	                            then delta frames, reset frames when
//	                            history is rewritten
//	GET    /v1/jobs/{id}/decisions
//	                            recorded scheduling decisions (404
//	                            unless the job was submitted with a
//	                            "decisions" block); JSON by default,
//	                            CSV via ?format=csv, a self-contained
//	                            HTML policy report via ?format=html
//	GET    /v1/jobs/{id}/decisions/stream
//	                            live decision log over SSE: a full
//	                            snapshot whenever the log changes
//	GET    /v1/cluster          cluster role, worker pool, cache stats
//	POST   /v1/cluster/register add a worker to the pool at runtime
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition; ?format=json
//	                            serves the legacy flat-JSON counter view
//
// The daemon retains the maxSettledJobs (128) most recently settled
// jobs. Beyond that the job that settled longest ago is evicted and its
// id answers 404 on every route; queued and running jobs are never
// evicted, and journal replay applies the same bound.
//
// Every campaign point a job runs flows through a content-addressed
// result cache keyed by the canonical hash of the point's spec, the
// result-relevant profile fields and the engine version (see
// internal/cache): a repeated point is served from memory or the cache
// spool instead of re-simulated, which is sound because results are
// bit-deterministic functions of their specs. With Options.Cluster the
// daemon joins a cluster: a coordinator leases cache-miss points to
// worker daemons over this same REST API (single-point keep_results
// jobs, each followed by a status long poll) and reassembles their
// full results byte-identically, re-leasing points lost to dead
// workers; a worker serves leases but never fans out. See
// internal/cluster.
//
// Telemetry runs through internal/obs: every route is wrapped in HTTP
// middleware (request counts, latency histograms, in-flight gauge,
// request-id correlation), the job lifecycle records queue-wait and
// run-duration histograms, the engine's per-run counters aggregate into
// engine_* series, and a background sampler publishes Go runtime gauges.
// With Options.Pprof the daemon additionally mounts net/http/pprof under
// /debug/pprof/.
//
// Every job derives its randomness from its spec alone, so a job
// submitted over HTTP returns bit-identical results to the same spec run
// through the CLIs — the daemon adds concurrency and observability, not
// noise. Errors are structured: non-2xx responses carry
// {"error": "..."}.
//
// With Options.SpoolDir set the daemon is crash-safe: every accepted job
// is journaled to disk before the 202 goes out and every settled job is
// journaled with its result, so a restart replays the spool, restores
// finished jobs byte for byte and re-enqueues whatever was queued or
// running when the process died (determinism makes the re-run results
// identical to what the crashed run would have produced). The result
// cache spools beside the journal unless Options.Cache.Dir is set, so a
// re-run job takes the points it finished before the crash from it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"rlsched/internal/cache"
	"rlsched/internal/chaos"
	"rlsched/internal/cluster"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/journal"
	"rlsched/internal/obs"
	"rlsched/internal/obs/span"
	"rlsched/internal/report"
	"rlsched/internal/sched"
)

// ErrTransient marks an infrastructure fault — exhausted file handles, a
// flaky scratch volume — that a retry may clear. Wrap errors with it
// (fmt.Errorf("...: %w", ErrTransient) or errors.Join) to make the
// worker re-run the job under its spec's max_retries budget. Simulation
// errors are deterministic and are never wrapped: retrying a model bug
// reproduces it.
var ErrTransient = errors.New("transient infrastructure fault")

// Options configures a Server.
type Options struct {
	// Jobs is the number of jobs executed concurrently (each job
	// additionally fans its simulation points over its profile's
	// Workers). Default 1: jobs parallelise internally, so one at a time
	// keeps latency predictable.
	Jobs int
	// QueueDepth bounds how many jobs may wait behind the running ones
	// before submissions are rejected with 429. Default 16.
	QueueDepth int
	// SpoolDir, when non-empty, enables the durable job journal: accepted
	// specs and terminal outcomes are fsynced to this directory, and New
	// replays it so jobs interrupted by a crash re-run automatically.
	// Empty keeps the daemon purely in-memory.
	SpoolDir string
	// Logger receives the daemon's structured logs (job lifecycle,
	// per-request debug lines). Use obs.NewLogger to get request-id and
	// job-id correlation from context. Nil discards everything.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the daemon mux.
	// Off by default: profiling endpoints expose internals and cost
	// memory, so they are opt-in.
	Pprof bool
	// Cache configures the content-addressed result cache every campaign
	// point flows through. It spools to Dir, else to SpoolDir/cache, else
	// stays in memory; a job re-run after a crash resumes from a spooled
	// cache, the only durable home of point results. MaxEntries 0 selects
	// the default in-memory capacity.
	Cache config.CacheSpec
	// Cluster configures the daemon's cluster role: peers to fan
	// campaign points out to (coordinator), or worker mode (serve leases,
	// never fan out). The zero value is a standalone daemon — which
	// still accepts runtime worker registrations via
	// POST /v1/cluster/register.
	Cluster config.ClusterSpec

	// ClusterTransport, when non-nil, carries every cluster HTTP exchange
	// (health probes and leases). The chaos harness injects latency,
	// drops and partitions here; nil uses the default transport.
	ClusterTransport http.RoundTripper
	// CacheFS / JournalFS, when non-nil, replace the os filesystem under
	// the cache spool and the job journal. The chaos harness injects torn
	// writes, ENOSPC and bit-flips here; nil uses the real filesystem.
	CacheFS   chaos.FS
	JournalFS chaos.FS
}

func (o Options) withDefaults() Options {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 16
	}
	return o
}

// Server is the simulation-as-a-service daemon. Create with New, serve
// it as an http.Handler, and stop it with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// baseCtx parents every job context; cancelAll aborts all running
	// work (forced shutdown).
	baseCtx   context.Context
	cancelAll context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	// jn is the durable journal, nil when Options.SpoolDir is empty.
	jn *journal.Journal

	// cache is the content-addressed result store every campaign point
	// flows through; never nil.
	cache *cache.Store
	// pool tracks cluster workers; nil in worker mode (a worker serves
	// leases, it never fans out).
	pool *cluster.Pool
	// dispatcher routes campaign points through the cache and, when the
	// pool has alive workers, across them; never nil.
	dispatcher *cluster.Dispatcher
	// aliveWorkers feeds the 429 Retry-After estimate; tests override
	// it. Defaults to the pool's alive count (0 without a pool).
	aliveWorkers func() int

	mu   sync.Mutex
	jobs map[string]*job
	// order lists registered ids in submission order; settled lists the
	// settled ones in the order they settled, oldest first, so the
	// registry can evict beyond maxSettledJobs.
	order   []string
	settled []string
	seq     int
	closed  bool
	// stopping closes when Shutdown begins, releasing parked status long
	// polls.
	stopping chan struct{}
	// durSum/durN track completed job runtimes (seconds) so a 429's
	// Retry-After can estimate when a queue slot will free up.
	durSum float64
	durN   int

	// reg is the server's metrics registry (rendered by /metrics); m holds
	// the hot-path handles resolved once at construction. log discards
	// when no Options.Logger was given. sampler publishes Go runtime
	// gauges until Shutdown stops it.
	reg     *obs.Registry
	m       metrics
	log     *slog.Logger
	sampler *obs.Sampler
	// foldMu serialises foldEngine's read-compare-set on its high-water
	// gauges. It is not s.mu, so a job folds its counters before its
	// state is published without waiting on the registry lock.
	foldMu sync.Mutex

	// keepAlive is the SSE keepalive interval: idle streams emit a
	// comment line this often so proxies and clients can tell a quiet
	// job from a dead connection. Tests shorten it.
	keepAlive time.Duration
	// seriesPoll is how often a series or decisions stream re-snapshots
	// its job's recorders between point completions, surfacing samples
	// and decisions recorded mid-point. Tests shorten it.
	seriesPoll time.Duration
	// retryBase is the first retry's backoff delay; attempt k waits
	// retryBase << k. Tests shrink it to keep retries instant.
	retryBase time.Duration

	// pointGate, when non-nil, runs after every completed point of every
	// job. Tests set it (before any submission) to hold a job mid-flight
	// so cancellation and queue-pressure paths are exercised without
	// depending on simulation wall-clock.
	pointGate func()
	// faultInject, when non-nil, runs before each execution attempt with
	// the attempt number; a non-nil return is treated as that attempt's
	// error. Tests use it to exercise the retry and panic-isolation
	// paths.
	faultInject func(attempt int) error
	// settleGate, when non-nil, runs right after a job's terminal state
	// is published. Tests hold it to read the metrics a client sees the
	// instant a job reads as settled.
	settleGate func()
}

// maxSettledJobs bounds how many settled jobs the registry keeps: once
// more have settled, the one that settled longest ago is forgotten and
// its id answers 404 on every route. Queued and running jobs are never
// evicted. A retained settled job costs about 2-3.5 KB (spec, status
// and result summary; a worker's lease job also holds its full engine
// result), so the bound holds at most about 0.45 MiB — without it a
// long-lived daemon grows with every job it serves.
const maxSettledJobs = 128

// traceCap bounds the per-job trace ring: enough to hold the tail of a
// campaign's scheduling decisions without letting a huge job balloon the
// daemon's memory.
const traceCap = 4096

// spanCap bounds the per-job distributed span buffer. The buffer keeps
// its oldest entries (and counts what it drops), so the campaign and
// point structure survives even when a huge fan-out overflows the leaf
// spans — evicting roots would orphan whole subtrees.
const spanCap = 4096

// metrics bundles the server's registry handles, resolved once at
// construction so the hot paths never touch the registry's lookup lock.
type metrics struct {
	queued, running *obs.Gauge
	settled         map[State]*obs.Counter
	retries, points *obs.Counter
	sse             *obs.Gauge
	queueWait       *obs.Histogram
	runSeconds      map[State]*obs.Histogram

	engEvents, engTasks, engGroups *obs.Counter
	engSplits, engBacklogged       *obs.Counter
	engTimelineDrops               *obs.Counter
	engHeapHW                      *obs.Gauge
	memLookups, memHits            *obs.Counter
	memEvictions                   *obs.Counter
	memOccupancy                   *obs.Gauge
}

// terminalStates lists every job outcome, in rendering order.
var terminalStates = []State{StateDone, StateFailed, StateCancelled, StateTimeout}

func newMetrics(reg *obs.Registry) metrics {
	m := metrics{
		queued:        reg.Gauge("jobs_queued", "Jobs waiting in the queue."),
		running:       reg.Gauge("jobs_running", "Jobs currently executing."),
		settled:       make(map[State]*obs.Counter, len(terminalStates)),
		retries:       reg.Counter("job_retries_total", "Transient-fault retries across all jobs."),
		points:        reg.Counter("points_completed_total", "Simulation points completed across all jobs."),
		sse:           reg.Gauge("sse_subscribers", "Open SSE progress streams."),
		queueWait:     reg.Histogram("job_queue_wait_seconds", "Time from job acceptance to execution start.", obs.DefBuckets),
		runSeconds:    make(map[State]*obs.Histogram, len(terminalStates)),
		engEvents:     reg.Counter("engine_events_total", "Simulator events fired across all jobs."),
		engTasks:      reg.Counter("engine_tasks_scheduled_total", "Task executions started across all jobs."),
		engGroups:     reg.Counter("engine_groups_placed_total", "Merge groups placed across all jobs."),
		engSplits:     reg.Counter("engine_splits_total", "Tasks pulled forward by the split process across all jobs."),
		engBacklogged: reg.Counter("engine_backlogged_total", "Group placements deferred for lack of node queue slots."),
		engTimelineDrops: reg.Counter("engine_timeline_drops_total",
			"Trace events an attached timeline tracer could not pair."),
		engHeapHW: reg.Gauge("engine_heap_high_water", "Peak pending-event queue length over any single run."),
		memLookups: reg.Counter("memory_lookups_total",
			"Shared learning-memory similarity queries across all jobs."),
		memHits: reg.Counter("memory_hits_total",
			"Shared learning-memory queries that returned a usable experience."),
		memEvictions: reg.Counter("memory_evictions_total",
			"Shared learning-memory records dropped by per-agent ring overflow."),
		memOccupancy: reg.Gauge("memory_occupancy",
			"Peak shared learning-memory record count over any single run."),
	}
	for _, st := range terminalStates {
		m.settled[st] = reg.Counter("jobs_total", "Jobs settled, by terminal state.", obs.L("state", string(st)))
		m.runSeconds[st] = reg.Histogram("job_run_seconds", "Wall-clock job runtime, by outcome.", obs.DefBuckets, obs.L("outcome", string(st)))
	}
	return m
}

// foldEngine adds one job's aggregated engine counters into the
// server-wide series. Callers hold Server.foldMu, which serialises the
// read-compare-set on the high-water gauges.
func (m *metrics) foldEngine(snap sched.RunStats) {
	m.engEvents.Add(snap.Events)
	m.engTasks.Add(snap.TasksScheduled)
	m.engGroups.Add(snap.GroupsPlaced)
	m.engSplits.Add(snap.Splits)
	m.engBacklogged.Add(snap.Backlogged)
	m.engTimelineDrops.Add(snap.TimelineDrops)
	m.memLookups.Add(snap.MemoryLookups)
	m.memHits.Add(snap.MemoryHits)
	m.memEvictions.Add(snap.MemoryEvictions)
	if occ := float64(snap.MemoryOccupancy); occ > m.memOccupancy.Value() {
		m.memOccupancy.Set(occ)
	}
	if hw := float64(snap.HeapHighWater); hw > m.engHeapHW.Value() {
		m.engHeapHW.Set(hw)
	}
}

// New starts a Server: its worker pool is live immediately. With
// Options.SpoolDir set it first replays the journal — finished jobs come
// back with their results, interrupted ones go straight back into the
// queue — and the error return covers an unreadable or unwritable spool.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.Cache.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Cluster.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:       opts,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		cancelAll:  cancel,
		jobs:       make(map[string]*job),
		stopping:   make(chan struct{}),
		reg:        reg,
		m:          newMetrics(reg),
		log:        log,
		keepAlive:  15 * time.Second,
		seriesPoll: time.Second,
		retryBase:  time.Second,
	}
	// The result cache is always on: spooled to Options.Cache.Dir, else
	// beside the job journal, else memory-only. Persistent spool faults
	// degrade it to memory-only rather than failing campaigns.
	cacheDir := opts.Cache.Dir
	if cacheDir == "" && opts.SpoolDir != "" {
		cacheDir = filepath.Join(opts.SpoolDir, "cache")
	}
	store, err := cache.OpenStore(cache.Options{
		Dir: cacheDir, MaxMem: opts.Cache.MaxEntries,
		FS: opts.CacheFS, Logger: log,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.cache = store

	var pending []*job
	if opts.SpoolDir != "" {
		jn, recs, err := journal.OpenFS(opts.SpoolDir, opts.JournalFS)
		if err != nil {
			cancel()
			return nil, err
		}
		s.jn = jn
		// Record kinds from another version (a newer peer's, or the
		// lease and cacheref lines older daemons wrote) are skipped with
		// one warning per kind, never a startup failure.
		unknown := make(map[string]int)
		var kinds []string // first-seen order
		for _, r := range recs {
			if !journal.KnownOp(r.Op) {
				if unknown[r.Op]++; unknown[r.Op] == 1 {
					kinds = append(kinds, r.Op)
				}
			}
		}
		for _, op := range kinds {
			log.Warn("journal: skipping unknown record kind", "op", op, "records", unknown[op])
		}
		for _, e := range journal.Reduce(recs) {
			// Continue the id sequence where the previous incarnation
			// stopped, so restored and new ids never collide.
			var n int
			if _, err := fmt.Sscanf(e.ID, "job-%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
			j := restoreJob(e)
			s.jobs[j.id] = j
			s.order = append(s.order, j.id)
			if j.state == StateQueued {
				pending = append(pending, j)
			} else {
				s.settled = append(s.settled, j.id)
			}
		}
		// Replay applies the live bound, evicting in the order the jobs
		// settled: the order their terminal records were written (a job
		// settled without one, an unparsable spec, counts as oldest).
		settledAt := make(map[string]int)
		for i, r := range recs {
			if r.Op == journal.OpTerminal {
				settledAt[r.ID] = i + 1
			}
		}
		sort.SliceStable(s.settled, func(a, b int) bool {
			return settledAt[s.settled[a]] < settledAt[s.settled[b]]
		})
		s.evictLocked()
	}
	// The queue gets extra headroom for replayed jobs so recovery never
	// competes with fresh submissions for slots.
	s.queue = make(chan *job, opts.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	s.m.queued.Add(float64(len(pending)))
	// Queue depth and worker utilisation are cheap to read, so they are
	// refreshed at scrape time rather than on a timer — every scrape sees
	// the current values.
	s.reg.Gauge("queue_depth", "Jobs sitting in the bounded submission queue.")
	s.reg.Gauge("worker_utilization", "Fraction of the worker pool that is busy.")
	s.reg.OnScrape(func(reg *obs.Registry) {
		reg.Gauge("queue_depth", "").Set(float64(len(s.queue)))
		reg.Gauge("worker_utilization", "").Set(s.m.running.Value() / float64(opts.Jobs))
	})

	// Cluster role: a worker serves leases over the ordinary job API and
	// never fans out; anything else keeps a pool, so peers can be named
	// up front (-peers) or register themselves at runtime.
	if !opts.Cluster.Worker {
		var probeClient *http.Client
		if opts.ClusterTransport != nil {
			probeClient = &http.Client{Transport: opts.ClusterTransport}
		}
		s.pool = cluster.NewPool(cluster.PoolOptions{
			Client:           probeClient,
			Heartbeat:        time.Duration(opts.Cluster.HeartbeatSec * float64(time.Second)),
			DeadAfter:        time.Duration(opts.Cluster.DeadAfterSec * float64(time.Second)),
			ProbeTimeout:     time.Duration(opts.Cluster.ProbeTimeoutSec * float64(time.Second)),
			BreakerThreshold: opts.Cluster.BreakerThreshold,
			BreakerCooldown:  time.Duration(opts.Cluster.BreakerCooldownSec * float64(time.Second)),
			Logger:           log,
		})
		for _, peer := range opts.Cluster.Peers {
			if err := s.pool.Add(ctx, peer); err != nil {
				// Not fatal: the heartbeat loop picks the peer up when it
				// comes online.
				log.Warn("cluster peer not reachable yet", "peer", peer, "error", err.Error())
			}
		}
		s.pool.Start()
	}
	s.aliveWorkers = func() int {
		if s.pool == nil {
			return 0
		}
		return s.pool.AliveCount()
	}
	var leaseClient *http.Client
	if opts.ClusterTransport != nil {
		leaseClient = &http.Client{Transport: opts.ClusterTransport}
	}
	s.dispatcher = cluster.NewDispatcher(cluster.Options{
		Cache: s.cache, Pool: s.pool, Registry: s.reg, Logger: log,
		Client:     leaseClient,
		HedgeAfter: time.Duration(opts.Cluster.HedgeAfterSec * float64(time.Second)),
	})

	// Cache telemetry: the store keeps cumulative counters, the registry
	// wants monotonic series — delta-sync at scrape time bridges them.
	// Size gauges are set outright.
	var (
		cacheMu   sync.Mutex
		cacheLast cache.Stats
		cHits     = s.reg.Counter("cache_hits_total", "Content-addressed result cache hits.")
		cMisses   = s.reg.Counter("cache_misses_total", "Content-addressed result cache misses.")
		cPuts     = s.reg.Counter("cache_puts_total", "Entries written to the result cache.")
		cBad      = s.reg.Counter("cache_bad_entries_total", "Corrupt cache entries discarded as misses.")
		cFaults   = s.reg.Counter("cache_disk_faults_total", "Disk I/O failures observed by the cache spool.")
		cMem      = s.reg.Gauge("cache_entries_mem", "Entries in the in-memory cache tier.")
		cDisk     = s.reg.Gauge("cache_entries_disk", "Entries in the on-disk cache spool.")
		cBytes    = s.reg.Gauge("cache_disk_bytes", "Bytes held by the on-disk cache spool.")
		cDegraded = s.reg.Gauge("cache_degraded", "1 when persistent spool faults degraded the cache to memory-only.")
		wAlive    = s.reg.Gauge("cluster_workers", "Cluster pool membership, by liveness.", obs.L("state", "alive"))
		wDead     = s.reg.Gauge("cluster_workers", "Cluster pool membership, by liveness.", obs.L("state", "dead"))
	)
	// breakerValue renders a worker's breaker state as a gauge level:
	// closed scrapes as 0, half-open as 1, open as 2.
	breakerValue := map[string]float64{
		cluster.BreakerClosed.String():   0,
		cluster.BreakerHalfOpen.String(): 1,
		cluster.BreakerOpen.String():     2,
	}
	s.reg.OnScrape(func(*obs.Registry) {
		cs := s.cache.Stats()
		cacheMu.Lock()
		last := cacheLast
		cacheLast = cs
		cacheMu.Unlock()
		cHits.Add(cs.Hits - last.Hits)
		cMisses.Add(cs.Misses - last.Misses)
		cPuts.Add(cs.Puts - last.Puts)
		cBad.Add(cs.BadEntries - last.BadEntries)
		cFaults.Add(cs.DiskFaults - last.DiskFaults)
		cMem.Set(float64(cs.MemEntries))
		cDisk.Set(float64(cs.DiskEntries))
		cBytes.Set(float64(cs.DiskBytes))
		if cs.Degraded {
			cDegraded.Set(1)
		} else {
			cDegraded.Set(0)
		}
		var alive, dead int
		if s.pool != nil {
			for _, w := range s.pool.Snapshot() {
				if w.Alive {
					alive++
				} else {
					dead++
				}
				s.reg.Gauge("cluster_breaker_state",
					"Per-worker circuit breaker: 0 closed, 1 half-open, 2 open.",
					obs.L("worker", w.URL)).Set(breakerValue[w.Breaker])
			}
		}
		wAlive.Set(float64(alive))
		wDead.Set(float64(dead))
	})
	// The runtime sampler publishes go_* gauges; the synchronous first
	// sample means even an immediate scrape sees them.
	s.sampler = obs.StartSampler(s.reg, 0, nil)

	// Every API route goes through the HTTP middleware: per-route request
	// counters and latency histograms, an in-flight gauge and request-id
	// correlation. The mux pattern doubles as the route label, keeping
	// label cardinality bounded no matter what paths clients probe.
	httpm := obs.NewHTTPMetrics(s.reg, s.log)
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, httpm.Handler(pattern, h))
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleStatus)
	handle("GET /v1/jobs/{id}/result", s.handleResult)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/jobs/{id}/events", s.handleEvents)
	handle("GET /v1/jobs/{id}/trace", s.artifactGet("trace enabled", traceArtifact))
	handle("GET /v1/jobs/{id}/spans", s.artifactGet("spans enabled", spansArtifact))
	handle("GET /v1/jobs/{id}/series", s.artifactGet("a series block", seriesArtifact))
	handle("GET /v1/jobs/{id}/series/stream", s.artifactStream("a series block", seriesFrames))
	handle("GET /v1/jobs/{id}/decisions", s.artifactGet("a decisions block", decisionsArtifact))
	handle("GET /v1/jobs/{id}/decisions/stream", s.artifactStream("a decisions block", decisionsFrames))
	handle("GET /v1/cluster", s.handleClusterStatus)
	handle("POST /v1/cluster/register", s.handleClusterRegister)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	if opts.Pprof {
		// Mounted raw: profile downloads should not skew the latency
		// histograms they are used to investigate.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.wg.Add(opts.Jobs)
	for i := 0; i < opts.Jobs; i++ {
		go s.worker()
	}
	return s, nil
}

// restoreJob rebuilds one job from its journal entry. An entry without a
// terminal state was queued or running at crash time and comes back as
// queued; the caller re-enqueues it.
func restoreJob(e journal.Entry) *job {
	spec, err := config.UnmarshalJob(e.Spec)
	if err != nil {
		// The journaled spec no longer parses (schema drift across an
		// upgrade): surface the job as failed rather than dropping it.
		j := newJob(e.ID, config.JobSpec{}, 0)
		j.state = StateFailed
		j.err = fmt.Sprintf("restoring journaled spec: %v", err)
		close(j.doneCh)
		return j
	}
	total, _ := spec.TotalPoints()
	j := newJob(e.ID, spec, total)
	if e.State == "" {
		return j
	}
	j.state = State(e.State)
	j.err = e.Error
	if len(e.Result) > 0 {
		var res JobResult
		if err := json.Unmarshal(e.Result, &res); err == nil {
			j.figures, j.points = res.Figures, res.Points
		}
	}
	if j.state == StateDone {
		j.done.Store(int64(total))
	}
	close(j.doneCh)
	return j
}

// journalAccepted persists a job's acceptance; it must succeed before
// the 202 goes out, so an acknowledged job is never lost to a crash.
func (s *Server) journalAccepted(j *job) error {
	if s.jn == nil {
		return nil
	}
	spec, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	return s.jn.Append(journal.Record{Op: journal.OpAccepted, ID: j.id, Spec: spec})
}

// journalTerminal persists a job's outcome. Best-effort: if the write
// fails the in-memory record still serves clients, and the worst case
// after a restart is a deterministic re-run of a finished job.
func (s *Server) journalTerminal(j *job, state State, errMsg string, result json.RawMessage) {
	if s.jn == nil {
		return
	}
	_ = s.jn.Append(journal.Record{
		Op: journal.OpTerminal, ID: j.id, State: string(state), Error: errMsg, Result: result,
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops the server: no new submissions are accepted and the
// workers drain the queue. If ctx expires before the drain completes,
// every remaining job is cancelled; Shutdown always waits for the
// workers to exit before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.stopping)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelAll()
		<-drained
	}
	s.cancelAll() // release the base context in the graceful path too
	if s.pool != nil {
		s.pool.Stop()
	}
	s.sampler.Stop()
	if s.jn != nil {
		_ = s.jn.Close()
	}
	return err
}

// Registry exposes the server's metrics registry so the embedding
// process can add its own series — rlsimd registers build_info on it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// writeJSON writes v as a JSON response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the structured error body every non-2xx response
// carries.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// noteSettled records that a registered job reached a terminal state
// and evicts the settled jobs beyond maxSettledJobs, longest-settled
// first. Each job is noted once, by whichever path settled it.
func (s *Server) noteSettled(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settled = append(s.settled, j.id)
	s.evictLocked()
}

// evictLocked drops the longest-settled jobs beyond maxSettledJobs from
// the registry. Callers hold s.mu.
func (s *Server) evictLocked() {
	excess := len(s.settled) - maxSettledJobs
	if excess <= 0 {
		return
	}
	for _, id := range s.settled[:excess] {
		delete(s.jobs, id)
	}
	s.settled = s.settled[excess:]
	kept := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// lookup resolves the {id} path segment; on miss it writes a 404 and
// returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j
}

// maxJobBody bounds a submitted job spec; profiles are a few KB, so 1
// MiB is generous without letting a client balloon the daemon.
const maxJobBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	spec, err := config.UnmarshalJob(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	total, err := spec.TotalPoints()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), spec, total)
	j.reqID = obs.RequestID(r.Context())
	if j.spans != nil {
		// A coordinator leasing this job names its own lease span in a
		// traceparent header; adopting it stitches this daemon's spans
		// into the caller's trace. Adoption must land before the queue
		// send — a worker may pop the job immediately.
		if tp, err := span.ParseTraceparent(r.Header.Get(span.Header)); err == nil {
			j.adoptTraceparent(tp)
		}
	}
	// The 202 body is the job as accepted. Snapshot it before the queue
	// send: once sent, a worker may start the job at any moment.
	accepted := j.status()
	select {
	case s.queue <- j:
	default:
		s.seq-- // the id was never exposed
		sec := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry in %ds", s.opts.QueueDepth, sec)
		return
	}
	// Journal the acceptance before acknowledging it (the append fsyncs),
	// so a 202 means the job survives any crash. Holding s.mu keeps the
	// journal's acceptance order identical to the id order.
	if err := s.journalAccepted(j); err != nil {
		// The job already holds a queue slot; settle it terminally so the
		// worker skips it on pop. The id is burned, not reused: a torn
		// journal line may still carry it.
		j.state = StateFailed
		j.err = err.Error()
		close(j.doneCh)
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "journaling job: %v", err)
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.m.queued.Add(1)
	s.log.InfoContext(obs.WithJobID(r.Context(), j.id), "job accepted",
		"kind", spec.Kind, "figure", spec.Figure, "points_total", total,
		"trace", spec.Trace, "spans", spec.Spans)
	writeJSON(w, http.StatusAccepted, accepted)
}

// retryAfterLocked estimates (in whole seconds, at least 1) how long a
// bounced client should wait for a queue slot: the observed mean job
// runtime times the jobs ahead of it, spread over the daemon's real
// drain capacity. Two corrections keep the estimate honest under the
// cache and the cluster: points served from the cache cost nothing, so
// the mean is discounted by the observed miss rate (floored at 5% — a
// hot cache never promises instant slots), and a coordinator drains its
// queue with every alive worker's help, not just its own job slots.
// Callers hold s.mu.
func (s *Server) retryAfterLocked() int {
	mean := 1.0
	if s.durN > 0 {
		mean = s.durSum / float64(s.durN)
	}
	miss := 1.0
	if cs := s.cache.Stats(); cs.Lookups() > 0 {
		miss = 1 - cs.HitRate()
		if miss < 0.05 {
			miss = 0.05
		}
	}
	return retryAfterEstimate(mean, miss, len(s.queue), s.opts.Jobs, s.aliveWorkers())
}

// retryAfterEstimate is the Retry-After arithmetic, split out so the
// policy is testable without staging a full queue: expected work per
// queued job (mean runtime discounted by the cache miss rate) divided
// by drain capacity (local job slots plus every alive worker's worth).
func retryAfterEstimate(mean, missRate float64, queued, slots, workers int) int {
	capacity := float64(slots) * (1 + float64(workers))
	sec := int(math.Ceil(mean * missRate * float64(queued) / capacity))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus serves a job's status snapshot. With ?wait=<Go duration>
// it is a long poll: the answer waits until the job settles, the wait
// elapses, the client leaves or the server starts shutting down,
// whichever comes first — so a cluster lease learns its point finished
// the moment it does, in one request.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 || d > cluster.MaxStatusWait {
			writeError(w, http.StatusBadRequest,
				"wait must be a Go duration between 0s and %s, got %q", cluster.MaxStatusWait, v)
			return
		}
		wait = d
	}
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-j.doneCh:
		case <-t.C:
		case <-r.Context().Done():
		case <-s.stopping:
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	res := JobResult{ID: j.id, Figures: j.figures, Points: j.points}
	full := j.results
	j.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "job %s is %s, not done", j.id, state)
		return
	}
	if r.URL.Query().Get("view") == "full" {
		// Full results exist only for keep_results jobs and only in the
		// incarnation that ran them (they are not journaled — a restored
		// job serves the summary). A coordinator hitting this 404 simply
		// re-leases the point.
		if full == nil {
			writeError(w, http.StatusNotFound,
				"job %s retained no full results (submit with \"keep_results\": true)", j.id)
			return
		}
		writeJSON(w, http.StatusOK, FullResult{ID: j.id, Results: full})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleClusterStatus reports the daemon's cluster role, its worker
// pool and its cache counters.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	st := ClusterStatus{Role: "standalone", Cache: s.cache.Stats()}
	if s.opts.Cluster.Worker {
		st.Role = "worker"
	} else if s.pool != nil {
		st.Workers = s.pool.Snapshot()
		if len(st.Workers) > 0 {
			st.Role = "coordinator"
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleClusterRegister adds a worker to the pool at runtime. The probe
// is synchronous, so a 200 with "alive": true means the worker can take
// leases immediately.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		writeError(w, http.StatusConflict, "this daemon is a cluster worker; it does not take peers")
		return
	}
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil || body.URL == "" {
		writeError(w, http.StatusBadRequest, "body must be {\"url\": \"http://worker:port\"}")
		return
	}
	if _, err := cluster.NormalizeURL(body.URL); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	err := s.pool.Add(r.Context(), body.URL)
	s.log.InfoContext(r.Context(), "cluster worker registered", "worker", body.URL, "alive", err == nil)
	writeJSON(w, http.StatusOK, map[string]any{"url": body.URL, "alive": err == nil})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		state := j.state
		j.mu.Unlock()
		writeError(w, http.StatusConflict, "job %s already %s", j.id, state)
		return
	case j.state == StateQueued:
		// Flip to cancelled right away; the worker skips it on pop. The
		// counters move first, as in runJob.
		s.m.queued.Add(-1)
		s.m.settled[StateCancelled].Inc()
		j.cancelled = true
		j.state = StateCancelled
		close(j.doneCh)
		j.mu.Unlock()
		// A client's cancellation is a decision, not an accident: journal
		// it so the job stays cancelled across restarts.
		s.journalTerminal(j, StateCancelled, "", nil)
		s.noteSettled(j)
	default: // running
		j.cancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // the worker observes ctx and finishes as cancelled
		}
	}
	j.notify()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams a job's progress: a "progress" frame with the
// status up front and on every change, then the terminal "done" frame.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		s.serveSSE(w, r, j, false, func(emit emitFunc) { emit("progress", j.status()) })
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the registry in Prometheus text exposition
// format. The pre-registry flat-JSON counter view survives behind
// ?format=json for scripts that scraped the old endpoint; json.Marshal
// sorts map keys, so both formats render in stable order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, map[string]int64{
			"jobs_queued":      int64(s.m.queued.Value()),
			"jobs_running":     int64(s.m.running.Value()),
			"jobs_done":        int64(s.m.settled[StateDone].Value()),
			"jobs_failed":      int64(s.m.settled[StateFailed].Value()),
			"jobs_cancelled":   int64(s.m.settled[StateCancelled].Value()),
			"jobs_timeout":     int64(s.m.settled[StateTimeout].Value()),
			"job_retries":      int64(s.m.retries.Value()),
			"points_completed": int64(s.m.points.Value()),
		})
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.reg.WritePrometheus(w)
}

// traceArtifact is the /trace view of a job: its retained engine
// events, or nil for jobs submitted without "trace": true.
func traceArtifact(j *job) *artifactView {
	if j.ring == nil {
		return nil
	}
	evs := j.ring.Events()
	out := TraceResponse{
		ID:       j.id,
		Total:    j.ring.Total(),
		Retained: len(evs),
		Events:   make([]TraceEvent, len(evs)),
	}
	for i, e := range evs {
		fields := make(map[string]any, len(e.Fields))
		for _, f := range e.Fields {
			fields[f.Key] = f.Value
		}
		out.Events[i] = TraceEvent{At: e.At, Level: e.Level.String(), Kind: e.Kind, Fields: fields}
	}
	return &artifactView{json: out}
}

// spansArtifact is the /spans view of a job (nil for jobs submitted
// without "spans": true): every recorded span — coordinator-side
// campaign structure, lease attempts, imported worker timelines — in a
// stable order with the drop count, as JSON or as a self-contained HTML
// waterfall.
func spansArtifact(j *job) *artifactView {
	if j.spans == nil {
		return nil
	}
	recs := j.spans.Snapshot()
	out := SpansResponse{
		ID:       j.id,
		TraceID:  j.spans.TraceID(),
		Retained: len(recs),
		Dropped:  j.spans.Dropped(),
		Spans:    recs,
	}
	return &artifactView{
		json: out,
		html: func(w io.Writer) error {
			rep := report.NewHTMLReport("Trace " + j.id)
			rep.AddKeyValues("Trace", [][2]string{
				{"Job", j.id},
				{"Trace ID", out.TraceID},
				{"Spans", strconv.Itoa(len(recs))},
				{"Dropped", strconv.FormatUint(out.Dropped, 10)},
			})
			rep.AddWaterfall("Campaign waterfall", recs)
			return rep.Render(w)
		},
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.safeRun(j)
	}
}

// safeRun isolates one job execution: a panic that escapes the
// simulation layer's own recovery (a bug in the server glue itself)
// fails only this job — stack in the job record — and the worker lives
// on to serve the next one.
func (s *Server) safeRun(j *job) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := string(debug.Stack())
		j.mu.Lock()
		if j.state.Terminal() {
			// The panic struck after the job settled; its record and the
			// metrics are already consistent.
			j.mu.Unlock()
			return
		}
		// Count the job before publishing its state, as runJob does.
		if j.state == StateRunning {
			s.m.running.Add(-1)
		} else {
			s.m.queued.Add(-1)
		}
		s.m.settled[StateFailed].Inc()
		j.cancel = nil
		j.state = StateFailed
		j.err = fmt.Sprintf("panic: %v\n%s", r, stack)
		errMsg := j.err
		close(j.doneCh)
		j.mu.Unlock()
		s.log.ErrorContext(obs.WithJobID(context.Background(), j.id), "job panicked", "panic", fmt.Sprint(r))
		s.journalTerminal(j, StateFailed, errMsg, nil)
		s.noteSettled(j)
		j.notify()
	}()
	s.runJob(j)
}

// runJob executes one job end to end — attempts, timeout, retries — and
// settles its terminal state.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state.Terminal() {
		// Cancelled while queued; the cancel handler already settled it.
		j.mu.Unlock()
		return
	}
	if s.baseCtx.Err() != nil {
		// Force-shutdown before starting: cancelled, with no terminal
		// record, so a restart picks the job back up. The counters move
		// before the state is published, so a client that sees the job
		// settled and scrapes /metrics at once finds it counted.
		s.m.queued.Add(-1)
		s.m.settled[StateCancelled].Inc()
		j.state = StateCancelled
		close(j.doneCh)
		j.mu.Unlock()
		s.noteSettled(j)
		j.notify()
		return
	}
	runCtx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	// The timeout wraps all attempts: a job's deadline is a budget for
	// finishing, not a per-try allowance.
	jobCtx := runCtx
	if j.spec.TimeoutSec > 0 {
		var tcancel context.CancelFunc
		jobCtx, tcancel = context.WithTimeout(runCtx, time.Duration(j.spec.TimeoutSec*float64(time.Second)))
		defer tcancel()
	}
	j.cancel = cancel
	j.state = StateRunning
	j.mu.Unlock()
	s.m.queued.Add(-1)
	s.m.running.Add(1)
	s.m.queueWait.Observe(time.Since(j.acceptedAt).Seconds())
	jctx := obs.WithJobID(context.Background(), j.id)
	s.log.InfoContext(jctx, "job started",
		"kind", j.spec.Kind, "queue_wait_sec", time.Since(j.acceptedAt).Seconds())
	j.notify()

	start := time.Now()
	// A span-traced job records its whole run under one root span; the
	// root's parent is zero for locally submitted jobs and the remote
	// lease span for jobs a coordinator leased here, which is what
	// stitches the two daemons' timelines into one trace. Span durations
	// also fold into the span_duration_seconds histogram by span name.
	var jobSpan *span.Span
	if j.spans != nil {
		j.spans.OnEnd(func(name string, seconds float64) {
			s.reg.Histogram("span_duration_seconds",
				"Durations of campaign pipeline spans by span name.",
				obs.DefBuckets, obs.L("span", name)).Observe(seconds)
		})
		jobSpan = j.spans.Start(j.spanParent, "job.run")
		jobSpan.SetStr("kind", j.spec.Kind)
		if j.spec.Figure != "" {
			jobSpan.SetStr("figure", j.spec.Figure)
		}
	}
	prof := j.spec.Profile
	// Campaign telemetry flows into the server's registry: point
	// durations land in point_run_seconds, and every point's engine
	// counters — whether it ran here, on a worker or came from the cache —
	// fold into the job-level aggregate snapshotted below.
	engStats := new(sched.Stats)
	prof.Progress = func(st sched.RunStats) {
		engStats.Add(st)
		j.done.Add(1)
		s.m.points.Inc()
		j.notify()
		if s.pointGate != nil {
			s.pointGate()
		}
	}
	prof.Metrics = s.reg
	prof.Logger = s.log
	// Campaign points route through the dispatcher: answered from the
	// content-addressed cache when possible, leased to cluster workers
	// when a pool has capacity, run locally otherwise. The runner
	// bypasses the hook on its own whenever the job carries in-process
	// instrumentation (see Profile.InProcess) that only a local run can
	// feed.
	prof.RunPoints = s.dispatcher.Runner(cluster.JobMeta{
		ID: j.id, RequestID: j.reqID, Trace: j.spans, Parent: jobSpan.ID(),
	})
	prof.RecordersFor = j.recordersFor()
	if j.spans != nil && prof.InProcess() {
		// In-process instrumentation forces the campaign to run locally
		// (RunManyCtx bypasses RunPoints), so the dispatcher never sees
		// these points: hang each engine run directly under job.run.
		prof.PointSpan = func(i int, spec experiments.RunSpec) func(error) {
			sp := j.spans.Start(jobSpan.ID(), "engine.run")
			sp.SetInt("index", int64(i))
			sp.SetStr("policy", string(spec.Policy))
			return func(err error) {
				if err != nil {
					sp.SetStr("error", err.Error())
				}
				sp.End()
			}
		}
	}

	var (
		figures []experiments.Figure
		points  []PointResult
		full    []sched.Result
		err     error
	)
	for attempt := 0; ; attempt++ {
		j.mu.Lock()
		j.attempts = attempt + 1
		j.mu.Unlock()
		// A retry re-runs every point, so the progress counter restarts —
		// and so do the recorded series, or stale recorders from the
		// failed attempt would double up in responses.
		j.done.Store(0)
		if j.series != nil && attempt > 0 {
			j.series.reset()
		}
		if j.decisions != nil && attempt > 0 {
			j.decisions.reset()
		}
		figures, points, full, err = s.execute(jobCtx, j, prof, attempt)
		if err == nil || !errors.Is(err, ErrTransient) ||
			attempt >= j.spec.MaxRetries || jobCtx.Err() != nil {
			break
		}
		s.m.retries.Inc()
		s.log.WarnContext(jctx, "job retrying after transient fault", "attempt", attempt+1, "error", err.Error())
		backoff := time.NewTimer(s.retryBase << attempt)
		select {
		case <-jobCtx.Done():
			backoff.Stop()
		case <-backoff.C:
		}
	}
	elapsed := time.Since(start).Seconds()

	// Settle in three steps: decide the outcome, fold every counter the
	// job moves, then publish the state. A client that sees the job
	// settled and scrapes /metrics at once finds it counted. s.mu is
	// taken only after the publish, and never under j.mu.
	j.mu.Lock()
	j.cancel = nil
	var state State
	failure := "" // the error a timeout or failure records
	journalIt := true
	switch {
	case err == nil:
		state = StateDone
	case jobCtx.Err() == context.DeadlineExceeded && runCtx.Err() == nil:
		state = StateTimeout
		failure = fmt.Sprintf("timed out after %gs", j.spec.TimeoutSec)
	case j.cancelled:
		state = StateCancelled
	case errors.Is(err, context.Canceled) || runCtx.Err() != nil:
		// Shutdown took the job down, not a client: leave no terminal
		// record so a restart picks the job back up, exactly as after a
		// crash.
		state = StateCancelled
		journalIt = false
	default:
		state = StateFailed
		failure = err.Error()
	}
	attempts := j.attempts
	j.mu.Unlock()

	snap := engStats.Snapshot()
	s.m.running.Add(-1)
	s.m.settled[state].Inc()
	s.m.runSeconds[state].Observe(elapsed)
	s.foldMu.Lock()
	s.m.foldEngine(snap)
	s.foldMu.Unlock()
	if j.decisions != nil {
		s.foldDecisionMetrics(j.decisions)
	}
	// Only a journal reads the terminal record's result: without one
	// (a worker, or a daemon without -spool) there is nothing to marshal.
	var termResult json.RawMessage
	if state == StateDone && s.jn != nil {
		termResult, _ = json.Marshal(JobResult{ID: j.id, Figures: figures, Points: points})
	}

	j.mu.Lock()
	j.state = state
	if state == StateDone {
		j.figures, j.points, j.results = figures, points, full
	}
	if failure != "" {
		j.err = failure
	}
	errMsg := j.err
	j.engine = &snap
	// The root span ends before the state is published: a client that
	// fetches /spans the instant the job reads as settled must find it.
	// (Span.End takes only the span's own locks.)
	if jobSpan != nil {
		jobSpan.SetStr("state", string(state))
		jobSpan.End()
	}
	close(j.doneCh)
	j.mu.Unlock()
	if s.settleGate != nil {
		s.settleGate()
	}
	s.mu.Lock()
	s.durSum += elapsed
	s.durN++
	s.mu.Unlock()
	s.noteSettled(j)
	s.log.InfoContext(jctx, "job settled",
		"state", string(state), "seconds", elapsed, "attempts", attempts, "error", errMsg)
	if journalIt {
		s.journalTerminal(j, state, errMsg, termResult)
	}
	j.notify()
}

// execute runs one attempt of the job's workload under ctx. The third
// return is the full per-point engine results, kept only for JobPoints
// jobs that asked for them (keep_results) — the cluster lease shape.
func (s *Server) execute(ctx context.Context, j *job, prof experiments.Profile, attempt int) ([]experiments.Figure, []PointResult, []sched.Result, error) {
	if s.faultInject != nil {
		if err := s.faultInject(attempt); err != nil {
			return nil, nil, nil, err
		}
	}
	switch j.spec.Kind {
	case config.JobFigure:
		// The exact code path the CLIs use, so the daemon's results are
		// bit-identical to theirs.
		figures, err := experiments.Figures(ctx, prof, j.spec.Figure)
		return figures, nil, nil, err
	case config.JobPoints:
		results, err := experiments.RunManyCtx(ctx, prof, j.spec.Points)
		if err != nil {
			return nil, nil, nil, err
		}
		points := make([]PointResult, len(results))
		for i, res := range results {
			points[i] = summarizePoint(j.spec.Points[i], res)
		}
		var full []sched.Result
		if j.spec.KeepResults {
			// The Collector (counters and cycle log) never crosses the wire:
			// no summary or figure reads it, and it can dwarf the result
			// scalars.
			full = make([]sched.Result, len(results))
			copy(full, results)
			for i := range full {
				full[i].Collector = nil
			}
		}
		return nil, points, full, nil
	case config.JobScale:
		// One scenario, one point. Like any single point it is not
		// cancellable mid-run; the deadline is checked before starting.
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		c, err := j.spec.Scale.Config()
		if err != nil {
			return nil, nil, nil, err
		}
		// The run is the job's point 0: it feeds the job's recorders and
		// reports its engine counters like any profile-driven point.
		spec := experiments.RunSpec{Policy: c.Policy, NumTasks: c.NumTasks, Seed: c.Seed}
		if prof.RecordersFor != nil {
			c.Recorders = prof.RecordersFor(0, spec)
		}
		res, err := experiments.RunScale(c)
		if err != nil {
			return nil, nil, nil, err
		}
		prof.Progress(res.Stats)
		return nil, []PointResult{summarizePoint(spec, res)}, nil, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown job kind %q", j.spec.Kind)
	}
}
