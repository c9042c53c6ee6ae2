package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"rlsched/internal/cache"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/obs"
	"rlsched/internal/obs/span"
	"rlsched/internal/sched"
)

// Dispatcher defaults; see Options.
const (
	// DefaultLeaseTimeout bounds each individual lease HTTP call.
	DefaultLeaseTimeout = 15 * time.Second
	// DefaultRetryBase seeds the exponential backoff after a transient
	// lease failure; DefaultRetryCap bounds its growth.
	DefaultRetryBase = 100 * time.Millisecond
	DefaultRetryCap  = 5 * time.Second
	// DefaultHedgeAfter floors the hedge deadline: a point must straggle
	// at least this long (and past 3x the p95 lease latency) before it is
	// duplicated to a second worker.
	DefaultHedgeAfter = time.Second
	// hedgeSamples is how many recent lease durations feed the hedge
	// deadline's latency percentile.
	hedgeSamples = 128
)

// Options configures a Dispatcher.
type Options struct {
	// Cache is the content-addressed result store. Required.
	Cache *cache.Store
	// Pool supplies lease targets; nil runs every cache miss locally
	// (the standalone and worker shapes — still cached, never fanned
	// out).
	Pool *Pool
	// Registry receives the dispatcher's counters; nil uses a private
	// registry (the counters still work, nobody scrapes them).
	Registry *obs.Registry
	// Logger receives lease lifecycle warnings. Nil discards them.
	Logger *slog.Logger
	// Client issues lease requests; nil uses a private client without a
	// global timeout (each individual call is bounded by LeaseTimeout;
	// the lease as a whole lasts as long as the point runs).
	Client *http.Client
	// LeaseTimeout bounds each individual lease HTTP call (one submit,
	// one status long poll, one result fetch); 0 selects
	// DefaultLeaseTimeout. A stalled worker connection becomes a
	// transient, re-leasable failure instead of a hung campaign.
	LeaseTimeout time.Duration
	// RetryBase/RetryCap shape the capped exponential backoff (with
	// deterministic jitter, see backoffDelay) a worker sits out after a
	// transient lease failure; 0 selects the defaults.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter floors the hedge deadline; 0 selects DefaultHedgeAfter,
	// negative disables hedging entirely. Hedging a deterministic,
	// content-addressed point is safe: whichever copy finishes first
	// wins, and both produce identical bytes.
	HedgeAfter time.Duration
}

// Dispatcher executes campaigns through the cache and, when a pool is
// attached, across the pool's workers. Plug it into a job with Runner.
type Dispatcher struct {
	cache *cache.Store
	pool  *Pool
	log   *slog.Logger
	cl    *client

	retryBase, retryCap time.Duration
	hedgeFloor          time.Duration
	hedgeOff            bool

	reg *obs.Registry

	cached, remote, local *obs.Counter
	leaseRetries          *obs.Counter
	hedges, hedgeWins     *obs.Counter
	leasesActive          *obs.Gauge

	// Completed-lease latency ring feeding the hedge deadline.
	lmu    sync.Mutex
	lats   []time.Duration
	latPos int
}

// NewDispatcher wires a dispatcher; see Options.
func NewDispatcher(opts Options) *Dispatcher {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	leaseTimeout := opts.LeaseTimeout
	if leaseTimeout <= 0 {
		leaseTimeout = DefaultLeaseTimeout
	}
	retryBase := opts.RetryBase
	if retryBase <= 0 {
		retryBase = DefaultRetryBase
	}
	retryCap := opts.RetryCap
	if retryCap <= 0 {
		retryCap = DefaultRetryCap
	}
	hedgeFloor := opts.HedgeAfter
	if hedgeFloor == 0 {
		hedgeFloor = DefaultHedgeAfter
	}
	return &Dispatcher{
		cache:      opts.Cache,
		pool:       opts.Pool,
		log:        log,
		reg:        reg,
		cl:         &client{hc: hc, timeout: leaseTimeout},
		retryBase:  retryBase,
		retryCap:   retryCap,
		hedgeFloor: hedgeFloor,
		hedgeOff:   opts.HedgeAfter < 0,
		cached: reg.Counter("cluster_points_cached_total",
			"Campaign points served from the content-addressed result cache."),
		remote: reg.Counter("cluster_points_remote_total",
			"Campaign points executed on cluster workers."),
		local: reg.Counter("cluster_points_local_total",
			"Campaign points executed locally by the dispatcher (no worker available)."),
		leaseRetries: reg.Counter("cluster_lease_retries_total",
			"Leases re-issued after a worker was lost mid-point."),
		hedges: reg.Counter("cluster_hedges_total",
			"Straggling leases duplicated to a second worker after the hedge deadline."),
		hedgeWins: reg.Counter("cluster_hedge_wins_total",
			"Hedged leases where the duplicate finished before the original."),
		leasesActive: reg.Gauge("cluster_leases_active",
			"Leases currently in flight on cluster workers."),
	}
}

// leaseObserve records one lease attempt's duration into the
// cluster_lease_duration_seconds histogram, labelled by worker and
// outcome ("ok", "late", "transient", "deterministic") — the /metrics
// view of the latency distribution whose p95 sets the hedge deadline.
func (d *Dispatcher) leaseObserve(worker, outcome string, seconds float64) {
	d.reg.Histogram("cluster_lease_duration_seconds",
		"Duration of individual point-lease attempts by worker and outcome.",
		obs.DefBuckets, obs.L("worker", worker), obs.L("outcome", outcome)).Observe(seconds)
}

// observeLease feeds one completed lease duration into the latency ring.
func (d *Dispatcher) observeLease(dur time.Duration) {
	d.lmu.Lock()
	defer d.lmu.Unlock()
	if len(d.lats) < hedgeSamples {
		d.lats = append(d.lats, dur)
		return
	}
	d.lats[d.latPos] = dur
	d.latPos = (d.latPos + 1) % hedgeSamples
}

// hedgeDelay is how long a lease may straggle before it is duplicated:
// 3x the p95 of recent lease completions, floored by HedgeAfter so a
// cold dispatcher (or one with uniformly fast leases) never hedges on
// noise.
func (d *Dispatcher) hedgeDelay() time.Duration {
	d.lmu.Lock()
	cp := append([]time.Duration(nil), d.lats...)
	d.lmu.Unlock()
	if len(cp) < 8 {
		return d.hedgeFloor
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	p95 := cp[len(cp)*95/100]
	if dl := 3 * p95; dl > d.hedgeFloor {
		return dl
	}
	return d.hedgeFloor
}

// JobMeta identifies the job a Runner executes on behalf of. The ID
// names the job in lease descriptions and logs; RequestID, when
// set, rides every lease call as X-Request-ID so worker-side logs
// correlate with the coordinator request that caused them; Trace, when
// non-nil, collects the campaign's distributed spans under Parent (the
// job's own root span). A nil Trace disables all span work — every hook
// below costs a nil check.
type JobMeta struct {
	ID        string
	RequestID string
	Trace     *span.Trace
	Parent    span.ID
}

// Runner returns a Profile.RunPoints executor bound to one job; see
// JobMeta for what the binding carries.
func (d *Dispatcher) Runner(meta JobMeta) func(context.Context, experiments.Profile, []experiments.RunSpec) ([]sched.Result, error) {
	return func(ctx context.Context, p experiments.Profile, specs []experiments.RunSpec) ([]sched.Result, error) {
		return d.run(ctx, meta, p, specs)
	}
}

// encodeResult marshals a point result for the cache and the wire. The
// Collector (per-task records for post-hoc analysis) is dropped: no
// figure or summary reads it, and it can dwarf the result scalars.
func encodeResult(r sched.Result) ([]byte, error) {
	r.Collector = nil
	return json.Marshal(r)
}

// finishPoint reports a point served from cache or computed remotely to
// the campaign's progress hook; the local runner reports its own points.
func finishPoint(p experiments.Profile, r sched.Result) {
	if p.Progress != nil {
		p.Progress(r.Stats)
	}
}

// run executes one campaign: cache pass, worker fan-out, local
// remainder. Results come back in spec order, bit-identical to a local
// run; on failure the lowest-index failing point's error is returned,
// mirroring the local runner. When meta carries a span trace, the whole
// pipeline is recorded under a campaign root span: one point span per
// spec, with cache.lookup / lease.attempt / hedge / breaker /
// local.fallback children — none of which exist (or allocate) on an
// untraced run.
func (d *Dispatcher) run(ctx context.Context, meta JobMeta, p experiments.Profile, specs []experiments.RunSpec) ([]sched.Result, error) {
	camp := meta.Trace.Start(meta.Parent, "campaign")
	camp.SetInt("points", int64(len(specs)))
	defer camp.End()
	var pointSpans []*span.Span
	if meta.Trace != nil {
		pointSpans = make([]*span.Span, len(specs))
	}

	// One keyer per campaign: the profile is canonicalised here once, and
	// each point below canonicalises only its spec.
	keyer, err := cache.NewKeyer(p.CacheFingerprint())
	if err != nil {
		return nil, fmt.Errorf("cluster: keying campaign: %w", err)
	}
	results := make([]sched.Result, len(specs))
	keys := make([]string, len(specs))
	var missing []int
	for i, spec := range specs {
		sp := meta.Trace.Start(camp.ID(), "point")
		if pointSpans != nil {
			pointSpans[i] = sp
			sp.SetInt("index", int64(i))
			sp.SetStr("policy", string(spec.Policy))
			sp.SetInt("tasks", int64(spec.NumTasks))
		}
		key, err := keyer.Key(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: keying point %d: %w", i, err)
		}
		keys[i] = key
		cl := meta.Trace.Start(sp.ID(), "cache.lookup")
		raw, tier := d.cache.GetTier(key)
		cl.SetStr("tier", string(tier))
		if tier != cache.TierMiss {
			var r sched.Result
			if err := json.Unmarshal(raw, &r); err == nil {
				cl.End()
				results[i] = r
				d.cached.Inc()
				sp.SetStr("outcome", "cached")
				sp.End()
				finishPoint(p, r)
				continue
			}
			// An undecodable value under a good envelope: treat as a miss
			// and recompute; the Put below overwrites it.
			cl.SetBool("undecodable", true)
		}
		cl.End()
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return results, nil
	}

	if d.pool != nil {
		missing, err = d.fanOut(ctx, meta, p, specs, keys, results, missing, pointSpans)
		if err != nil {
			return nil, err
		}
	}
	if len(missing) == 0 {
		return results, nil
	}

	// Local remainder: no workers (or none left alive). One batched run
	// preserves the profile's own point parallelism; the profile copy
	// drops RunPoints so the batch cannot recurse into the dispatcher.
	// Its points reach the cache only when the whole batch returns (none
	// when it fails), so a crash mid-batch re-runs them all on resume.
	sort.Ints(missing)
	local := p
	local.RunPoints = nil
	batch := make([]experiments.RunSpec, len(missing))
	for k, i := range missing {
		batch[k] = specs[i]
	}
	if meta.Trace != nil {
		// Bracket each locally run point with a span under its point
		// span: local.fallback when a cluster fan-out left this point
		// behind, engine.run when the run was always going to be local
		// (worker daemons have no pool; standalone daemons keep an empty
		// one for runtime registration). Batch index k maps back through
		// missing.
		name := "engine.run"
		if d.pool != nil && d.pool.AliveCount() > 0 {
			name = "local.fallback"
		}
		remainder := append([]int(nil), missing...)
		local.PointSpan = func(k int, _ experiments.RunSpec) func(error) {
			ls := meta.Trace.Start(pointSpans[remainder[k]].ID(), name)
			return func(err error) {
				if err != nil {
					ls.SetStr("error", err.Error())
				}
				ls.End()
			}
		}
	}
	out, err := experiments.RunManyCtx(ctx, local, batch)
	if err != nil {
		return nil, err
	}
	for k, i := range missing {
		results[i] = out[k]
		d.local.Inc()
		d.putPoint(meta.ID, i, keys[i], out[k])
		if pointSpans != nil {
			pointSpans[i].SetStr("outcome", "local")
			pointSpans[i].End()
		}
	}
	return results, nil
}

// putPoint stores one computed result in the cache; a disk-backed cache
// serves it again to a job re-run after a crash.
func (d *Dispatcher) putPoint(jobID string, i int, key string, r sched.Result) {
	data, err := encodeResult(r)
	if err != nil {
		d.log.Warn("cluster: point result not cacheable", "job", jobID, "point", i, "error", err.Error())
		return
	}
	if err := d.cache.Put(key, data); err != nil {
		d.log.Warn("cluster: cache put failed", "job", jobID, "point", i, "error", err.Error())
	}
}

// flight is one point currently leased out during a fan-out.
type flight struct {
	idx     int
	start   time.Time
	holders map[string]bool // worker URLs currently leasing this point
	hedged  bool            // a duplicate lease was issued
	done    bool            // a result was accepted; late copies are discarded
	cancels []context.CancelFunc
}

// fan-out worker modes returned by the shared scheduler.
const (
	modeExit = iota // nothing left (or the campaign failed): leave
	// modeWait: the queue is empty but points are in flight. The worker
	// sleeps until a flight settles or requeues, the campaign fails, or
	// a straggler reaches its hedge deadline.
	modeWait
	modeFresh // a fresh point was popped from the queue
	modeHedge // a straggling flight was duplicated to this worker
)

// fanOut leases the missing points to alive workers — one in-flight
// lease per worker — and returns the indices it could not place (every
// worker's breaker open with work left, or no workers alive at all).
// Transient lease failures requeue the point and cost the worker a
// backoff (capped exponential with deterministic jitter) and a breaker
// strike; a straggling lease past the hedge deadline is duplicated to
// an idle worker, first valid result wins. A deterministic point
// failure stops the fan-out and is returned for the lowest failing
// index, exactly like the local runner's forEachPoint.
func (d *Dispatcher) fanOut(ctx context.Context, meta JobMeta, p experiments.Profile, specs []experiments.RunSpec, keys []string, results []sched.Result, missing []int, pointSpans []*span.Span) ([]int, error) {
	workers := d.pool.Alive()
	if len(workers) == 0 {
		return missing, nil
	}
	// psp resolves a point's span (nil when the campaign is untraced).
	psp := func(i int) *span.Span {
		if pointSpans == nil {
			return nil
		}
		return pointSpans[i]
	}

	var (
		mu       sync.Mutex
		queue    = append([]int(nil), missing...)
		inflight = make(map[int]*flight)
		tries    = make([]int, len(specs))
		errIdx   = len(specs)
		firstEr  error
		// wake is closed and replaced (under mu) whenever a flight
		// settles, a point is requeued or the campaign fails: the events
		// that can hand an idle worker new work or let it leave.
		wake = make(chan struct{})
	)
	broadcast := func() {
		close(wake)
		wake = make(chan struct{})
	}
	// next hands a worker its next unit: a fresh point if the queue has
	// one, else the oldest hedgeable straggler, else wait/exit. In
	// modeWait it also returns the channel to sleep on and how long until
	// the next straggler this worker could hedge crosses the hedge
	// deadline (0: none).
	next := func(w string) (*flight, int, <-chan struct{}, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if firstEr != nil {
			return nil, modeExit, nil, 0
		}
		if len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			fl := &flight{idx: i, start: time.Now(), holders: map[string]bool{w: true}}
			inflight[i] = fl
			return fl, modeFresh, nil, 0
		}
		if len(inflight) == 0 {
			return nil, modeExit, nil, 0
		}
		var due time.Duration
		if !d.hedgeOff {
			delay := d.hedgeDelay()
			var best *flight
			for _, fl := range inflight {
				if fl.done || fl.hedged || fl.holders[w] {
					continue
				}
				if left := delay - time.Since(fl.start); left > 0 {
					if due == 0 || left < due {
						due = left
					}
					continue
				}
				if best == nil || fl.start.Before(best.start) ||
					(fl.start.Equal(best.start) && fl.idx < best.idx) {
					best = fl
				}
			}
			if best != nil {
				best.hedged = true
				best.holders[w] = true
				return best, modeHedge, nil, 0
			}
		}
		return nil, modeWait, wake, due
	}
	record := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		broadcast()
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			attempt := 0
			for ctx.Err() == nil {
				fl, mode, woken, due := next(url)
				switch mode {
				case modeExit:
					return
				case modeWait:
					var (
						t        *time.Timer
						hedgeDue <-chan time.Time
					)
					if due > 0 {
						t = time.NewTimer(due)
						hedgeDue = t.C
					}
					select {
					case <-ctx.Done():
					case <-woken:
					case <-hedgeDue:
					}
					if t != nil {
						t.Stop()
					}
					continue
				case modeHedge:
					d.hedges.Inc()
					d.log.Info("cluster: hedging straggling point",
						"job", meta.ID, "point", fl.idx, "worker", url)
					// The hedge itself is a zero-width marker span; the
					// duplicate lease below records like any other attempt.
					h := meta.Trace.Start(psp(fl.idx).ID(), "hedge")
					h.SetStr("worker", url)
					h.End()
				}
				mu.Lock()
				tries[fl.idx]++
				try := tries[fl.idx]
				mu.Unlock()
				lsp := meta.Trace.Start(psp(fl.idx).ID(), "lease.attempt")
				lsp.SetStr("worker", url)
				lsp.SetInt("try", int64(try))
				if mode == modeHedge {
					lsp.SetBool("hedge", true)
				}
				leaseStart := time.Now()
				lctx, lcancel := context.WithCancel(ctx)
				mu.Lock()
				fl.cancels = append(fl.cancels, lcancel)
				mu.Unlock()
				res, lerr := d.leasePoint(lctx, url, meta, p, specs[fl.idx], fl.idx, lsp)
				lcancel()
				leaseSecs := time.Since(leaseStart).Seconds()
				if lerr == nil {
					mu.Lock()
					if fl.done {
						// The other copy of a hedged pair delivered first;
						// results are byte-identical, so just drop this one.
						mu.Unlock()
						lsp.SetStr("outcome", "late")
						lsp.End()
						d.leaseObserve(url, "late", leaseSecs)
						continue
					}
					fl.done = true
					delete(inflight, fl.idx)
					cancels := append([]context.CancelFunc(nil), fl.cancels...)
					results[fl.idx] = res
					broadcast()
					mu.Unlock()
					// First valid result wins: reclaim the loser's lease.
					for _, c := range cancels {
						c()
					}
					lsp.SetStr("outcome", "ok")
					lsp.End()
					d.leaseObserve(url, "ok", leaseSecs)
					if ps := psp(fl.idx); ps != nil {
						ps.SetStr("outcome", "remote")
						ps.End()
					}
					d.remote.Inc()
					if mode == modeHedge {
						d.hedgeWins.Inc()
					}
					d.observeLease(time.Since(leaseStart))
					d.pool.countLease(url)
					d.putPoint(meta.ID, fl.idx, keys[fl.idx], res)
					finishPoint(p, res)
					attempt = 0
					continue
				}
				mu.Lock()
				wasDone := fl.done
				if !wasDone {
					delete(fl.holders, url)
					if len(fl.holders) == 0 {
						delete(inflight, fl.idx)
						if lerr.transient {
							queue = append(queue, fl.idx)
							broadcast()
						}
					}
				}
				mu.Unlock()
				outcome := "transient"
				switch {
				case wasDone:
					outcome = "late"
				case !lerr.transient:
					outcome = "deterministic"
				}
				if !wasDone {
					lsp.SetStr("error", lerr.Error())
				}
				lsp.SetStr("outcome", outcome)
				lsp.End()
				d.leaseObserve(url, outcome, leaseSecs)
				if wasDone {
					// The hedge winner cancelled this lease; the point is
					// delivered and this is not the worker's fault.
					continue
				}
				if !lerr.transient {
					// Deterministic failure: re-running this spec anywhere
					// reproduces it, so it fails the campaign at this index.
					if ps := psp(fl.idx); ps != nil {
						ps.SetStr("outcome", "error")
						ps.End()
					}
					record(fl.idx, fmt.Errorf("point %d (%s n=%d cv=%g seed=%d): worker %s: %s",
						fl.idx, specs[fl.idx].Policy, specs[fl.idx].NumTasks, specs[fl.idx].HeterogeneityCV,
						specs[fl.idx].Seed, url, lerr.Error()))
					return
				}
				// The worker faltered, not the point: the index is already
				// requeued for a surviving worker (or the local remainder);
				// this worker takes a breaker strike and sits out a backoff.
				d.leaseRetries.Inc()
				d.pool.ReportFailure(url)
				d.log.Warn("cluster: lease lost, re-issuing point",
					"job", meta.ID, "point", fl.idx, "worker", url, "error", lerr.Error())
				if !d.pool.usable(url) {
					// The strike opened the worker's breaker: a marker span
					// records which point's failure tripped it.
					b := meta.Trace.Start(psp(fl.idx).ID(), "breaker")
					b.SetStr("worker", url)
					b.End()
					d.log.Warn("cluster: worker retired from fan-out",
						"job", meta.ID, "worker", url)
					return
				}
				attempt++
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoffDelay(d.retryBase, d.retryCap, url, attempt)):
				}
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu.Lock()
	left := append([]int(nil), queue...)
	mu.Unlock()
	return left, nil
}

// leasePoint runs one point on one worker: submit a single-point
// keep_results job, wait for it to settle, fetch the full result. On a
// span-traced campaign the submit carries a traceparent naming this
// attempt's span as the remote parent, and the worker's own
// spans are fetched and folded into the campaign trace afterwards — so
// the worker-side job.run / engine.run timeline stitches under the
// lease attempt that caused it.
func (d *Dispatcher) leasePoint(ctx context.Context, url string, meta JobMeta, p experiments.Profile, spec experiments.RunSpec, i int, lsp *span.Span) (sched.Result, *leaseError) {
	d.leasesActive.Add(1)
	defer d.leasesActive.Add(-1)

	lm := leaseMeta{reqID: meta.RequestID}
	if meta.Trace != nil {
		lm.traceparent = span.FormatTraceparent(meta.Trace.TraceID(), lsp.ID())
	}
	// The lease carries the campaign's own profile (runtime hooks are
	// json:"-" and never cross the wire); the worker re-derives the same
	// cache fingerprint from it, so coordinator and worker agree on keys.
	js := config.JobSpec{
		Description: fmt.Sprintf("lease %s point %d", meta.ID, i),
		Kind:        config.JobPoints,
		Points:      []experiments.RunSpec{spec},
		KeepResults: true,
		Spans:       meta.Trace != nil,
		Profile:     p,
	}
	id, lerr := d.cl.submit(ctx, url, js, lm)
	if lerr != nil {
		return sched.Result{}, lerr
	}
	st, lerr := d.cl.wait(ctx, url, id, lm)
	if lerr != nil {
		return sched.Result{}, lerr
	}
	switch st.State {
	case "done":
	case "failed", "timeout":
		return sched.Result{}, deterministicf("%s", st.Error)
	default: // cancelled: the worker is going away, not the point
		return sched.Result{}, transientf("cluster: worker %s cancelled leased job %s", url, id)
	}
	rs, lerr := d.cl.fullResults(ctx, url, id, lm)
	if lerr != nil {
		return sched.Result{}, lerr
	}
	if len(rs) != 1 {
		return sched.Result{}, transientf("cluster: worker %s returned %d results for a single-point lease", url, len(rs))
	}
	if meta.Trace != nil {
		// Best effort: the result is already in hand, so a failed span
		// fetch loses telemetry, never the point — but it is counted as
		// a drop so the trace cannot silently understate.
		recs, dropped, err := d.cl.spans(ctx, url, id, lm)
		if err != nil {
			meta.Trace.NoteDrops(1)
			d.log.Warn("cluster: worker span fetch failed",
				"job", meta.ID, "point", i, "worker", url, "error", err.Error())
		} else {
			meta.Trace.Import(recs, dropped)
		}
	}
	return rs[0], nil
}
