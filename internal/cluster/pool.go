// Package cluster fans campaign points out across peer rlsimd daemons
// and serves repeated points from the content-addressed result cache.
//
// The coordinator keeps a Pool of workers — static peers from the
// -peers flag plus daemons that register themselves at runtime — and a
// Dispatcher that plugs into the experiments runner as a Profile.
// RunPoints executor. For every campaign the dispatcher first answers
// what it can from the cache, then leases the remaining points to alive
// workers (one in-flight lease per worker, each lease a single-point
// job over the worker's ordinary REST API: submitted, long-polled until
// it settles, fetched), and finally runs whatever could not be placed
// locally. Because every point derives all of its
// randomness from its spec, a leased point's result is byte-identical
// to a local run of the same spec — the cluster adds capacity, not
// noise — and a lease lost to a dead worker is simply re-issued.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rlsched/internal/obs"
)

// Defaults for PoolOptions.
const (
	// DefaultHeartbeat is the health-probe interval.
	DefaultHeartbeat = 5 * time.Second
	// DefaultProbeTimeout bounds a single health probe.
	DefaultProbeTimeout = 2 * time.Second
)

// WorkerStatus is the wire snapshot of one pool member, served by GET
// /v1/cluster.
type WorkerStatus struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// Failures counts transport failures observed against this worker:
	// failed health probes and leases lost mid-flight.
	Failures uint64 `json:"failures"`
	// Leased counts points this worker completed for the coordinator.
	Leased uint64 `json:"leased"`
	// Breaker is the worker's circuit-breaker state: "closed",
	// "half-open" or "open".
	Breaker string `json:"breaker"`
}

// worker is the pool's record of one peer daemon.
type worker struct {
	url      string
	alive    bool
	lastOK   time.Time
	failures uint64
	leased   uint64
	brk      breaker
}

// PoolOptions configures a Pool. The zero value is usable.
type PoolOptions struct {
	// Client issues health probes; nil uses a private client with the
	// probe timeout.
	Client *http.Client
	// Heartbeat is the probe interval; 0 selects DefaultHeartbeat.
	Heartbeat time.Duration
	// DeadAfter is the staleness bound on a worker's last successful
	// probe; 0 selects 3x the heartbeat.
	DeadAfter time.Duration
	// ProbeTimeout bounds one health probe; 0 selects
	// DefaultProbeTimeout. Must be below the heartbeat interval, or
	// probes of a black-holed worker pile up on each other.
	ProbeTimeout time.Duration
	// BreakerThreshold is how many consecutive lease/probe failures trip
	// a worker's circuit breaker; 0 selects DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker blocks all traffic
	// to its worker before the half-open trial probe; 0 selects 2x the
	// heartbeat, so recovery takes at most ~3 probe intervals.
	BreakerCooldown time.Duration
	// Logger receives worker state transitions. Nil discards them.
	Logger *slog.Logger
}

// Pool tracks the coordinator's workers and their health. Safe for
// concurrent use.
type Pool struct {
	client       *http.Client
	heartbeat    time.Duration
	deadAfter    time.Duration
	probeTimeout time.Duration
	brkThreshold int
	brkCooldown  time.Duration
	log          *slog.Logger

	mu      sync.Mutex
	workers map[string]*worker
	order   []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPool builds an empty pool; add workers with Add and begin
// heartbeats with Start.
func NewPool(opts PoolOptions) *Pool {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3 * opts.Heartbeat
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: opts.ProbeTimeout}
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * opts.Heartbeat
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	return &Pool{
		client:       opts.Client,
		heartbeat:    opts.Heartbeat,
		deadAfter:    opts.DeadAfter,
		probeTimeout: opts.ProbeTimeout,
		brkThreshold: opts.BreakerThreshold,
		brkCooldown:  opts.BreakerCooldown,
		log:          log,
		workers:      make(map[string]*worker),
		stop:         make(chan struct{}),
	}
}

// NormalizeURL canonicalises a worker base URL (trailing slash
// stripped) and rejects anything that is not http(s) with a host.
func NormalizeURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("cluster: worker URL %q is not an http(s) base URL", raw)
	}
	return strings.TrimSuffix(raw, "/"), nil
}

// Add registers a worker (idempotently: re-adding probes it again) and
// probes its /healthz synchronously, so a successful Add means the
// worker can take leases right now. The probe error is returned but the
// worker stays in the pool either way — the heartbeat loop revives it
// when it comes up.
func (p *Pool) Add(ctx context.Context, rawURL string) error {
	u, err := NormalizeURL(rawURL)
	if err != nil {
		return err
	}
	p.mu.Lock()
	w, ok := p.workers[u]
	if !ok {
		w = &worker{url: u, brk: breaker{threshold: p.brkThreshold, cooldown: p.brkCooldown}}
		p.workers[u] = w
		p.order = append(p.order, u)
	}
	p.mu.Unlock()
	if err := p.probe(ctx, w); err != nil {
		return fmt.Errorf("cluster: worker %s unreachable: %w", u, err)
	}
	return nil
}

// probe hits one worker's /healthz and records the outcome.
func (p *Pool) probe(ctx context.Context, w *worker) error {
	ctx, cancel := context.WithTimeout(ctx, p.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err == nil {
		var resp *http.Response
		resp, err = p.client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz returned %d", resp.StatusCode)
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if w.alive {
			p.log.Warn("cluster worker down", "worker", w.url, "error", err.Error())
		}
		w.alive = false
		w.failures++
		w.brk.failure(time.Now())
		return err
	}
	if !w.alive {
		p.log.Info("cluster worker up", "worker", w.url)
	}
	w.alive = true
	w.lastOK = time.Now()
	// A healthy probe heals a tripped breaker (the half-open trial) but
	// must not erase a lease-failure streak while the breaker is closed:
	// /healthz can be fine while /v1/jobs is broken.
	if w.brk.state != BreakerClosed {
		p.log.Info("cluster worker breaker closed after probe", "worker", w.url)
		w.brk.success()
	}
	return nil
}

// ReportFailure records one failed lease against a worker. It does not
// retire the worker outright: the breaker trips only after
// BreakerThreshold consecutive failures, so one flaky response costs a
// retry, not the worker.
func (p *Pool) ReportFailure(u string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[u]
	if !ok {
		return
	}
	w.failures++
	w.brk.failure(time.Now())
	if w.brk.state == BreakerOpen {
		if w.alive {
			p.log.Warn("cluster worker breaker tripped", "worker", u, "consecutive_failures", w.brk.fails)
		}
		w.alive = false
	}
}

// countLease credits one completed lease to a worker and clears its
// failure streak — a finished lease is the strongest health signal.
func (p *Pool) countLease(u string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w, ok := p.workers[u]; ok {
		w.leased++
		w.brk.success()
	}
}

// usable reports whether the dispatcher should keep offering work to a
// worker: probed alive recently and breaker closed.
func (p *Pool) usable(u string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[u]
	return ok && p.aliveLocked(w)
}

// aliveLocked reports liveness under p.mu: the last probe succeeded, is
// not stale, and the circuit breaker is closed.
func (p *Pool) aliveLocked(w *worker) bool {
	return w.alive && time.Since(w.lastOK) <= p.deadAfter && w.brk.state == BreakerClosed
}

// Alive returns the URLs of workers currently fit for leases, in
// registration order.
func (p *Pool) Alive() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, u := range p.order {
		if p.aliveLocked(p.workers[u]) {
			out = append(out, u)
		}
	}
	return out
}

// AliveCount is len(Alive) without the allocation.
func (p *Pool) AliveCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, u := range p.order {
		if p.aliveLocked(p.workers[u]) {
			n++
		}
	}
	return n
}

// Snapshot returns every worker's status in registration order.
func (p *Pool) Snapshot() []WorkerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]WorkerStatus, 0, len(p.order))
	for _, u := range p.order {
		w := p.workers[u]
		out = append(out, WorkerStatus{
			URL: u, Alive: p.aliveLocked(w), Failures: w.failures, Leased: w.leased,
			Breaker: w.brk.state.String(),
		})
	}
	return out
}

// Start launches the heartbeat loop: every interval, every worker is
// probed, so dead workers revive and silent deaths are noticed without
// waiting for a lease to fail.
func (p *Pool) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// probeAll probes every worker whose breaker admits traffic,
// concurrently. An open breaker inside its cooldown is left alone
// entirely — that is the point of the breaker — and grants exactly one
// half-open trial probe once the cooldown elapses.
func (p *Pool) probeAll() {
	now := time.Now()
	p.mu.Lock()
	ws := make([]*worker, 0, len(p.order))
	for _, u := range p.order {
		w := p.workers[u]
		if w.brk.allow(now) {
			ws = append(ws, w)
		}
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			_ = p.probe(context.Background(), w)
		}(w)
	}
	wg.Wait()
}

// Stop ends the heartbeat loop. Idempotent.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
