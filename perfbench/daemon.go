package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/chaos"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/obs"
	"rlsched/internal/server"
)

// Shape of the daemon workload. A cold job is one Adaptive-RL point large
// enough that a worker is always still running it when the coordinator's
// first lease status poll arrives; smaller points race that poll, so cold
// latency would jump between poll rounds from run to run. A warm job
// resubmits warmPoints distinct points the client has already run, so its
// latency is mostly cache reads and result encoding rather than the three
// loopback round trips every job makes; a one-point warm job took about
// 1 ms and moved 2x between runs with the host's scheduling. One client:
// with two, a warm job often overlapped the other client's cold point on a
// 2-CPU host, and warm latency moved 2-5x between runs.
const (
	daemonClients = 1
	pointsPerJob  = 1
	tasksPerPoint = 1000
	warmPoints    = 16
	// warmJobs is how many warm jobs follow each cold one; warm jobs are
	// short, and more of them steady the warm tail.
	warmJobs = 2
	// cacheMemEntries keeps the coordinator's in-memory cache tier far
	// smaller than a warm job, as in a long-lived daemon whose working set
	// outgrows memory, so warm points are read from the disk spool.
	cacheMemEntries = 1
	// digestJobs is how many cold jobs per client the result digest covers.
	digestJobs = 2
)

// daemonBench drives an in-process coordinator and two worker-mode
// daemons over loopback HTTP.
type daemonBench struct {
	seed    uint64
	scratch string
	t       *tally
}

// daemon is one running cluster and the jobs its clients have run.
type daemon struct {
	b       *daemonBench
	dir     string
	probe   *layerProbe // nil when untraced
	workers []*httptest.Server
	wsrv    []*server.Server
	coord   *httptest.Server
	csrv    *server.Server
	hc      *http.Client

	cold [daemonClients][]coldJob
	// pool holds every point a client has run cold, warm-up included:
	// the points its warm jobs draw from.
	pool [daemonClients][]server.PointResult

	// Filled by a traced window.
	inProcMs []float64
	retries  float64
	hitCold  float64
	hitWarm  float64
	jobs     [2]int // cold, warm jobs in the last window
}

// coldJob is one cold job a client ran: the exact request body, its
// points and the points of its result.
type coldJob struct {
	body   []byte
	specs  []experiments.RunSpec
	points []server.PointResult
}

// jobBody is the wire form of a points job; the daemon fills in the
// default profile.
type jobBody struct {
	Kind   string                `json:"kind"`
	Points []experiments.RunSpec `json:"points"`
}

// coldSpecs generates the points of one cold job, on seeds no other job
// uses.
func coldSpecs(seed uint64, tag string, client, j int) []experiments.RunSpec {
	out := make([]experiments.RunSpec, pointsPerJob)
	for k := range out {
		out[k] = experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: tasksPerPoint,
			Seed: subseed(seed, fmt.Sprintf("%s/c%d/j%d", tag, client, j), k)}
	}
	return out
}

func (b *daemonBench) setup(tr *Tracer) (instance, error) {
	d := &daemon{b: b}
	if tr != nil {
		d.probe = newLayerProbe(tr)
	}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	// Warm-up: every client runs one cold job of warmPoints points, which
	// fills its pool for the first warm job, then one round of the loop.
	for c := range d.pool {
		if err := d.fillPool(c); err != nil {
			d.close()
			return nil, err
		}
	}
	if err := d.clients("warmup", 1, nil); err != nil {
		d.close()
		return nil, err
	}
	for c := range d.cold {
		d.cold[c] = nil
	}
	return d, nil
}

// start brings up two workers and the coordinator.
func (d *daemon) start() error {
	dir, err := os.MkdirTemp(d.b.scratch, "daemon-")
	if err != nil {
		return err
	}
	d.dir = dir
	wrap := func(role string, h http.Handler) http.Handler {
		if d.probe == nil {
			return h
		}
		return d.probe.middleware(role, h)
	}
	var peers []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Options{Cluster: config.ClusterSpec{Worker: true}})
		if err != nil {
			return err
		}
		d.wsrv = append(d.wsrv, srv)
		ts := httptest.NewServer(wrap("worker", srv))
		d.workers = append(d.workers, ts)
		peers = append(peers, ts.URL)
	}
	opts := server.Options{
		Jobs:      2, // a warm job never queues behind a cold one
		SpoolDir:  filepath.Join(dir, "journal"),
		Cache:     config.CacheSpec{Dir: filepath.Join(dir, "cache"), MaxEntries: cacheMemEntries},
		Cluster:   config.ClusterSpec{Peers: peers},
		CacheFS:   noSyncFS{chaos.OS()},
		JournalFS: noSyncFS{chaos.OS()},
	}
	if d.probe != nil {
		opts.ClusterTransport = d.probe.transport(http.DefaultTransport.(*http.Transport).Clone())
		opts.CacheFS = d.probe.cacheFS()
		opts.JournalFS = d.probe.journalFS()
	}
	d.csrv, err = server.New(opts)
	if err != nil {
		return err
	}
	d.coord = httptest.NewServer(wrap("server", d.csrv))
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * daemonClients
	d.hc = &http.Client{Transport: tr, Timeout: 60 * time.Second}

	var st server.ClusterStatus
	if err := d.getJSON("/v1/cluster", &st); err != nil {
		return err
	}
	alive := 0
	for _, w := range st.Workers {
		if w.Alive {
			alive++
		}
	}
	if st.Role != "coordinator" || alive != len(peers) {
		return fmt.Errorf("daemon: coordinator sees %d of %d workers alive (role %q)", alive, len(peers), st.Role)
	}
	return nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.csrv != nil {
		_ = d.csrv.Shutdown(ctx) // teardown: the cluster is discarded either way
	}
	if d.coord != nil {
		d.coord.Close()
	}
	for _, s := range d.wsrv {
		_ = s.Shutdown(ctx)
	}
	for _, w := range d.workers {
		w.Close()
	}
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // scratch directory; a leftover is harmless
	}
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.hc.Get(d.coord.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads coordinator counters from /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.coord.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promCounters(resp.Body, "cache_hits_total", "cache_misses_total",
		"cluster_points_remote_total", "cluster_lease_retries_total")
}

// runJob submits one job, follows its event stream until it settles and
// fetches its result. The latency is submit to result body received. The
// heap is collected first, outside the latency: the daemon and its workers
// share this process, and a collection of the previous job's garbage (about
// one per cold job) otherwise landed inside a random share of warm jobs.
func (d *daemon) runJob(body []byte, trace string) (server.JobResult, time.Duration, error) {
	runtime.GC()
	var tr *Tracer
	if d.probe != nil && d.probe.on() {
		tr = d.probe.tr
	}
	root := tr.BeginRoot(trace, "client.job")
	defer root.End()
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, d.coord.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.JobResult{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, trace)
	if root != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(root.ID(), 10))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return server.JobResult{}, 0, err
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return server.JobResult{}, 0, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	if st, err = d.await(st.ID, trace, root.ID()); err != nil {
		return server.JobResult{}, 0, err
	}
	if st.State != server.StateDone {
		return server.JobResult{}, 0, fmt.Errorf("job %s settled %s: %s", st.ID, st.State, st.Error)
	}
	raw, err := d.get("/v1/jobs/"+st.ID+"/result", trace, root.ID())
	if err != nil {
		return server.JobResult{}, 0, err
	}
	lat := time.Since(start)
	var res server.JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return server.JobResult{}, 0, fmt.Errorf("result of %s: %w", st.ID, err)
	}
	return res, lat, nil
}

func (d *daemon) request(path, trace string, span int64) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, d.coord.URL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.RequestIDHeader, trace)
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

func (d *daemon) get(path, trace string, span int64) ([]byte, error) {
	resp, err := d.request(path, trace, span)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// await follows the job's server-sent events until the "done" event and
// returns the status it carries.
func (d *daemon) await(id, trace string, span int64) (server.JobStatus, error) {
	resp, err := d.request("/v1/jobs/"+id+"/events", trace, span)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var st server.JobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return st, fmt.Errorf("events of %s: %w", id, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			return st, nil
		}
	}
	return server.JobStatus{}, fmt.Errorf("events of %s ended before done: %v", id, sc.Err())
}

// clients runs the closed loop: each client alternates a cold job on
// fresh seeds and warm jobs of points it has already run, until more
// returns false before a new pair. Latencies go to w when it is
// non-nil.
func (d *daemon) clients(tag string, pairs int, w *daemonWindow) error {
	var wg sync.WaitGroup
	errs := make([]error, daemonClients)
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; ; j++ {
				if w == nil && j >= pairs || w != nil && !w.more() {
					return
				}
				if err := d.pair(tag, c, j, w); err != nil && w == nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pair runs client c's j-th cold job and warmJobs warm jobs.
func (d *daemon) pair(tag string, c, j int, w *daemonWindow) error {
	t := d.b.t
	specs := coldSpecs(d.b.seed, tag, c, j)
	body, err := json.Marshal(jobBody{Kind: config.JobPoints, Points: specs})
	if err != nil {
		return err
	}
	res, lat, err := d.runJob(body, fmt.Sprintf("%s/c%d/j%d/cold", tag, c, j))
	if err == nil {
		err = checkPoints(specs, res.Points)
	}
	if w != nil {
		t.attempt(err)
		if err == nil {
			w.add(true, lat)
		}
	}
	if err != nil {
		return err
	}
	d.cold[c] = append(d.cold[c], coldJob{body: body, specs: specs, points: res.Points})
	d.pool[c] = append(d.pool[c], res.Points...)

	for k := 0; k < warmJobs; k++ {
		if err := d.warm(tag, c, j*warmJobs+k, w); err != nil {
			return err
		}
	}
	return nil
}

// warm runs client c's i-th warm job: warmPoints points drawn from its
// pool, every one a cache hit.
func (d *daemon) warm(tag string, c, i int, w *daemonWindow) error {
	pts := d.draw(c, subseed(d.b.seed, fmt.Sprintf("%s/c%d/warm", tag, c), i))
	specs := make([]experiments.RunSpec, len(pts))
	for k, p := range pts {
		specs[k] = p.Spec
	}
	body, err := json.Marshal(jobBody{Kind: config.JobPoints, Points: specs})
	if err != nil {
		return err
	}
	res, lat, err := d.runJob(body, fmt.Sprintf("%s/c%d/w%d/warm", tag, c, i))
	if err == nil && !bytes.Equal(canonical(res.Points), canonical(pts)) {
		err = fmt.Errorf("warm job %s differs from the cold runs of its points", res.ID)
	}
	if w != nil {
		d.b.t.attempt(err)
		if err == nil {
			w.add(false, lat)
		}
	}
	return err
}

// fillPool runs client c's warm-up cold job of warmPoints points and adds
// them to its pool.
func (d *daemon) fillPool(c int) error {
	specs := make([]experiments.RunSpec, warmPoints)
	for k := range specs {
		specs[k] = coldSpecs(d.b.seed, "pool", c, k)[0]
	}
	body, err := json.Marshal(jobBody{Kind: config.JobPoints, Points: specs})
	if err != nil {
		return err
	}
	res, _, err := d.runJob(body, fmt.Sprintf("pool/c%d", c))
	if err == nil {
		err = checkPoints(specs, res.Points)
	}
	if err != nil {
		return err
	}
	d.pool[c] = append(d.pool[c], res.Points...)
	return nil
}

// draw picks warmPoints distinct points of client c's pool, in an order
// set by r.
func (d *daemon) draw(c int, r uint64) []server.PointResult {
	pool := d.pool[c]
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	out := make([]server.PointResult, warmPoints)
	for k := range out {
		r = r*6364136223846793005 + 1442695040888963407
		i := k + int((r>>33)%uint64(len(idx)-k))
		idx[k], idx[i] = idx[i], idx[k]
		out[k] = pool[idx[k]]
	}
	return out
}

// checkPoints verifies a points result: one summary per spec, in order,
// with every task completed.
func checkPoints(specs []experiments.RunSpec, pts []server.PointResult) error {
	if len(pts) != len(specs) {
		return fmt.Errorf("%d points in result, want %d", len(pts), len(specs))
	}
	for i, p := range pts {
		if p.Spec != specs[i] || p.Completed != specs[i].NumTasks {
			return fmt.Errorf("point %d: spec %+v completed %d, want %+v completed %d",
				i, p.Spec, p.Completed, specs[i], specs[i].NumTasks)
		}
	}
	return nil
}

// daemonWindow collects the clients' samples and decides when to stop.
type daemonWindow struct {
	stopAt, hardStop time.Time
	minN             int64
	mu               sync.Mutex
	cold, warm       []float64
	coldN, warmN     atomic.Int64
}

func (w *daemonWindow) add(cold bool, lat time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cold {
		w.cold = append(w.cold, ms(lat))
		w.coldN.Add(1)
	} else {
		w.warm = append(w.warm, ms(lat))
		w.warmN.Add(1)
	}
}

// more reports whether a client should start another pair.
func (w *daemonWindow) more() bool {
	now := time.Now()
	if now.After(w.hardStop) {
		return false
	}
	return now.Before(w.stopAt) || w.coldN.Load() < w.minN || w.warmN.Load() < w.minN
}

func (d *daemon) measure(dur time.Duration, tr *Tracer, minN int) (*window, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if d.probe != nil {
		d.probe.start()
	}
	mw := watchMemory()
	now := time.Now()
	dw := &daemonWindow{stopAt: now.Add(dur), hardStop: now.Add(dur + maxOvertime), minN: int64(minN)}
	_ = d.clients("window", 0, dw) // failures are counted in the tally
	elapsed := time.Since(now)
	allocs, peak := mw.finish()
	if d.probe != nil {
		d.probe.stop()
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	t := d.b.t
	nCold, nWarm := len(dw.cold), len(dw.warm)
	d.jobs = [2]int{nCold, nWarm}
	t.check(after["cache_misses_total"]-before["cache_misses_total"] == float64(nCold*pointsPerJob),
		"cache misses %v, want one per cold point (%d)", after["cache_misses_total"]-before["cache_misses_total"], nCold*pointsPerJob)
	t.check(after["cache_hits_total"]-before["cache_hits_total"] == float64(nWarm*warmPoints),
		"cache hits %v, want one per warm point (%d)", after["cache_hits_total"]-before["cache_hits_total"], nWarm*warmPoints)
	d.retries = after["cluster_lease_retries_total"] - before["cluster_lease_retries_total"]

	var parts [][]byte
	for c := range d.cold {
		for j := 0; j < digestJobs && j < len(d.cold[c]); j++ {
			parts = append(parts, canonical(d.cold[c][j].points))
		}
	}
	w := &window{
		elapsed:  elapsed,
		tasks:    int64(nCold * pointsPerJob * tasksPerPoint),
		ops:      nCold + nWarm,
		cold:     dw.cold,
		warm:     dw.warm,
		allocs:   allocs,
		peakHeap: peak,
		digest:   digest(parts...),
	}
	return w, d.verify(tr != nil)
}

// verify checks, outside the timed window, that daemon points are
// byte-identical to in-process experiments.Run: every fourth cold job,
// or every cold job of a traced window, whose in-process run times also
// feed the lease overhead. A traced window also measures the cache hit
// ratio of one more cold job and its warm twin.
func (d *daemon) verify(traced bool) error {
	prof := experiments.DefaultProfile()
	d.inProcMs = d.inProcMs[:0]
	for c := range d.cold {
		for j, cj := range d.cold[c] {
			if !traced && j%4 != 0 {
				continue
			}
			want := make([]server.PointResult, len(cj.specs))
			for k, spec := range cj.specs {
				start := time.Now()
				r, err := experiments.Run(prof, spec)
				if err != nil {
					return err
				}
				d.inProcMs = append(d.inProcMs, ms(time.Since(start)))
				want[k] = server.PointResult{Spec: spec, AveRT: r.AveRT, ECS: r.ECS, SuccessRate: r.SuccessRate,
					MeanUtilization: r.MeanUtilization, MeanWait: r.MeanWait, EndTime: r.EndTime, Completed: r.Completed}
			}
			d.b.t.check(bytes.Equal(canonical(want), canonical(cj.points)),
				"client %d cold job %d differs from in-process experiments.Run", c, j)
		}
	}
	if !traced {
		return nil
	}
	var err error
	d.hitCold, d.hitWarm, err = d.hitRatios()
	d.b.t.check(err == nil && d.hitCold == 0 && d.hitWarm == 1,
		"cache hit ratio cold %v warm %v (want 0 and 1): %v", d.hitCold, d.hitWarm, err)
	return nil
}

// hitRatios runs one cold job and its warm resubmission, scraping the
// cache counters around each.
func (d *daemon) hitRatios() (cold, warm float64, err error) {
	body, err := json.Marshal(jobBody{Kind: config.JobPoints, Points: coldSpecs(d.b.seed, "hitratio", 0, 0)})
	if err != nil {
		return 0, 0, err
	}
	var ratio [2]float64
	for i := range ratio {
		before, err := d.scrape()
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := d.runJob(body, fmt.Sprintf("hitratio/%d", i)); err != nil {
			return 0, 0, err
		}
		after, err := d.scrape()
		if err != nil {
			return 0, 0, err
		}
		hits := after["cache_hits_total"] - before["cache_hits_total"]
		misses := after["cache_misses_total"] - before["cache_misses_total"]
		if hits+misses > 0 {
			ratio[i] = hits / (hits + misses)
		}
	}
	return ratio[0], ratio[1], nil
}

func (d *daemon) layers(m map[string]float64, spans []Span) []string {
	p := d.probe
	p.mu.Lock()
	defer p.mu.Unlock()
	nCold, nWarm := float64(d.jobs[0]), float64(d.jobs[1])
	m["server.submit_ms_p50"] = median(p.submitMs)
	m["server.result_ms_p50"] = median(p.resultMs)
	m["server.requests_per_job"] = safeDiv(float64(p.coordReqs), nCold+nWarm)
	m["cluster.lease_ms_p50"] = median(p.leaseMs)
	var beyond int
	m["cluster.lease_ms_p90"], beyond = percentile(p.leaseMs, 0.9)
	m["cluster.polls_per_lease"] = safeDiv(float64(p.leasePolls), float64(len(p.leaseMs)))
	m["cluster.lease_overhead_ms"] = mean(p.leaseMs) - mean(d.inProcMs)
	m["cluster.retries"] = d.retries
	m["cache.hit_ratio_cold"] = d.hitCold
	m["cache.hit_ratio_warm"] = d.hitWarm
	m["cache.read_ms"] = safeDiv(float64(p.cacheReadNs.Load())/1e6, nWarm)
	m["cache.write_ms"] = safeDiv(float64(p.cacheWriteNs.Load())/1e6, nCold)
	m["cache.syncs_per_job"] = safeDiv(float64(p.cacheSyncs.Load()), nCold)
	m["journal.write_ms"] = safeDiv(float64(p.journalWriteNs.Load())/1e6, nCold+nWarm)
	m["journal.syncs_per_job"] = safeDiv(float64(p.journalSyncs.Load()), nCold+nWarm)
	return []string{fmt.Sprintf("traced samples: leases=%d (beyond p90: %d) failed_leases=%d server_submit=%d server_result=%d in_process_points=%d",
		len(p.leaseMs), beyond, p.leaseFailed, len(p.submitMs), len(p.resultMs), len(d.inProcMs))}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
