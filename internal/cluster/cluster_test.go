package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlsched/internal/cache"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/journal"
	"rlsched/internal/sched"
)

// testProfile is a campaign profile small enough to run many times in a
// unit test.
func testProfile() experiments.Profile {
	p := experiments.DefaultProfile()
	p.Replications = 1
	p.ObservationPeriod = 300
	p.Workers = 2
	return p
}

func testSpecs() []experiments.RunSpec {
	return []experiments.RunSpec{
		{Policy: experiments.Greedy, NumTasks: 5, Seed: 1},
		{Policy: experiments.Greedy, NumTasks: 8, Seed: 2},
		{Policy: experiments.Greedy, NumTasks: 11, Seed: 3},
		{Policy: experiments.Greedy, NumTasks: 14, Seed: 4},
	}
}

// fakeWorker is an in-process stand-in for a worker rlsimd daemon: it
// accepts single-point lease jobs over the real wire shapes and runs
// them synchronously through the local campaign runner.
type fakeWorker struct {
	srv *httptest.Server

	mu      sync.Mutex
	seq     int
	jobs    map[string]fakeJob
	submits int

	// failSubmits, while positive, makes submissions return 500.
	failSubmits atomic.Int32
	// failState, when non-empty, settles every job in that state with
	// error "boom" instead of running it.
	failState atomic.Value
	// stallSubmit, when positive (nanoseconds), parks every submission
	// for that long before processing it, honouring request cancellation
	// — a straggling or hung worker.
	stallSubmit atomic.Int64
	// onSubmit, when set to a func(*http.Request), runs before each
	// submission is processed and may block — tests park or time leases
	// with it.
	onSubmit atomic.Value
	// runFor, when positive (nanoseconds), keeps each job reporting
	// "running" for that long after its submission.
	runFor atomic.Int64

	// jobCalls counts every job-API request; statusCalls the status
	// requests among them, and lastWait holds the ?wait= the latest one
	// asked for. Like a worker that predates long polls, the fake
	// answers status requests at once whatever the wait.
	jobCalls    atomic.Int64
	statusCalls atomic.Int64
	lastWait    atomic.Value
}

type fakeJob struct {
	state    string
	errMsg   string
	results  []sched.Result
	settleAt time.Time
}

func newFakeWorker(t *testing.T) *fakeWorker {
	f := &fakeWorker{jobs: make(map[string]fakeJob)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body before any stall: the server only cancels
		// r.Context() on client disconnect once the body is consumed.
		body, _ := io.ReadAll(r.Body)
		if d := time.Duration(f.stallSubmit.Load()); d > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(d):
			}
		}
		if fn, _ := f.onSubmit.Load().(func(*http.Request)); fn != nil {
			fn(r)
		}
		if f.failSubmits.Load() > 0 {
			f.failSubmits.Add(-1)
			http.Error(w, `{"error":"worker exploding"}`, http.StatusInternalServerError)
			return
		}
		spec, err := config.UnmarshalJob(body)
		if err != nil {
			http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.seq++
		f.submits++
		id := fmt.Sprintf("fw-%06d", f.seq)
		f.mu.Unlock()
		var fj fakeJob
		if fs, _ := f.failState.Load().(string); fs != "" {
			fj = fakeJob{state: fs, errMsg: "boom"}
		} else {
			res, rerr := experiments.RunManyCtx(r.Context(), spec.Profile, spec.Points)
			if rerr != nil {
				fj = fakeJob{state: "failed", errMsg: rerr.Error()}
			} else {
				for i := range res {
					res[i].Collector = nil
				}
				fj = fakeJob{state: "done", results: res}
			}
		}
		fj.settleAt = time.Now().Add(time.Duration(f.runFor.Load()))
		f.mu.Lock()
		f.jobs[id] = fj
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"state":"queued"}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.statusCalls.Add(1)
		f.lastWait.Store(r.URL.Query().Get("wait"))
		f.mu.Lock()
		fj, ok := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			return
		}
		state := fj.state
		if time.Now().Before(fj.settleAt) {
			state = "running"
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id": r.PathValue("id"), "state": state, "error": fj.errMsg,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		fj, ok := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		if !ok || fj.state != "done" {
			http.Error(w, `{"error":"not done"}`, http.StatusConflict)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"id": r.PathValue("id"), "results": fj.results,
		})
	})
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			f.jobCalls.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) submitted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

// poolOf builds a pool over the given workers, all probed alive.
// DeadAfter and the breaker cooldown are long so that — with no
// heartbeat loop running — a worker's fate during a test is decided
// solely by lease outcomes, never by a timer racing the assertions.
func poolOf(t *testing.T, urls ...string) *Pool {
	return poolWith(t, PoolOptions{
		Heartbeat:       50 * time.Millisecond,
		DeadAfter:       time.Minute,
		BreakerCooldown: time.Minute,
	}, urls...)
}

func poolWith(t *testing.T, opts PoolOptions, urls ...string) *Pool {
	p := NewPool(opts)
	for _, u := range urls {
		if err := p.Add(context.Background(), u); err != nil {
			t.Fatalf("Add(%s): %v", u, err)
		}
	}
	t.Cleanup(p.Stop)
	return p
}

func memCache(t *testing.T) *cache.Store {
	s, err := cache.Open("", 0)
	if err != nil {
		t.Fatalf("cache.Open: %v", err)
	}
	return s
}

// scrub nils the fields a wire round trip legitimately drops, so local
// and remote results can be compared with DeepEqual.
func scrub(rs []sched.Result) []sched.Result {
	out := append([]sched.Result(nil), rs...)
	for i := range out {
		out[i].Collector = nil
	}
	return out
}

func TestPoolLifecycle(t *testing.T) {
	w := newFakeWorker(t)
	// Default (short) cooldown: the heartbeat loop must be able to walk
	// the breaker open -> half-open -> closed within the test.
	p := poolWith(t, PoolOptions{Heartbeat: 50 * time.Millisecond}, w.srv.URL)
	if got := p.Alive(); len(got) != 1 || got[0] != w.srv.URL {
		t.Fatalf("Alive() = %v, want [%s]", got, w.srv.URL)
	}
	for i := 0; i < DefaultBreakerThreshold; i++ {
		p.ReportFailure(w.srv.URL)
	}
	if p.AliveCount() != 0 {
		t.Fatal("worker still alive after its breaker tripped")
	}
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Alive || snap[0].Failures != DefaultBreakerThreshold {
		t.Fatalf("Snapshot() = %+v", snap)
	}
	// The heartbeat loop revives it.
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for p.AliveCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if p.AliveCount() != 1 {
		t.Fatal("heartbeat never revived the worker")
	}
}

func TestPoolAddUnreachable(t *testing.T) {
	p := NewPool(PoolOptions{})
	err := p.Add(context.Background(), "http://127.0.0.1:1")
	if err == nil {
		t.Fatal("Add of unreachable worker succeeded")
	}
	// It stays registered (heartbeats may revive it later), just not
	// alive.
	if snap := p.Snapshot(); len(snap) != 1 || snap[0].Alive {
		t.Fatalf("Snapshot() = %+v, want one dead worker", snap)
	}
	if _, err := NormalizeURL("not a url"); err == nil {
		t.Fatal("NormalizeURL accepted garbage")
	}
}

func TestDispatcherCachesRepeatedCampaign(t *testing.T) {
	st := memCache(t)
	d := NewDispatcher(Options{Cache: st})
	p := testProfile()
	specs := testSpecs()

	local := p
	want, err := experiments.RunManyCtx(context.Background(), local, specs)
	if err != nil {
		t.Fatal(err)
	}

	first, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(first), scrub(want)) {
		t.Fatal("dispatcher results differ from plain local run")
	}

	var progressed atomic.Int64
	p2 := p
	engStats := new(sched.Stats)
	p2.Progress = func(st sched.RunStats) {
		progressed.Add(1)
		engStats.Add(st)
	}
	second, err := d.Runner(JobMeta{ID: "job-000002"})(context.Background(), p2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(second), scrub(want)) {
		t.Fatal("cached results differ from computed results")
	}
	cs := st.Stats()
	if cs.Hits != uint64(len(specs)) {
		t.Fatalf("cache hits = %d, want %d", cs.Hits, len(specs))
	}
	if got := progressed.Load(); got != int64(len(specs)) {
		t.Fatalf("progress fired %d times on the cached run, want %d", got, len(specs))
	}
	if engStats.Runs() != uint64(len(specs)) {
		t.Fatalf("engine stats folded %d runs on the cached run, want %d", engStats.Runs(), len(specs))
	}
	if d.cached.Value() != uint64(len(specs)) {
		t.Fatalf("cached counter = %v, want %d", d.cached.Value(), len(specs))
	}
}

func TestDispatcherFanOutMatchesLocal(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	pool := poolOf(t, w1.srv.URL, w2.srv.URL)
	d := NewDispatcher(Options{Cache: memCache(t), Pool: pool})

	p := testProfile()
	specs := testSpecs()
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}

	var progressed atomic.Int64
	pd := p
	pd.Progress = func(sched.RunStats) { progressed.Add(1) }
	got, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), pd, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(got), scrub(want)) {
		t.Fatal("fanned-out results differ from local run")
	}
	if d.remote.Value() != uint64(len(specs)) {
		t.Fatalf("remote counter = %v, want %d", d.remote.Value(), len(specs))
	}
	if w1.submitted()+w2.submitted() != len(specs) {
		t.Fatalf("workers saw %d+%d submissions, want %d total", w1.submitted(), w2.submitted(), len(specs))
	}
	if got := progressed.Load(); got != int64(len(specs)) {
		t.Fatalf("progress fired %d times, want %d", got, len(specs))
	}
	if d.leasesActive.Value() != 0 {
		t.Fatalf("leases still active after campaign: %v", d.leasesActive.Value())
	}
}

func TestDispatcherWorkerLossReLeases(t *testing.T) {
	bad, good := newFakeWorker(t), newFakeWorker(t)
	bad.failSubmits.Store(1000)
	pool := poolOf(t, bad.srv.URL, good.srv.URL)
	d := NewDispatcher(Options{Cache: memCache(t), Pool: pool})

	p := testProfile()
	specs := testSpecs()
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(got), scrub(want)) {
		t.Fatal("results after worker loss differ from local run")
	}
	if d.leaseRetries.Value() < 1 {
		t.Fatal("no lease retry recorded after worker loss")
	}
	// Every point ends up on the good worker; the flaky one keeps its
	// place in the pool (a breaker needs a streak, not one bad response)
	// but its failures are on the record.
	if good.submitted() != len(specs) {
		t.Fatalf("good worker saw %d submissions, want %d", good.submitted(), len(specs))
	}
	for _, ws := range pool.Snapshot() {
		if ws.URL == bad.srv.URL && ws.Failures < 1 {
			t.Fatalf("flaky worker has no failures on record: %+v", ws)
		}
	}
}

func TestDispatcherAllWorkersLostFallsBackLocally(t *testing.T) {
	bad := newFakeWorker(t)
	pool := poolOf(t, bad.srv.URL)
	bad.failSubmits.Store(1000)
	d := NewDispatcher(Options{Cache: memCache(t), Pool: pool})

	p := testProfile()
	specs := testSpecs()
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(got), scrub(want)) {
		t.Fatal("local-fallback results differ from local run")
	}
	if d.local.Value() != uint64(len(specs)) {
		t.Fatalf("local counter = %v, want %d", d.local.Value(), len(specs))
	}
}

func TestDispatcherDeterministicFailureLowestIndex(t *testing.T) {
	w := newFakeWorker(t)
	w.failState.Store("failed")
	pool := poolOf(t, w.srv.URL)
	d := NewDispatcher(Options{Cache: memCache(t), Pool: pool})

	_, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), testProfile(), testSpecs())
	if err == nil {
		t.Fatal("campaign with failing worker jobs succeeded")
	}
	if !strings.Contains(err.Error(), "point 0") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error = %v, want lowest-index point 0 with the worker's message", err)
	}
}

func TestDispatcherJournalsLeasesAndCacheRefs(t *testing.T) {
	w := newFakeWorker(t)
	pool := poolOf(t, w.srv.URL)
	var mu sync.Mutex
	var recs []journal.Record
	d := NewDispatcher(Options{
		Cache: memCache(t), Pool: pool,
		Journal: func(r journal.Record) { mu.Lock(); recs = append(recs, r); mu.Unlock() },
	})
	specs := testSpecs()[:2]
	if _, err := d.Runner(JobMeta{ID: "job-000007"})(context.Background(), testProfile(), specs); err != nil {
		t.Fatal(err)
	}
	var leases, refs int
	for _, r := range recs {
		if r.ID != "job-000007" {
			t.Fatalf("record for job %q, want job-000007", r.ID)
		}
		switch r.Op {
		case journal.OpLease:
			leases++
			if r.Worker != w.srv.URL || !strings.HasPrefix(r.Key, cache.KeyPrefix) {
				t.Fatalf("lease record = %+v", r)
			}
		case journal.OpCacheRef:
			refs++
			var res sched.Result
			if err := json.Unmarshal(r.Result, &res); err != nil || res.Completed == 0 {
				t.Fatalf("cacheref result undecodable or empty: %v (%+v)", err, r)
			}
		}
	}
	if leases != len(specs) || refs != len(specs) {
		t.Fatalf("journaled %d leases / %d cacherefs, want %d each", leases, refs, len(specs))
	}
}

func TestDispatcherWarmCacheSkipsWorkers(t *testing.T) {
	st := memCache(t)
	w := newFakeWorker(t)
	pool := poolOf(t, w.srv.URL)
	d := NewDispatcher(Options{Cache: st, Pool: pool})
	p := testProfile()
	specs := testSpecs()
	if _, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs); err != nil {
		t.Fatal(err)
	}
	before := w.submitted()
	if _, err := d.Runner(JobMeta{ID: "job-000002"})(context.Background(), p, specs); err != nil {
		t.Fatal(err)
	}
	if w.submitted() != before {
		t.Fatalf("warm rerun leased %d points, want 0", w.submitted()-before)
	}
}
