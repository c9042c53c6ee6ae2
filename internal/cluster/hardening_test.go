package cluster

import (
	"context"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rlsched/internal/experiments"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := breaker{threshold: 3, cooldown: time.Second}
	if !b.allow(now) || b.state != BreakerClosed {
		t.Fatal("fresh breaker not closed/allowing")
	}
	b.failure(now)
	b.failure(now)
	if b.state != BreakerClosed {
		t.Fatalf("breaker opened after %d failures, threshold 3", b.fails)
	}
	b.failure(now)
	if b.state != BreakerOpen {
		t.Fatal("breaker not open after 3 consecutive failures")
	}
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("open breaker allowed traffic inside the cooldown")
	}
	if !b.allow(now.Add(time.Second)) || b.state != BreakerHalfOpen {
		t.Fatal("cooldown elapsed but no half-open trial granted")
	}
	if b.allow(now.Add(time.Second)) {
		t.Fatal("second trial granted while half-open")
	}
	// Failed trial re-opens immediately; a later successful trial closes.
	b.failure(now.Add(time.Second))
	if b.state != BreakerOpen {
		t.Fatal("failed half-open trial did not re-open the breaker")
	}
	if !b.allow(now.Add(2*time.Second + time.Millisecond)) {
		t.Fatal("no trial after the second cooldown")
	}
	b.success()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("successful trial left state=%v fails=%d", b.state, b.fails)
	}
	// Success clears the streak: two fresh failures stay closed.
	b.failure(now)
	b.failure(now)
	if b.state != BreakerClosed {
		t.Fatal("streak survived a success")
	}
	b.force(now)
	if b.state != BreakerOpen || b.fails < 3 {
		t.Fatalf("force left state=%v fails=%d", b.state, b.fails)
	}
	if BreakerClosed.String() != "closed" || BreakerHalfOpen.String() != "half-open" || BreakerOpen.String() != "open" {
		t.Fatal("BreakerState.String names are off")
	}
}

func TestBackoffDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, 5*time.Second
	if d := backoffDelay(base, cap, "w", 0); d != 0 {
		t.Fatalf("attempt 0 delay = %v, want 0", d)
	}
	// Each attempt's delay lands in [nominal/2, nominal) where nominal
	// doubles from base and is capped.
	nominal := base
	for attempt := 1; attempt <= 10; attempt++ {
		d := backoffDelay(base, cap, "http://w1", attempt)
		if d < nominal/2 || d >= nominal {
			t.Fatalf("attempt %d delay = %v, want in [%v, %v)", attempt, d, nominal/2, nominal)
		}
		if again := backoffDelay(base, cap, "http://w1", attempt); again != d {
			t.Fatalf("attempt %d not deterministic: %v then %v", attempt, d, again)
		}
		if nominal < cap {
			nominal <<= 1
			if nominal > cap {
				nominal = cap
			}
		}
	}
	// Different keys desynchronise: across many attempts the two workers
	// cannot share every jittered delay.
	same := true
	for attempt := 1; attempt <= 8 && same; attempt++ {
		same = backoffDelay(base, cap, "http://w1", attempt) == backoffDelay(base, cap, "http://w2", attempt)
	}
	if same {
		t.Fatal("jitter identical for different worker keys across 8 attempts")
	}
}

// TestPoolBreakerTripsAndRecovers walks a worker through the full
// breaker arc: lease failures accumulate, a completed lease clears the
// streak, the threshold trips the breaker, and a half-open heartbeat
// probe heals it.
func TestPoolBreakerTripsAndRecovers(t *testing.T) {
	w := newFakeWorker(t)
	p := poolWith(t, PoolOptions{Heartbeat: 50 * time.Millisecond}, w.srv.URL)
	u := w.srv.URL

	p.ReportFailure(u)
	p.ReportFailure(u)
	if !p.usable(u) {
		t.Fatal("worker unusable below the failure threshold")
	}
	p.countLease(u) // completed lease resets the streak
	p.ReportFailure(u)
	p.ReportFailure(u)
	if !p.usable(u) {
		t.Fatal("streak survived a completed lease")
	}
	p.ReportFailure(u)
	if p.usable(u) || p.AliveCount() != 0 {
		t.Fatal("breaker did not trip after 3 consecutive failures")
	}
	if snap := p.Snapshot(); snap[0].Breaker != "open" || snap[0].Alive {
		t.Fatalf("Snapshot() = %+v, want open/not-alive", snap[0])
	}

	// The heartbeat loop grants the half-open trial after the cooldown
	// (2x heartbeat here) and the healthy probe closes the breaker.
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for p.AliveCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if p.AliveCount() != 1 {
		t.Fatal("half-open probe never healed the breaker")
	}
	if snap := p.Snapshot(); snap[0].Breaker != "closed" {
		t.Fatalf("Snapshot() = %+v, want closed after recovery", snap[0])
	}
}

// TestDispatcherHedgesStraggler leaves one worker stalling every
// submission for far longer than the hedge deadline; the fast worker
// must duplicate the straggling lease, win it, and the loser's
// cancelled lease must cost the slow worker nothing.
func TestDispatcherHedgesStraggler(t *testing.T) {
	slow, fast := newFakeWorker(t), newFakeWorker(t)
	slow.stallSubmit.Store(int64(10 * time.Second))
	// The fast worker stalls a little too: whichever worker pops its
	// first point, the slow worker has tens of milliseconds to claim the
	// other before the queue drains, so exactly one flight straggles.
	fast.stallSubmit.Store(int64(50 * time.Millisecond))
	pool := poolOf(t, slow.srv.URL, fast.srv.URL)
	d := NewDispatcher(Options{
		Cache: memCache(t), Pool: pool,
		HedgeAfter: 150 * time.Millisecond,
	})

	p := testProfile()
	specs := testSpecs()[:2]
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(got), scrub(want)) {
		t.Fatal("hedged results differ from local run")
	}
	if d.hedges.Value() != 1 || d.hedgeWins.Value() != 1 {
		t.Fatalf("hedges = %v, wins = %v, want 1 and 1", d.hedges.Value(), d.hedgeWins.Value())
	}
	if fast.submitted() != 2 || slow.submitted() != 0 {
		t.Fatalf("fast/slow submissions = %d/%d, want 2/0", fast.submitted(), slow.submitted())
	}
	if d.leaseRetries.Value() != 0 {
		t.Fatalf("lease retries = %v, want 0 (cancelled loser is not a failure)", d.leaseRetries.Value())
	}
	if pool.AliveCount() != 2 {
		t.Fatalf("alive workers = %d, want 2 (hedging must not penalise the straggler)", pool.AliveCount())
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (small slack for runtime helpers), dumping stacks on leak.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}

// TestFanOutNoGoroutineLeakOnCancel cancels the campaign context while
// a lease is parked on a stalled worker; every fan-out goroutine (and
// the worker-side handler) must unwind.
func TestFanOutNoGoroutineLeakOnCancel(t *testing.T) {
	w := newFakeWorker(t)
	w.stallSubmit.Store(int64(10 * time.Second))
	pool := poolOf(t, w.srv.URL)
	hc := &http.Client{}
	d := NewDispatcher(Options{
		Cache: memCache(t), Pool: pool,
		Client: hc, RetryBase: 10 * time.Millisecond,
	})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := d.Runner(JobMeta{ID: "job-000001"})(ctx, testProfile(), testSpecs())
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the lease park on the stall
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled campaign reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("campaign did not return after cancellation")
	}
	hc.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestFanOutNoGoroutineLeakOnStalledWorker runs against a worker that
// never answers: the per-call lease timeout turns the stall into
// transient failures, the breaker retires the worker, the campaign
// completes locally, and no goroutine stays parked on the dead leases.
func TestFanOutNoGoroutineLeakOnStalledWorker(t *testing.T) {
	w := newFakeWorker(t)
	w.stallSubmit.Store(int64(10 * time.Second))
	pool := poolOf(t, w.srv.URL)
	hc := &http.Client{}
	d := NewDispatcher(Options{
		Cache: memCache(t), Pool: pool,
		Client: hc, LeaseTimeout: 100 * time.Millisecond, RetryBase: 10 * time.Millisecond,
	})
	baseline := runtime.NumGoroutine()

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
		t.Fatal("results after stalled worker differ from local run")
	}
	if d.local.Value() != uint64(len(specs)) {
		t.Fatalf("local counter = %v, want %d (worker never answers)", d.local.Value(), len(specs))
	}
	if snap := pool.Snapshot(); snap[0].Breaker != "open" {
		t.Fatalf("stalled worker breaker = %q, want open", snap[0].Breaker)
	}
	hc.CloseIdleConnections()
	waitGoroutines(t, baseline)
}
