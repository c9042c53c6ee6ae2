package cluster

import (
	"context"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/sched"
)

// TestFanOutWakesIdleWorkerOnSettle leases a single point to one of two
// workers and holds it there. The other worker has nothing to do and
// must sleep without touching the job API; once the held lease settles
// it must wake and leave at once, so the campaign returns within a few
// milliseconds rather than at the idle worker's next timer tick.
func TestFanOutWakesIdleWorkerOnSettle(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	gate := make(chan struct{})
	parked := make(chan struct{}, 2)
	hold := func(r *http.Request) {
		parked <- struct{}{}
		select {
		case <-gate:
		case <-r.Context().Done():
		}
	}
	w1.onSubmit.Store(hold)
	w2.onSubmit.Store(hold)
	d := NewDispatcher(Options{Cache: memCache(t), Pool: poolOf(t, w1.srv.URL, w2.srv.URL)})

	p := testProfile()
	specs := testSpecs()[:1]
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res []sched.Result
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
		done <- outcome{res, err, time.Now()}
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the point was never leased")
	}
	// Give the idle worker time to go to sleep before the lease settles.
	time.Sleep(30 * time.Millisecond)
	released := time.Now()
	close(gate)
	var o outcome
	select {
	case o = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("campaign did not return after its only lease settled")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !reflect.DeepEqual(scrub(o.res), scrub(want)) {
		t.Fatal("fanned-out result differs from local run")
	}
	if lag := o.at.Sub(released); lag > 50*time.Millisecond {
		t.Fatalf("campaign returned %v after the lease was released, want within a few ms", lag)
	}
	busy, idle := w1.jobCalls.Load(), w2.jobCalls.Load()
	if busy < idle {
		busy, idle = idle, busy
	}
	if busy != 3 || idle != 0 {
		t.Fatalf("job-API calls: leasing worker %d (want submit, status, result = 3), idle worker %d (want 0)", busy, idle)
	}
}

// TestDispatcherHedgesAtDeadline stalls whichever worker takes the only
// point: the idle worker must hedge it when the hedge deadline passes,
// not at some later timer tick.
func TestDispatcherHedgesAtDeadline(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	var (
		mu       sync.Mutex
		arrivals []time.Time
		first    atomic.Bool
	)
	first.Store(true)
	stallFirst := func(r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		if first.CompareAndSwap(true, false) {
			<-r.Context().Done() // held until the hedge wins and cancels it
		}
	}
	w1.onSubmit.Store(stallFirst)
	w2.onSubmit.Store(stallFirst)
	const hedgeAfter = 120 * time.Millisecond
	d := NewDispatcher(Options{
		Cache: memCache(t), Pool: poolOf(t, w1.srv.URL, w2.srv.URL),
		HedgeAfter: hedgeAfter,
	})

	p := testProfile()
	specs := testSpecs()[:1]
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(res), scrub(want)) {
		t.Fatal("hedged result differs from local run")
	}
	if d.hedges.Value() != 1 || d.hedgeWins.Value() != 1 || d.leaseRetries.Value() != 0 {
		t.Fatalf("hedges = %v, wins = %v, retries = %v; want 1, 1, 0",
			d.hedges.Value(), d.hedgeWins.Value(), d.leaseRetries.Value())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("%d submissions, want the stalled lease and its hedge", len(arrivals))
	}
	if lag := arrivals[1].Sub(start); lag < hedgeAfter || lag > hedgeAfter+50*time.Millisecond {
		t.Fatalf("hedge submitted %v into the campaign, want at its %v deadline", lag, hedgeAfter)
	}
}

// TestLeaseOnWorkerIgnoringWait leases a point to a worker that, like
// one predating long polls, ignores ?wait= and answers every status
// request at once while the job runs for 300 ms. The lease must still
// complete, and pace its status requests instead of spinning.
func TestLeaseOnWorkerIgnoringWait(t *testing.T) {
	w := newFakeWorker(t)
	w.runFor.Store(int64(300 * time.Millisecond))
	d := NewDispatcher(Options{Cache: memCache(t), Pool: poolOf(t, w.srv.URL)})

	p := testProfile()
	specs := testSpecs()[:1]
	want, err := experiments.RunManyCtx(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Runner(JobMeta{ID: "job-000001"})(context.Background(), p, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrub(res), scrub(want)) || d.remote.Value() != 1 {
		t.Fatal("lease on a worker ignoring wait did not deliver the point")
	}
	if wait, _ := w.lastWait.Load().(string); wait != (DefaultLeaseTimeout / 2).String() {
		t.Fatalf("status requests asked for wait=%q, want half the lease timeout", wait)
	}
	// Paced at 10, 20, 40, 80, 100, 100 ms, 300 ms of running takes about
	// seven requests; an unpaced loop would issue thousands.
	if n := w.statusCalls.Load(); n < 2 || n > 12 {
		t.Fatalf("%d status requests for a 300 ms job, want a paced handful", n)
	}
}
