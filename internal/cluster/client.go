package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rlsched/internal/config"
	"rlsched/internal/obs"
	"rlsched/internal/obs/span"
	"rlsched/internal/sched"
)

// leaseMeta is the correlation context stamped on every lease call: the
// coordinator request's X-Request-ID (so worker logs tie back to the
// submission that caused them) and, on submits of span-traced jobs, the
// traceparent the worker adopts as its root span's parent.
type leaseMeta struct {
	reqID       string
	traceparent string
}

// apply stamps the meta's headers on one outgoing request.
func (m leaseMeta) apply(req *http.Request) {
	if m.reqID != "" {
		req.Header.Set(obs.RequestIDHeader, m.reqID)
	}
	if m.traceparent != "" {
		req.Header.Set(span.Header, m.traceparent)
	}
}

// leaseError classifies a failed lease. Transient failures — transport
// errors, 5xx, 429, a worker shutting down mid-job — mean the worker is
// lost, not the point: the dispatcher re-leases elsewhere. Everything
// else is deterministic (re-running the same spec reproduces it) and
// fails the campaign at that point's index.
type leaseError struct {
	transient bool
	err       error
}

func (e *leaseError) Error() string { return e.err.Error() }
func (e *leaseError) Unwrap() error { return e.err }

func transientf(format string, args ...any) *leaseError {
	return &leaseError{transient: true, err: fmt.Errorf(format, args...)}
}

func deterministicf(format string, args ...any) *leaseError {
	return &leaseError{transient: false, err: fmt.Errorf(format, args...)}
}

// client speaks the worker side of the ordinary rlsimd REST API. The
// wire structs are declared locally (not imported from internal/server)
// to keep the dependency one-way: the server embeds the cluster, never
// the reverse.
type client struct {
	hc *http.Client
	// timeout bounds each individual HTTP call (one submit, one status
	// long poll, one result fetch) — not the lease as a whole, which
	// lasts as long as the point runs. It turns a stalled connection into
	// a transient, re-leasable failure instead of a hung campaign.
	timeout time.Duration
}

// MaxStatusWait caps the ?wait= long poll of GET /v1/jobs/{id}: the
// server answers a longer wait with 400, and a lease never asks for one.
const MaxStatusWait = time.Minute

// Pacing of status requests a worker answers early — before the long
// poll's wait elapsed and with the job still unsettled. A worker that
// predates ?wait= ignores it and answers at once; the pace doubles from
// earlyPaceMin to earlyPaceMax so a lease on such a worker polls it, at
// worst, as often as a fixed 100 ms poll would, instead of spinning.
const (
	earlyPaceMin = 10 * time.Millisecond
	earlyPaceMax = 100 * time.Millisecond
)

// call wraps one HTTP exchange in the per-request timeout.
func (c *client) call(ctx context.Context, req *http.Request) (*http.Response, context.CancelFunc, error) {
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	resp, err := c.hc.Do(req.WithContext(cctx))
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// jobStatus is the subset of the server's JobStatus a lease needs.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// fullResultView is the payload of GET /v1/jobs/{id}/result?view=full.
type fullResultView struct {
	ID      string         `json:"id"`
	Results []sched.Result `json:"results"`
}

// errorBody is the structured error every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// transientStatus reports whether an HTTP status signals worker
// overload or breakage rather than a deterministic spec problem.
func transientStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// decodeError extracts the {"error": ...} body. The second return
// reports whether the body really carried the structured shape: a
// response that did not — garbage from a mangling proxy, a partial
// read — is not trustworthy evidence of a deterministic rejection.
func decodeError(resp *http.Response) (string, bool) {
	var eb errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error, true
	}
	return http.StatusText(resp.StatusCode), false
}

// submit posts a single-point job spec to a worker and returns the
// accepted job id.
func (c *client) submit(ctx context.Context, base string, spec config.JobSpec, meta leaseMeta) (string, *leaseError) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", deterministicf("cluster: encoding lease spec: %v", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", deterministicf("cluster: building lease request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	meta.apply(req)
	resp, done, err := c.call(ctx, req)
	if err != nil {
		return "", transientf("cluster: submitting lease to %s: %v", base, err)
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, structured := decodeError(resp)
		// Deterministic rejection needs a well-formed refusal: a 4xx whose
		// body carries the structured error shape. Anything else — 5xx,
		// 429, a garbage body on any status — reads as a broken worker or
		// a mangled response, and the point is re-leasable.
		if transientStatus(resp.StatusCode) || !structured {
			return "", transientf("cluster: worker %s refused lease (%d): %s", base, resp.StatusCode, msg)
		}
		return "", deterministicf("cluster: worker %s rejected lease (%d): %s", base, resp.StatusCode, msg)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		return "", transientf("cluster: worker %s sent an unreadable acceptance: %v", base, err)
	}
	return st.ID, nil
}

// wait long-polls the worker until the leased job settles, cancelling
// the remote job (best effort) if ctx ends first. Each status request
// asks the worker to hold the answer for half the per-call timeout, so
// a settled point is reported the moment it settles while a stalled
// worker still trips the timeout.
func (c *client) wait(ctx context.Context, base, id string, meta leaseMeta) (jobStatus, *leaseError) {
	hold := min(c.timeout/2, MaxStatusWait)
	pace := earlyPaceMin
	for {
		asked := time.Now()
		st, lerr := c.status(ctx, base, id, hold, meta)
		if lerr != nil {
			if ctx.Err() != nil {
				c.cancel(base, id)
			}
			return jobStatus{}, lerr
		}
		switch st.State {
		case "done", "failed", "timeout", "cancelled":
			return st, nil
		}
		if time.Since(asked) >= hold {
			continue // the full wait passed: ask again at once
		}
		t := time.NewTimer(pace)
		select {
		case <-ctx.Done():
			t.Stop()
			c.cancel(base, id)
			return jobStatus{}, transientf("cluster: lease wait: %v", ctx.Err())
		case <-t.C:
		}
		pace = min(2*pace, earlyPaceMax)
	}
}

// status fetches one job status snapshot, held by the worker for up to
// hold while the job is unsettled.
func (c *client) status(ctx context.Context, base, id string, hold time.Duration, meta leaseMeta) (jobStatus, *leaseError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"?wait="+hold.String(), nil)
	if err != nil {
		return jobStatus{}, deterministicf("cluster: building status request: %v", err)
	}
	meta.apply(req)
	resp, done, err := c.call(ctx, req)
	if err != nil {
		return jobStatus{}, transientf("cluster: polling %s: %v", base, err)
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, transientf("cluster: worker %s lost job %s (%d)", base, id, resp.StatusCode)
	}
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return jobStatus{}, transientf("cluster: worker %s sent an unreadable status: %v", base, err)
	}
	return st, nil
}

// fullResults fetches the settled job's full engine results.
func (c *client) fullResults(ctx context.Context, base, id string, meta leaseMeta) ([]sched.Result, *leaseError) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/result?view=full", nil)
	if err != nil {
		return nil, deterministicf("cluster: building result request: %v", err)
	}
	meta.apply(req)
	resp, done, err := c.call(ctx, req)
	if err != nil {
		return nil, transientf("cluster: fetching result from %s: %v", base, err)
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := decodeError(resp)
		return nil, transientf("cluster: worker %s would not serve result for %s (%d): %s",
			base, id, resp.StatusCode, msg)
	}
	var view fullResultView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, transientf("cluster: worker %s sent an unreadable result: %v", base, err)
	}
	return view.Results, nil
}

// spanView is the subset of GET /v1/jobs/{id}/spans a coordinator
// needs: the worker's recorded spans and its own drop count, which the
// coordinator folds into the campaign trace. Declared locally, like
// jobStatus, to keep the server dependency one-way.
type spanView struct {
	Spans   []span.Record `json:"spans"`
	Dropped uint64        `json:"dropped"`
}

// spans fetches the span trace a worker recorded for a leased job. A
// plain error, not a leaseError: by the time spans are fetched the
// result is already in hand, so a failure here loses telemetry, never
// the point.
func (c *client) spans(ctx context.Context, base, id string, meta leaseMeta) ([]span.Record, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/spans", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: building spans request: %v", err)
	}
	meta.apply(req)
	resp, done, err := c.call(ctx, req)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: fetching spans from %s: %v", base, err)
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("cluster: worker %s would not serve spans for %s (%d)", base, id, resp.StatusCode)
	}
	var view spanView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, 0, fmt.Errorf("cluster: worker %s sent unreadable spans: %v", base, err)
	}
	return view.Spans, view.Dropped, nil
}

// cancel tears a leased job down, best effort, when the coordinator no
// longer wants it. Detached from ctx: it runs exactly because ctx died.
func (c *client) cancel(base, id string) {
	ctx, stop := context.WithTimeout(context.Background(), DefaultProbeTimeout)
	defer stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.hc.Do(req); err == nil {
		resp.Body.Close()
	}
}
