package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/chaos"
	"rlsched/internal/obs"
)

// spanHeader carries the caller's span ID to the next hop, so a span
// recorded by a daemon's middleware nests under the call that caused it.
const spanHeader = "X-Perfbench-Span"

// layerProbe times the daemon's layers from outside, at the seams the
// server already exposes: HTTP middleware around each daemon, the
// coordinator's cluster transport, and its cache and journal filesystems.
// It records only while on; the warm-up runs through it unrecorded.
type layerProbe struct {
	tr     *Tracer
	active atomic.Bool

	mu          sync.Mutex
	submitMs    []float64 // coordinator POST /v1/jobs handler time
	resultMs    []float64 // coordinator GET /v1/jobs/{id}/result handler time
	coordReqs   int       // every request the coordinator served
	leaseMs     []float64 // lease submit to full-result body read
	leasePolls  int       // status polls across completed leases
	leaseFailed int
	open        map[string]*leaseState // by worker host + worker job ID

	cacheReadNs, cacheWriteNs, journalWriteNs atomic.Int64
	cacheSyncs, journalSyncs                  atomic.Int64
}

type leaseState struct {
	span  *OpenSpan
	start time.Time
	polls int
}

func newLayerProbe(tr *Tracer) *layerProbe {
	return &layerProbe{tr: tr, open: make(map[string]*leaseState)}
}

// start clears the counters and begins recording.
func (p *layerProbe) start() {
	p.mu.Lock()
	p.submitMs, p.resultMs, p.leaseMs = nil, nil, nil
	p.coordReqs, p.leasePolls, p.leaseFailed = 0, 0, 0
	p.open = make(map[string]*leaseState)
	p.mu.Unlock()
	for _, c := range []*atomic.Int64{&p.cacheReadNs, &p.cacheWriteNs, &p.journalWriteNs, &p.cacheSyncs, &p.journalSyncs} {
		c.Store(0)
	}
	p.active.Store(true)
}

func (p *layerProbe) stop() { p.active.Store(false) }

func (p *layerProbe) on() bool { return p != nil && p.active.Load() }

// route classifies a request of the job API.
func route(r *http.Request) string {
	path := strings.TrimPrefix(r.URL.Path, "/v1/jobs")
	switch {
	case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
		return "submit"
	case path == r.URL.Path:
		return strings.Trim(strings.ReplaceAll(r.URL.Path, "/", "_"), "_")
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case r.Method == http.MethodDelete:
		return "cancel"
	case strings.Count(path, "/") == 1:
		return "status"
	}
	return "other"
}

// parentOf resolves the span a request nests under: the caller's span
// when it sent one, else the root of the request's trace.
func (p *layerProbe) parentOf(h http.Header, trace string) int64 {
	if id, err := strconv.ParseInt(h.Get(spanHeader), 10, 64); err == nil {
		return id
	}
	return p.tr.Root(trace)
}

// middleware wraps one daemon; role prefixes its span names.
func (p *layerProbe) middleware(role string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on() {
			next.ServeHTTP(w, r)
			return
		}
		trace := r.Header.Get(obs.RequestIDHeader)
		kind := route(r)
		sp := p.tr.Begin(trace, p.parentOf(r.Header, trace), role+"."+kind)
		start := time.Now()
		next.ServeHTTP(w, r)
		d := ms(time.Since(start))
		sp.End()
		if role != "server" {
			return
		}
		p.mu.Lock()
		p.coordReqs++
		switch kind {
		case "submit":
			p.submitMs = append(p.submitMs, d)
		case "result":
			p.resultMs = append(p.resultMs, d)
		}
		p.mu.Unlock()
	})
}

// transport wraps the coordinator's cluster transport. A lease is a
// submit of a single-point job to a worker, status polls until it
// settles, and a full-result fetch; the probe follows each lease by the
// worker's job ID.
func (p *layerProbe) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !p.on() {
			return next.RoundTrip(req)
		}
		trace := req.Header.Get(obs.RequestIDHeader)
		switch kind := route(req); kind {
		case "submit":
			return p.leaseSubmit(next, req, trace)
		case "status", "result":
			return p.leaseCall(next, req, trace, kind)
		default:
			return next.RoundTrip(req)
		}
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// withSpan returns a copy of req that names span id as the caller.
func withSpan(req *http.Request, id int64) *http.Request {
	r := req.Clone(req.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	return r
}

func (p *layerProbe) leaseSubmit(next http.RoundTripper, req *http.Request, trace string) (*http.Response, error) {
	start := time.Now()
	lease := p.tr.Begin(trace, p.tr.Root(trace), "cluster.lease")
	call := p.tr.Begin(trace, lease.ID(), "cluster.submit")
	resp, err := next.RoundTrip(withSpan(req, call.ID()))
	call.End()
	fail := func() {
		lease.End()
		p.mu.Lock()
		p.leaseFailed++
		p.mu.Unlock()
	}
	if err != nil {
		fail()
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var st struct {
		ID string `json:"id"`
	}
	if rerr != nil || resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &st) != nil || st.ID == "" {
		fail()
		return resp, nil
	}
	p.mu.Lock()
	p.open[req.URL.Host+"/"+st.ID] = &leaseState{span: lease, start: start}
	p.mu.Unlock()
	return resp, nil
}

func (p *layerProbe) leaseCall(next http.RoundTripper, req *http.Request, trace, kind string) (*http.Response, error) {
	id := strings.Split(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/")[0]
	key := req.URL.Host + "/" + id
	p.mu.Lock()
	ls := p.open[key]
	if ls != nil && kind == "status" {
		ls.polls++
	}
	p.mu.Unlock()
	if ls == nil {
		return next.RoundTrip(req)
	}
	name := "cluster.poll"
	if kind == "result" {
		name = "cluster.fetch"
	}
	call := p.tr.Begin(trace, ls.span.ID(), name)
	resp, err := next.RoundTrip(withSpan(req, call.ID()))
	if err != nil || kind != "result" {
		call.End()
		return resp, err
	}
	// The lease ends when the caller has read the full result.
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
		call.End()
		ls.span.End()
		p.mu.Lock()
		delete(p.open, key)
		p.leaseMs = append(p.leaseMs, ms(time.Since(ls.start)))
		p.leasePolls += ls.polls
		p.mu.Unlock()
	}}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// timedFS times the cache spool's or the journal's filesystem calls:
// ReadFile as a read, everything that creates, writes or moves files as
// a write, and counts fsyncs. The journal only appends, so its reads
// (at open, before recording starts) share the write counter.
type timedFS struct {
	chaos.FS
	p     *layerProbe
	read  *atomic.Int64
	write *atomic.Int64
	syncs *atomic.Int64
}

func (p *layerProbe) cacheFS() chaos.FS {
	return timedFS{FS: noSyncFS{chaos.OS()}, p: p, read: &p.cacheReadNs, write: &p.cacheWriteNs, syncs: &p.cacheSyncs}
}

func (p *layerProbe) journalFS() chaos.FS {
	return timedFS{FS: noSyncFS{chaos.OS()}, p: p, read: &p.journalWriteNs, write: &p.journalWriteNs, syncs: &p.journalSyncs}
}

func (f timedFS) add(c *atomic.Int64, start time.Time) {
	if f.p.on() {
		c.Add(int64(time.Since(start)))
	}
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	defer f.add(f.read, start)
	return f.FS.ReadFile(name)
}

func (f timedFS) OpenFile(name string, flag int, perm fs.FileMode) (chaos.File, error) {
	start := time.Now()
	defer f.add(f.write, start)
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	start := time.Now()
	defer f.add(f.write, start)
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	defer f.add(f.write, start)
	return f.FS.Rename(oldpath, newpath)
}

func (f timedFS) MkdirAll(name string, perm fs.FileMode) error {
	start := time.Now()
	defer f.add(f.write, start)
	return f.FS.MkdirAll(name, perm)
}

type timedFile struct {
	chaos.File
	fs timedFS
}

func (t timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	defer t.fs.add(t.fs.write, start)
	return t.File.Write(b)
}

func (t timedFile) Sync() error {
	start := time.Now()
	defer t.fs.add(t.fs.write, start)
	if t.fs.p.on() {
		t.fs.syncs.Add(1)
	}
	return t.File.Sync()
}

func (t timedFile) Close() error {
	start := time.Now()
	defer t.fs.add(t.fs.write, start)
	return t.File.Close()
}

// noSyncFS is the real filesystem with fsync made a no-op. The daemon's
// cache spool and journal still create, write, rename and read real files,
// but an fsync on a shared virtual disk took 0.1 ms to several ms
// depending on other tenants' I/O, and moved warm job latency 2x between
// runs. A traced run still counts every fsync the program asks for.
type noSyncFS struct{ chaos.FS }

func (f noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (chaos.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (f noSyncFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

type noSyncFile struct{ chaos.File }

func (noSyncFile) Sync() error { return nil }

// promCounters reads unlabelled series from a Prometheus text exposition.
func promCounters(r io.Reader, names ...string) (map[string]float64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s missing from /metrics", n)
		}
	}
	return out, nil
}
