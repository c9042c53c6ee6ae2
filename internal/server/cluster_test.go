package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rlsched/internal/cache"
	"rlsched/internal/config"
	"rlsched/internal/experiments"
	"rlsched/internal/journal"
)

// promValue scrapes the Prometheus text exposition and returns the
// value of one unlabelled series. The cache and cluster counters live
// only there — the ?format=json view is the frozen legacy job-counter
// map.
func promValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	code, raw := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d: %s", code, raw)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not in exposition:\n%s", name, raw)
	return 0
}

// clusterStatus fetches GET /v1/cluster.
func clusterStatus(t *testing.T, ts *httptest.Server) ClusterStatus {
	t.Helper()
	code, raw := getJSON(t, ts.URL+"/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("cluster status: HTTP %d: %s", code, raw)
	}
	var st ClusterStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// newWorkerServer starts a worker-mode daemon (serves leases, never fans
// out).
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, Options{Cluster: config.ClusterSpec{Worker: true}})
	return ts
}

// TestClusterFigureMatchesSolo pins the headline acceptance criterion: a
// figure fanned out by a coordinator across two workers is byte-identical
// to the same job on a standalone daemon.
func TestClusterFigureMatchesSolo(t *testing.T) {
	w1 := newWorkerServer(t)
	w2 := newWorkerServer(t)
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{Peers: []string{w1.URL, w2.URL}}})
	_, solo := newTestServer(t, Options{})

	body := `{"kind": "figure", "figure": "10", "profile": ` + tinyProfile + `}`
	var results [2][]byte
	for i, ts := range []*httptest.Server{solo, coord} {
		code, m := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, m)
		}
		id := m["id"].(string)
		final := waitState(t, ts, id, StateDone)
		if final["points_done"] != final["points_total"] {
			t.Fatalf("server %d progress %v/%v", i, final["points_done"], final["points_total"])
		}
		code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d: %s", i, code, raw)
		}
		results[i] = raw
	}
	// Both daemons were fresh, so both jobs got the same id and the whole
	// payload must match byte for byte.
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("cluster figure differs from solo run:\nsolo:    %s\ncluster: %s", results[0], results[1])
	}

	// The coordinator must have leased every point (cold cache, two alive
	// workers), and the status endpoint must say so.
	st := clusterStatus(t, coord)
	if st.Role != "coordinator" || len(st.Workers) != 2 {
		t.Fatalf("coordinator status = %+v", st)
	}
	var leased uint64
	for _, w := range st.Workers {
		if !w.Alive {
			t.Fatalf("worker %s not alive: %+v", w.URL, st.Workers)
		}
		leased += w.Leased
	}
	if leased != 2 {
		t.Fatalf("leased %d points, want 2 (figure 10 has 2 points): %+v", leased, st.Workers)
	}
	if got := promValue(t, coord, "cluster_points_remote_total"); got != 2 {
		t.Fatalf("cluster_points_remote_total = %v, want 2", got)
	}
	if ws := clusterStatus(t, w1); ws.Role != "worker" {
		t.Fatalf("worker role = %q, want worker", ws.Role)
	}
}

// TestClusterExtFigurePointIndices runs a span-traced figure "ext" job
// on a coordinator with one worker. The group's merged campaigns each
// reach the dispatcher with their own spec list, yet the coordinator's
// point spans (the children of the campaign spans under its job.run,
// not the worker-side spans imported under lease.attempt) must carry
// the call-wide index of their point: pairwise distinct and inside the
// group's point count.
func TestClusterExtFigurePointIndices(t *testing.T) {
	w := newWorkerServer(t)
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{Peers: []string{w.URL}}})
	code, m := postJob(t, coord, `{"kind": "figure", "figure": "ext", "spans": true, "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, coord, id, StateDone)
	byName := checkWellFormed(t, getSpans(t, coord, id))

	var root string
	for _, r := range byName["job.run"] {
		if r.ParentID == "" {
			root = r.SpanID
		}
	}
	camps := make(map[string]bool)
	for _, c := range byName["campaign"] {
		if c.ParentID == root {
			camps[c.SpanID] = true
		}
	}
	total, err := experiments.PointCount(tinyProfileValue(), "ext")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, p := range byName["point"] {
		if !camps[p.ParentID] {
			continue
		}
		f, ok := p.Attrs["index"].(float64)
		i := int(f)
		if !ok || float64(i) != f || i < 0 || i >= total {
			t.Fatalf("coordinator point span index %v, want an integer in [0, %d)", p.Attrs["index"], total)
		}
		if seen[i] {
			t.Fatalf("two coordinator point spans carry index %d", i)
		}
		seen[i] = true
	}
	if len(camps) < 2 || len(seen) < 2 {
		t.Fatalf("%d coordinator campaigns with %d point spans: the group did not run through the dispatcher", len(camps), len(seen))
	}
}

// dyingWorker proxies one worker and simulates its death inside a lease:
// submits and status polls pass through, but the first full-result fetch
// and every request after it fail with a 500. The victim's first lease is
// therefore always lost mid-flight, whichever worker drains the queue
// first, and the coordinator must requeue that point.
type dyingWorker struct {
	proxy *httputil.ReverseProxy
	mu    sync.Mutex
	dead  bool
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	if strings.HasSuffix(r.URL.Path, "/result") {
		d.dead = true
	}
	dead := d.dead
	d.mu.Unlock()
	if dead {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error": "worker lost"}`)
		return
	}
	d.proxy.ServeHTTP(w, r)
}

// TestClusterWorkerLossReLeases kills a worker mid-campaign and checks
// the lost points are re-leased: the job still finishes, byte-identical
// to a solo run, and the retry counter records the loss.
func TestClusterWorkerLossReLeases(t *testing.T) {
	good := newWorkerServer(t)
	victim := newWorkerServer(t)
	vu, err := url.Parse(victim.URL)
	if err != nil {
		t.Fatal(err)
	}
	dying := &dyingWorker{proxy: httputil.NewSingleHostReverseProxy(vu)}
	proxy := httptest.NewServer(dying)
	t.Cleanup(proxy.Close)

	// Fast heartbeats: a lease failure alone no longer retires a worker
	// (that takes a breaker streak); the probe loop is what notices the
	// victim's death.
	_, coord := newTestServer(t, Options{Cluster: config.ClusterSpec{
		Peers: []string{good.URL, proxy.URL}, HeartbeatSec: 0.05,
	}})
	_, solo := newTestServer(t, Options{})

	var pts []string
	for i := 0; i < 8; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	body := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `], "profile": ` + tinyProfile + `}`

	var results [2][]byte
	for i, ts := range []*httptest.Server{solo, coord} {
		code, m := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, m)
		}
		id := m["id"].(string)
		final := waitState(t, ts, id, StateDone)
		if final["points_done"].(float64) != 8 {
			t.Fatalf("server %d finished %v/8 points", i, final["points_done"])
		}
		code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d: %s", i, code, raw)
		}
		results[i] = raw
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("result after worker loss differs from solo run:\nsolo:    %s\ncluster: %s", results[0], results[1])
	}

	if got := promValue(t, coord, "cluster_lease_retries_total"); got < 1 {
		t.Fatalf("cluster_lease_retries_total = %v, want >= 1", got)
	}
	// Every point still completed remotely: the survivor picked up the
	// victim's share.
	st := clusterStatus(t, coord)
	var leased uint64
	for _, w := range st.Workers {
		leased += w.Leased
	}
	if leased != 8 {
		t.Fatalf("leased %d points, want 8: %+v", leased, st.Workers)
	}
	// The heartbeat loop notices the victim's death within a probe or two.
	deadline := time.Now().Add(5 * time.Second)
	for {
		victimDead := false
		for _, w := range clusterStatus(t, coord).Workers {
			if w.URL == proxy.URL && !w.Alive {
				victimDead = true
			}
		}
		if victimDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probes never marked the dead worker down: %+v", clusterStatus(t, coord).Workers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterRegister covers runtime registration: a standalone daemon
// becomes a coordinator, bad URLs bounce, and worker-mode daemons refuse
// peers outright.
func TestClusterRegister(t *testing.T) {
	wk := newWorkerServer(t)
	_, coord := newTestServer(t, Options{})

	if st := clusterStatus(t, coord); st.Role != "standalone" {
		t.Fatalf("fresh daemon role = %q, want standalone", st.Role)
	}

	post := func(ts *httptest.Server, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/cluster/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	code, raw := post(coord, `{"url": "`+wk.URL+`"}`)
	if code != http.StatusOK {
		t.Fatalf("register: HTTP %d: %s", code, raw)
	}
	var reg map[string]any
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if reg["alive"] != true {
		t.Fatalf("registered worker not alive: %s", raw)
	}
	st := clusterStatus(t, coord)
	if st.Role != "coordinator" || len(st.Workers) != 1 || !st.Workers[0].Alive {
		t.Fatalf("post-register status = %+v", st)
	}

	if code, raw := post(coord, `{"url": "ftp://nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad scheme: HTTP %d: %s", code, raw)
	}
	if code, raw := post(coord, `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty body: HTTP %d: %s", code, raw)
	}
	if code, raw := post(wk, `{"url": "`+coord.URL+`"}`); code != http.StatusConflict {
		t.Fatalf("register on a worker: HTTP %d, want 409: %s", code, raw)
	}

	// The registered worker takes real leases.
	code2, m := postJob(t, coord, `{"kind": "figure", "figure": "10", "profile": `+tinyProfile+`}`)
	if code2 != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code2, m)
	}
	waitState(t, coord, m["id"].(string), StateDone)
	st = clusterStatus(t, coord)
	if st.Workers[0].Leased != 2 {
		t.Fatalf("registered worker leased %d points, want 2", st.Workers[0].Leased)
	}
}

// TestRepeatedJobServedFromCache submits the same campaign twice and
// checks the second run never recomputes: every point is a cache hit,
// visible on /metrics, and the results match the first run exactly.
func TestRepeatedJobServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"kind": "points", "points": [
		{"Policy": "greedy", "NumTasks": 25, "Seed": 1},
		{"Policy": "round-robin", "NumTasks": 25, "Seed": 2},
		{"Policy": "greedy", "NumTasks": 40, "Seed": 3}
	], "profile": ` + tinyProfile + `}`

	var res [2]JobResult
	for i := range res {
		code, m := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, m)
		}
		id := m["id"].(string)
		final := waitState(t, ts, id, StateDone)
		if final["points_done"].(float64) != 3 {
			t.Fatalf("run %d progress %v/3", i, final["points_done"])
		}
		// Engine counters must flow even for cached points.
		if _, ok := final["engine"].(map[string]any); !ok {
			t.Fatalf("run %d settled without engine stats: %v", i, final)
		}
		code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: HTTP %d: %s", i, code, raw)
		}
		if err := json.Unmarshal(raw, &res[i]); err != nil {
			t.Fatal(err)
		}
	}
	p1, err := json.Marshal(res[0].Points)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := json.Marshal(res[1].Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatalf("cached rerun differs:\nfirst:  %s\nsecond: %s", p1, p2)
	}

	// First run: 3 misses + 3 puts. Second run: 3 hits, nothing computed.
	if cs := s.cache.Stats(); cs.Hits != 3 || cs.Misses != 3 || cs.Puts != 3 {
		t.Fatalf("cache stats = %+v, want 3 hits / 3 misses / 3 puts", cs)
	}
	if hits := promValue(t, ts, "cache_hits_total"); hits != 3 {
		t.Fatalf("cache_hits_total = %v, want 3", hits)
	}
	if cached := promValue(t, ts, "cluster_points_cached_total"); cached != 3 {
		t.Fatalf("cluster_points_cached_total = %v, want 3", cached)
	}
	if st := clusterStatus(t, ts); st.Cache.Hits != 3 {
		t.Fatalf("cluster status cache block = %+v, want 3 hits", st.Cache)
	}
}

// TestResultViewFull covers the lease wire shape: keep_results retains
// full per-point results served by ?view=full, byte-equivalent to a
// direct library run; ordinary jobs 404 that view.
func TestResultViewFull(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"kind": "points", "keep_results": true,
		"points": [{"Policy": "greedy", "NumTasks": 25, "Seed": 7}],
		"profile": ` + tinyProfile + `}`
	code, m := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, m)
	}
	id := m["id"].(string)
	waitState(t, ts, id, StateDone)

	code, raw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result?view=full")
	if code != http.StatusOK {
		t.Fatalf("full result: HTTP %d: %s", code, raw)
	}
	var full FullResult
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if full.ID != id || len(full.Results) != 1 {
		t.Fatalf("full result shape: %+v", full)
	}
	if full.Results[0].Collector != nil {
		t.Fatal("full result leaked the per-task collector")
	}

	// Determinism across the wire: the full result equals the library
	// running the echoed spec directly (Collector aside).
	code, sraw := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("summary result: HTTP %d: %s", code, sraw)
	}
	var sum JobResult
	if err := json.Unmarshal(sraw, &sum); err != nil {
		t.Fatal(err)
	}
	direct, err := experiments.RunManyCtx(context.Background(), tinyProfileValue(), []experiments.RunSpec{sum.Points[0].Spec})
	if err != nil {
		t.Fatal(err)
	}
	direct[0].Collector = nil
	want, err := json.Marshal(direct[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(full.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("full result differs from direct run:\nhttp:   %s\ndirect: %s", got, want)
	}

	// A job submitted without keep_results retains nothing.
	code, m = postJob(t, ts, `{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 25, "Seed": 8}], "profile": `+tinyProfile+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit plain: HTTP %d: %v", code, m)
	}
	id2 := m["id"].(string)
	waitState(t, ts, id2, StateDone)
	code, raw = getJSON(t, ts.URL+"/v1/jobs/"+id2+"/result?view=full")
	if code != http.StatusNotFound || !strings.Contains(string(raw), "keep_results") {
		t.Fatalf("view=full without keep_results: HTTP %d: %s", code, raw)
	}
}

// TestSpoolResumesFromCache stands in for a daemon that died
// mid-campaign with one point finished: the spool holds the job's
// accepted record and, in <spool>/cache, that point's cache entry. The
// restarted daemon must take the point from the cache, re-run only the
// missing one, and spool the new entry beside the first.
func TestSpoolResumesFromCache(t *testing.T) {
	dir := t.TempDir()
	specJSON := []byte(`{"kind": "points", "points": [
		{"Policy": "greedy", "NumTasks": 25, "Seed": 1},
		{"Policy": "round-robin", "NumTasks": 25, "Seed": 2}
	], "profile": ` + tinyProfile + `}`)
	spec, err := config.UnmarshalJob(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	// What the dead incarnation would have computed and cached.
	direct, err := experiments.RunManyCtx(context.Background(), spec.Profile, spec.Points)
	if err != nil {
		t.Fatal(err)
	}
	key0, err := cache.PointKey(spec.Profile.CacheFingerprint(), spec.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	r0 := direct[0]
	r0.Collector = nil
	data0, err := json.Marshal(r0)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := cache.OpenStore(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(key0, data0); err != nil {
		t.Fatal(err)
	}
	jn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(journal.Record{Op: journal.OpAccepted, ID: "job-000001", Spec: specJSON}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{SpoolDir: dir})
	waitState(t, ts, "job-000001", StateDone)

	// Point 0 came from the spooled cache, point 1 was recomputed and
	// spooled next to it.
	if cs := s.cache.Stats(); cs.Hits != 1 || cs.Misses != 1 || cs.DiskEntries != 2 {
		t.Fatalf("cache stats after resume = %+v, want 1 hit / 1 miss / 2 disk entries", cs)
	}
	// The resumed job's result is byte-identical to an uninterrupted run.
	code, raw := getJSON(t, ts.URL+"/v1/jobs/job-000001/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, raw)
	}
	want := JobResult{ID: "job-000001", Points: []PointResult{
		summarizePoint(spec.Points[0], direct[0]),
		summarizePoint(spec.Points[1], direct[1]),
	}}
	var wantBuf bytes.Buffer
	enc := json.NewEncoder(&wantBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), bytes.TrimSpace(wantBuf.Bytes())) {
		t.Fatalf("resumed result differs from direct run:\nhttp: %s\nwant: %s", raw, wantBuf.Bytes())
	}
}

// TestRetryAfterEstimate pins the 429 Retry-After arithmetic: expected
// work discounted by the cache miss rate, divided by local slots plus
// alive cluster workers.
func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		mean, miss             float64
		queued, slots, workers int
		want                   int
	}{
		{10, 1, 4, 1, 0, 40},    // no cache, no cluster: mean per queued job
		{10, 1, 4, 1, 3, 10},    // three workers quarter the wait
		{100, 0.5, 3, 1, 2, 50}, // half the points cached
		{10, 0.05, 4, 2, 1, 1},  // hot cache floors at the minimum
		{0.3, 1, 1, 1, 0, 1},    // sub-second jobs still say at least 1
		{1, 1, 0, 1, 0, 1},      // empty queue: immediate retry
	}
	for _, c := range cases {
		if got := retryAfterEstimate(c.mean, c.miss, c.queued, c.slots, c.workers); got != c.want {
			t.Errorf("retryAfterEstimate(%g, %g, %d, %d, %d) = %d, want %d",
				c.mean, c.miss, c.queued, c.slots, c.workers, got, c.want)
		}
	}
}

// TestRetryAfterCountsCacheAndCluster drives the full 429 path with a
// seeded runtime history, a hot cache and a (faked) nine-worker pool,
// and checks the header reflects all three.
func TestRetryAfterCountsCacheAndCluster(t *testing.T) {
	s, ts := newTestServer(t, Options{Jobs: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, relOnce sync.Once
	t.Cleanup(func() { relOnce.Do(func() { close(release) }) })
	s.pointGate = func() {
		startOnce.Do(func() { close(started) })
		<-release
	}
	// Seeded history: one completed job that took 1000s; nine alive
	// workers. The cache below ends up ~2% misses, under the 5% floor.
	s.durSum, s.durN = 1000, 1
	s.aliveWorkers = func() int { return 9 }
	if err := s.cache.Put("sha256:feed", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.cache.Get("sha256:feed")
	}

	var pts []string
	for i := 0; i < 20; i++ {
		pts = append(pts, fmt.Sprintf(`{"Policy": "greedy", "NumTasks": 20, "Seed": %d}`, i+1))
	}
	blocker := `{"kind": "points", "points": [` + strings.Join(pts, ",") + `],
		"profile": {"Replications": 1, "ObservationPeriod": 300, "LightTasks": 20, "HeavyTasks": 30, "Workers": 1}}`
	code, m := postJob(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: HTTP %d: %v", code, m)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never started")
	}
	code, m = postJob(t, ts, blocker)
	if code != http.StatusAccepted {
		t.Fatalf("submit filler: HTTP %d: %v", code, m)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(blocker))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", resp.StatusCode)
	}
	// mean=1000s; miss rate 21/1021 ≈ 2% floors to 0.05; 1 queued job;
	// 1 local slot + 9 workers: ceil(1000 * 0.05 * 1 / 10) = 5. Without
	// the floor it would be 3; without the cluster discount, 50.
	ra := resp.Header.Get("Retry-After")
	sec, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer", ra)
	}
	if sec != 5 {
		t.Fatalf("Retry-After = %d, want 5 (mean 1000 x floored miss 0.05 x 1 queued / 10-way capacity)", sec)
	}
}
