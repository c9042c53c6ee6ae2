package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rlsched/internal/experiments"
)

// pointEntry is one simulation point's recorder plus its identity inside
// the job's campaign.
type pointEntry[R any] struct {
	index int
	label string
	rec   R
}

// pointLog collects one kind of per-point recorder for a job: probe
// recorders behind /series, decision-audit recorders behind /decisions.
// Workers register entries concurrently through the profile hook while
// HTTP handlers snapshot; a retry attempt (which re-runs every point)
// resets the log so stale recorders never leak into responses. T is a
// recorder's wire view inside a snapshot.
type pointLog[R, T any] struct {
	newRec func() R
	// view snapshots one recorder into its wire form plus a change-tag
	// part that moves whenever the recorder rewrote or extended what an
	// earlier snapshot served.
	view func(index int, label string, rec R) (T, uint64)

	mu      sync.Mutex
	resets  uint64
	entries []pointEntry[R]
}

func newPointLog[R, T any](newRec func() R, view func(int, string, R) (T, uint64)) *pointLog[R, T] {
	return &pointLog[R, T]{newRec: newRec, view: view}
}

// hook makes one point's recorder for the job's RecordersFor hook: every
// point gets a fresh recorder, registered here under the point's index
// and canonical label. A nil log (the job did not ask for the artifact)
// returns the zero recorder.
func (l *pointLog[R, T]) hook(i int, spec experiments.RunSpec) (rec R) {
	if l == nil {
		return rec
	}
	rec = l.newRec()
	l.mu.Lock()
	l.entries = append(l.entries, pointEntry[R]{index: i, label: experiments.PointLabel(spec), rec: rec})
	l.mu.Unlock()
	return rec
}

// reset drops all recorded runs ahead of a retry attempt.
func (l *pointLog[R, T]) reset() {
	l.mu.Lock()
	l.entries = nil
	l.resets++
	l.mu.Unlock()
}

// sorted returns the registered entries ordered by (label, index) — the
// registration order depends on worker scheduling, the sort does not —
// and the log's reset count.
func (l *pointLog[R, T]) sorted() ([]pointEntry[R], uint64) {
	l.mu.Lock()
	entries := append([]pointEntry[R](nil), l.entries...)
	resets := l.resets
	l.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].label != entries[j].label {
			return entries[i].label < entries[j].label
		}
		return entries[i].index < entries[j].index
	})
	return entries, resets
}

// snapshot returns every recorded run's wire view in (label, index)
// order, plus a change tag folding the log's reset count with each
// view's tag part. A tag change tells streaming consumers that what they
// were served earlier was rewritten or extended.
func (l *pointLog[R, T]) snapshot() ([]T, uint64) {
	entries, resets := l.sorted()
	tag := resets << 32
	runs := make([]T, len(entries))
	for i, en := range entries {
		var part uint64
		runs[i], part = l.view(en.index, en.label, en.rec)
		tag = tag*31 + part
	}
	return runs, tag
}

// artifactView is one snapshot of a per-job artifact with a renderer per
// format its kind supports. JSON is always available and serves every
// format the kind does not render.
type artifactView struct {
	json any
	csv  func(io.Writer) error
	html func(io.Writer) error
}

// artifactGet builds the GET handler shared by /trace, /spans, /series
// and /decisions. A job whose spec did not enable the artifact recorded
// nothing and paid nothing, so view returns nil and the route 404s,
// naming the missing switch (off). Otherwise the format is negotiated:
// a case-insensitive ?format= wins, then an Accept header naming
// text/csv; JSON is the default.
func (s *Server) artifactGet(off string, view func(*job) *artifactView) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		v := view(j)
		if v == nil {
			writeError(w, http.StatusNotFound, "job %s was not submitted with %s", j.id, off)
			return
		}
		format := strings.ToLower(r.URL.Query().Get("format"))
		if format == "" && strings.Contains(r.Header.Get("Accept"), "text/csv") {
			format = "csv"
		}
		switch {
		case format == "csv" && v.csv != nil:
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			_ = v.csv(w)
		case format == "html" && v.html != nil:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_ = v.html(w)
		default:
			writeJSON(w, http.StatusOK, v.json)
		}
	}
}

// emitFunc writes one SSE frame: the named event with v as JSON data.
type emitFunc func(event string, v any)

// artifactStream builds the live SSE handler of /series/stream and
// /decisions/stream, under the same 404-when-off rule as artifactGet:
// frames returns nil when the job did not record the artifact, and
// otherwise a fresh per-subscriber frame writer for the polled SSE loop.
func (s *Server) artifactStream(off string, frames func(*job) func(emitFunc)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(w, r)
		if j == nil {
			return
		}
		send := frames(j)
		if send == nil {
			writeError(w, http.StatusNotFound, "job %s was not submitted with %s", j.id, off)
			return
		}
		s.serveSSE(w, r, j, true, send)
	}
}

// serveSSE is the Server-Sent Events loop shared by /events and the
// artifact streams. send writes the stream's frames: once up front and
// on every job notification. A polled stream also sends on every poll
// tick — surfacing samples and decisions recorded mid-point, which
// trigger no notification — and once more before the terminal frame so
// the final state is never missed. Every stream ends with a "done" event
// carrying the job status. Idle streams emit a keepalive comment, so
// proxies do not reap a long quiet stretch and clients can tell a slow
// job from a dead connection.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, j *job, polled bool, send func(emitFunc)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.m.sse.Add(1)
	defer s.m.sse.Add(-1)
	tick := j.watch()
	defer j.unwatch(tick)
	var poll <-chan time.Time
	if polled {
		t := time.NewTicker(s.seriesPoll)
		defer t.Stop()
		poll = t.C
	}
	ka := time.NewTicker(s.keepAlive)
	defer ka.Stop()
	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}
	send(emit)
	for {
		select {
		case <-r.Context().Done():
			// Client went away: tear the stream down immediately. The job
			// itself is unaffected.
			return
		case <-j.doneCh:
			if polled {
				send(emit)
			}
			emit("done", j.status())
			return
		case <-tick:
			send(emit)
		case <-poll:
			send(emit)
		case <-ka.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
