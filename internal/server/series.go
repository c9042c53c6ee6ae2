package server

import (
	"io"

	"rlsched/internal/probe"
)

// seriesView is a probe recorder's wire view inside a snapshot. Its tag
// part is the recorder's downsample epoch: new points reach a stream as
// deltas, so only a rewrite of history forces a reset frame.
func seriesView(index int, label string, rec *probe.Recorder) (probe.RunSeries, uint64) {
	series, epoch := rec.Snapshot()
	return probe.RunSeries{Index: index, Label: label, Series: series}, epoch
}

// SeriesResponse is the JSON payload of GET /v1/jobs/{id}/series.
type SeriesResponse struct {
	ID   string            `json:"id"`
	Runs []probe.RunSeries `json:"runs"`
}

// SeriesDelta is one series' incremental update inside a stream frame:
// the client replaces its points from index From on with Points. From
// can point one before the previously served end because the newest
// point of a snapshot is provisional (a mid-stride mean) until its
// stride completes.
type SeriesDelta struct {
	Name   string        `json:"name"`
	From   int           `json:"from"`
	Points []probe.Point `json:"points"`
}

// RunDelta carries one run's series deltas inside a stream frame.
type RunDelta struct {
	Index  int           `json:"index"`
	Label  string        `json:"label"`
	Series []SeriesDelta `json:"series"`
}

// SeriesFrame is the data payload of one "series" SSE event on
// /v1/jobs/{id}/series/stream. Either Reset is true and Runs holds the
// full snapshot (sent first, and whenever downsampling or a retry
// rewrote history or the run set changed), or Deltas holds incremental
// per-series updates.
type SeriesFrame struct {
	ID     string            `json:"id"`
	Reset  bool              `json:"reset,omitempty"`
	Runs   []probe.RunSeries `json:"runs,omitempty"`
	Deltas []RunDelta        `json:"deltas,omitempty"`
}

// seriesArtifact is the /series view of a job (nil for jobs submitted
// without a "series" block). The CSV bytes come from the same writer the
// CLIs use for -series-csv, so the HTTP export is byte-identical to the
// CLI's.
func seriesArtifact(j *job) *artifactView {
	if j.series == nil {
		return nil
	}
	runs, _ := j.series.snapshot()
	return &artifactView{
		json: SeriesResponse{ID: j.id, Runs: runs},
		csv:  func(w io.Writer) error { return probe.WriteSeriesCSV(w, runs) },
	}
}

// structureChanged reports whether two snapshots differ in run identity
// or series layout — the cases where a delta frame cannot express the
// update and the stream falls back to a full reset frame.
func structureChanged(prev, cur []probe.RunSeries) bool {
	if len(prev) != len(cur) {
		return true
	}
	for i := range cur {
		if prev[i].Index != cur[i].Index || prev[i].Label != cur[i].Label ||
			len(prev[i].Series) != len(cur[i].Series) {
			return true
		}
		for k := range cur[i].Series {
			if prev[i].Series[k].Name != cur[i].Series[k].Name {
				return true
			}
		}
	}
	return false
}

// seriesDeltas computes the per-series updates between two structurally
// identical snapshots. Completed points are immutable between equal-tag
// snapshots, but each series' final point may be provisional, so the
// delta re-sends it when it changed.
func seriesDeltas(id string, prev, cur []probe.RunSeries) *SeriesFrame {
	frame := &SeriesFrame{ID: id}
	for i := range cur {
		var rd RunDelta
		for k := range cur[i].Series {
			pp, cp := prev[i].Series[k].Points, cur[i].Series[k].Points
			from := len(pp)
			if from > 0 && (from > len(cp) || cp[from-1] != pp[from-1]) {
				from--
			}
			if from >= len(cp) {
				continue
			}
			rd.Series = append(rd.Series, SeriesDelta{
				Name:   cur[i].Series[k].Name,
				From:   from,
				Points: cur[i].Series[k].Points[from:],
			})
		}
		if len(rd.Series) > 0 {
			rd.Index, rd.Label = cur[i].Index, cur[i].Label
			frame.Deltas = append(frame.Deltas, rd)
		}
	}
	if len(frame.Deltas) == 0 {
		return nil
	}
	return frame
}

// seriesFrames returns a /series/stream subscriber's frame writer (nil
// for jobs without series): a full snapshot first, then delta frames as
// points accumulate, with reset frames whenever history was rewritten
// (downsampling, a retry) or the run set changed.
func seriesFrames(j *job) func(emitFunc) {
	if j.series == nil {
		return nil
	}
	var (
		prev    []probe.RunSeries
		prevTag uint64
		first   = true
	)
	return func(emit emitFunc) {
		cur, tag := j.series.snapshot()
		var frame *SeriesFrame
		if first || tag != prevTag || structureChanged(prev, cur) {
			frame = &SeriesFrame{ID: j.id, Reset: true, Runs: cur}
		} else {
			frame = seriesDeltas(j.id, prev, cur)
		}
		prev, prevTag, first = cur, tag, false
		if frame != nil {
			emit("series", frame)
		}
	}
}
