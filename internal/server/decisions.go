package server

import (
	"fmt"
	"io"

	"rlsched/internal/audit"
	"rlsched/internal/obs"
	"rlsched/internal/report"
)

// decisionsView is an audit recorder's wire view inside a snapshot. Its
// tag part grows with every decimation, decision and feedback, so any
// change to what an earlier snapshot served moves it.
func decisionsView(index int, label string, rec *audit.Recorder) (audit.RunLog, uint64) {
	log, epoch := rec.Snapshot()
	return audit.RunLog{Index: index, Label: label, Log: log}, epoch + log.Total + log.Fed
}

// DecisionsResponse is the JSON payload of GET /v1/jobs/{id}/decisions
// and of every "decisions" SSE event on /v1/jobs/{id}/decisions/stream.
// A stream frame is always the full snapshot, because the reservoir's
// stride-doubling decimation rewrites retained history too often for
// deltas to pay off at decision-log sizes.
type DecisionsResponse struct {
	ID   string         `json:"id"`
	Runs []audit.RunLog `json:"runs"`
}

// decisionsArtifact is the /decisions view of a job (nil for jobs
// submitted without a "decisions" block): JSON, the CLI-identical CSV
// export, or a self-contained HTML policy report.
func decisionsArtifact(j *job) *artifactView {
	if j.decisions == nil {
		return nil
	}
	runs, _ := j.decisions.snapshot()
	return &artifactView{
		json: DecisionsResponse{ID: j.id, Runs: runs},
		// The CSV bytes come from the same writer the CLI uses for
		// -decisions-csv, so the HTTP export is byte-identical to the CLI's.
		csv: func(w io.Writer) error { return audit.WriteDecisionsCSV(w, runs) },
		html: func(w io.Writer) error {
			return report.NewPolicyReport("Policy report "+j.id, runs).Render(w)
		},
	}
}

// decisionsFrames returns a /decisions/stream subscriber's frame writer
// (nil for unaudited jobs): a full snapshot first, then a fresh one
// whenever the log changed.
func decisionsFrames(j *job) func(emitFunc) {
	if j.decisions == nil {
		return nil
	}
	var (
		prevTag uint64
		first   = true
	)
	return func(emit emitFunc) {
		runs, tag := j.decisions.snapshot()
		if !first && tag == prevTag {
			return
		}
		prevTag, first = tag, false
		emit("decisions", DecisionsResponse{ID: j.id, Runs: runs})
	}
}

// foldDecisionMetrics adds one settled job's decision-audit tallies into
// the server-wide Prometheus series: rl_decisions_total counters by
// (agent, kind) and the rl_exploration_ratio gauge. Called once per job
// at settle time, so the counters stay monotonic; the audit package has
// already folded agents beyond its cardinality bound into the overflow
// bucket, rendered here as agent="other".
func (s *Server) foldDecisionMetrics(l *pointLog[*audit.Recorder, audit.RunLog]) {
	entries, _ := l.sorted()
	var explored, decided float64
	for _, en := range entries {
		for agent, kinds := range en.rec.AgentKindCounts() {
			lbl := "other"
			if agent != audit.OverflowAgent {
				lbl = fmt.Sprintf("%d", agent)
			}
			for kind, n := range kinds {
				s.reg.Counter("rl_decisions_total",
					"Scheduling decisions recorded by the decision audit, by agent and kind.",
					obs.L("agent", lbl), obs.L("kind", kind)).Add(n)
			}
		}
		kinds := en.rec.KindCounts()
		explored += float64(kinds[audit.KindExplore])
		decided += float64(kinds[audit.KindExplore] + kinds[audit.KindExploit] + kinds[audit.KindFallback])
	}
	if decided > 0 {
		s.reg.Gauge("rl_exploration_ratio",
			"Exploration share of audited re-decisions, over the most recent audited job.").
			Set(explored / decided)
	}
}
