package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"rlsched/internal/stats"
	"rlsched/internal/workload"
)

// TaskRecord is the completion record of one task.
type TaskRecord struct {
	ID           int
	Priority     workload.Priority
	ResponseTime float64
	WaitTime     float64
	MetDeadline  bool
	FinishedAt   float64
}

// GroupRecord is the feedback record of one completed task group.
type GroupRecord struct {
	GroupID int
	AgentID int
	Size    int
	Reward  int
	ErrTG   float64
	// LVal is the learning value the agent derived (Eq. 7).
	LVal        float64
	CompletedAt float64
}

// Records is the opt-in log of one run's task and group completions, in
// completion order: the engine feeds it when a caller attaches one
// (sched.Recorders.Records). Nothing the engine reports reads it, so a
// run with or without a log gives the same result; it serves record
// export, exact response-time percentiles and tests. Its memory grows
// with the task count (48 bytes per task, 56 per group). The zero value
// is an empty log, ready to use.
type Records struct {
	tasks  []TaskRecord
	groups []GroupRecord
}

// Reserve makes room for n more task records and n/2 more group records
// (the figure workloads form one group per ~2.4 tasks), so a run whose
// task count is known up front never regrows the task log and seldom the
// group log.
func (r *Records) Reserve(n int) {
	r.tasks = slices.Grow(r.tasks, n)
	r.groups = slices.Grow(r.groups, n/2)
}

// RecordTask appends one task completion.
func (r *Records) RecordTask(t TaskRecord) { r.tasks = append(r.tasks, t) }

// RecordGroup appends one group completion.
func (r *Records) RecordGroup(g GroupRecord) { r.groups = append(r.groups, g) }

// Tasks returns the logged task completions.
func (r *Records) Tasks() []TaskRecord { return r.tasks }

// Groups returns the logged group completions.
func (r *Records) Groups() []GroupRecord { return r.groups }

// RTPercentile returns the exact response-time percentile over the
// logged tasks (stats.Percentile's rank convention), or 0 when none
// completed.
func (r *Records) RTPercentile(p float64) float64 {
	if len(r.tasks) == 0 {
		return 0
	}
	rts := make([]float64, len(r.tasks))
	for i, t := range r.tasks {
		rts[i] = t.ResponseTime
	}
	return stats.Percentile(rts, p)
}

// Record export: per-task and per-group observations serialise to CSV so
// runs can be analysed outside the simulator (spreadsheets, notebooks).

// WriteTaskRecords emits one row per logged task:
// id,priority,response_time,wait_time,met_deadline,finished_at.
func (r *Records) WriteTaskRecords(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "priority", "response_time", "wait_time", "met_deadline", "finished_at"}); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, t := range r.tasks {
		rec := []string{
			strconv.Itoa(t.ID),
			t.Priority.String(),
			formatFloat(t.ResponseTime),
			formatFloat(t.WaitTime),
			strconv.FormatBool(t.MetDeadline),
			formatFloat(t.FinishedAt),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// WriteGroupRecords emits one row per logged task group:
// group_id,agent_id,size,reward,err_tg,l_val,completed_at.
func (r *Records) WriteGroupRecords(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"group_id", "agent_id", "size", "reward", "err_tg", "l_val", "completed_at"}); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, g := range r.groups {
		rec := []string{
			strconv.Itoa(g.GroupID),
			strconv.Itoa(g.AgentID),
			strconv.Itoa(g.Size),
			strconv.Itoa(g.Reward),
			formatFloat(g.ErrTG),
			formatFloat(g.LVal),
			formatFloat(g.CompletedAt),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
