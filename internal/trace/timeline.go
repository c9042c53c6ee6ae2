package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Timeline is a tracer that reconstructs per-processor execution intervals
// (a Gantt chart) from the engine's dispatch/finish events. Attach it via
// the engine config's Tracer and export the schedule with WriteCSV for
// visualisation in any plotting tool. Like Ring it is safe for
// concurrent emit and snapshot, though pairing dispatch/finish events
// across processors only makes sense when each engine run feeds its own
// timeline or runs are serialised.
type Timeline struct {
	mu        sync.Mutex
	open      map[int]openExec // by processor ID
	intervals []Interval
	dropped   int
}

// Interval is one task execution on one processor.
type Interval struct {
	Processor int
	Task      int
	Group     int
	Start     float64
	End       float64
}

type openExec struct {
	task  int
	group int
	start float64
}

// NewTimeline creates an empty timeline collector.
func NewTimeline() *Timeline {
	return &Timeline{open: make(map[int]openExec)}
}

// Enabled implements Tracer: the timeline needs debug-level events.
func (t *Timeline) Enabled(l Level) bool { return true }

// fieldInt extracts an integer field by key.
func fieldInt(e Event, key string) (int, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			if v, ok := f.Value.(int); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// Emit implements Tracer.
func (t *Timeline) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case "dispatch":
		proc, ok1 := fieldInt(e, "proc")
		task, ok2 := fieldInt(e, "task")
		group, _ := fieldInt(e, "group")
		if !ok1 || !ok2 {
			t.dropped++
			return
		}
		t.open[proc] = openExec{task: task, group: group, start: e.At}
	case "finish":
		proc, ok1 := fieldInt(e, "proc")
		task, ok2 := fieldInt(e, "task")
		if !ok1 || !ok2 {
			t.dropped++
			return
		}
		oe, ok := t.open[proc]
		if !ok || oe.task != task {
			// Execution aborted by a failure and restarted elsewhere, or
			// dispatch happened before this tracer attached.
			t.dropped++
			return
		}
		delete(t.open, proc)
		t.intervals = append(t.intervals, Interval{
			Processor: proc, Task: task, Group: oe.group, Start: oe.start, End: e.At,
		})
	case "failure":
		// The aborted execution never finishes on this processor.
		if proc, ok := fieldInt(e, "proc"); ok {
			delete(t.open, proc)
		}
	}
}

// Intervals returns the completed executions sorted by (processor, start).
func (t *Timeline) Intervals() []Interval {
	t.mu.Lock()
	out := append([]Interval(nil), t.intervals...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Processor != out[j].Processor {
			return out[i].Processor < out[j].Processor
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Dropped counts events the timeline could not pair.
func (t *Timeline) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteCSV exports the Gantt data: processor,task,group,start,end.
func (t *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"processor", "task", "group", "start", "end"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for _, iv := range t.Intervals() {
		rec := []string{
			strconv.Itoa(iv.Processor),
			strconv.Itoa(iv.Task),
			strconv.Itoa(iv.Group),
			strconv.FormatFloat(iv.Start, 'g', -1, 64),
			strconv.FormatFloat(iv.End, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Validate checks timeline invariants: intervals are well-formed and never
// overlap on the same processor.
func (t *Timeline) Validate() error {
	ivs := t.Intervals()
	for i, iv := range ivs {
		if iv.End < iv.Start {
			return fmt.Errorf("trace: interval %d ends before it starts", i)
		}
		if i > 0 && ivs[i-1].Processor == iv.Processor && iv.Start < ivs[i-1].End-1e-9 {
			return fmt.Errorf("trace: processor %d intervals overlap at %g", iv.Processor, iv.Start)
		}
	}
	return nil
}
