package trace

import (
	"strings"
	"testing"
)

func dispatchEvent(at float64, proc, task, group int) Event {
	return Event{At: at, Level: LevelDebug, Kind: "dispatch",
		Fields: []Field{F("task", task), F("group", group), F("proc", proc)}}
}

func finishEvent(at float64, proc, task int) Event {
	return Event{At: at, Level: LevelDebug, Kind: "finish",
		Fields: []Field{F("task", task), F("proc", proc), F("met", true)}}
}

func TestTimelinePairsIntervals(t *testing.T) {
	tl := NewTimeline()
	tl.Emit(dispatchEvent(1, 0, 10, 5))
	tl.Emit(dispatchEvent(2, 1, 11, 5))
	tl.Emit(finishEvent(4, 0, 10))
	tl.Emit(finishEvent(6, 1, 11))
	tl.Emit(dispatchEvent(5, 0, 12, 6))
	tl.Emit(finishEvent(9, 0, 12))
	ivs := tl.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	// Sorted by (proc, start): proc0 has [1,4] and [5,9], proc1 [2,6].
	if ivs[0].Processor != 0 || ivs[0].Start != 1 || ivs[0].End != 4 || ivs[0].Task != 10 || ivs[0].Group != 5 {
		t.Fatalf("interval 0: %+v", ivs[0])
	}
	if ivs[1].Start != 5 || ivs[1].End != 9 {
		t.Fatalf("interval 1: %+v", ivs[1])
	}
	if ivs[2].Processor != 1 {
		t.Fatalf("interval 2: %+v", ivs[2])
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tl.Dropped() != 0 {
		t.Fatalf("dropped %d", tl.Dropped())
	}
}

func TestTimelineHandlesFailureAbort(t *testing.T) {
	tl := NewTimeline()
	tl.Emit(dispatchEvent(1, 0, 10, 5))
	tl.Emit(Event{At: 2, Level: LevelWarn, Kind: "failure", Fields: []Field{F("proc", 0), F("aborted", 10)}})
	// The re-execution happens on processor 1.
	tl.Emit(dispatchEvent(3, 1, 10, 5))
	tl.Emit(finishEvent(5, 1, 10))
	ivs := tl.Intervals()
	if len(ivs) != 1 || ivs[0].Processor != 1 {
		t.Fatalf("intervals %+v", ivs)
	}
}

func TestTimelineDropsUnpairedFinish(t *testing.T) {
	tl := NewTimeline()
	tl.Emit(finishEvent(5, 0, 10))
	if len(tl.Intervals()) != 0 || tl.Dropped() != 1 {
		t.Fatalf("intervals %d, dropped %d", len(tl.Intervals()), tl.Dropped())
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := NewTimeline()
	tl.Emit(dispatchEvent(1.5, 0, 10, 5))
	tl.Emit(finishEvent(4, 0, 10))
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "processor,task,group,start,end\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if !strings.Contains(out, "0,10,5,1.5,4") {
		t.Fatalf("csv row missing:\n%s", out)
	}
}

func TestTimelineValidateDetectsOverlap(t *testing.T) {
	tl := NewTimeline()
	tl.intervals = []Interval{
		{Processor: 0, Task: 1, Start: 0, End: 5},
		{Processor: 0, Task: 2, Start: 3, End: 7},
	}
	if err := tl.Validate(); err == nil {
		t.Fatal("expected overlap error")
	}
}
