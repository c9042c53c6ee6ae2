package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rlsched/internal/workload"
)

func TestNewCollectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive processor count")
		}
	}()
	NewCollector(0)
}

func TestAveRTEq4(t *testing.T) {
	c := NewCollector(4)
	c.RecordTask(TaskRecord{ID: 0, ResponseTime: 10, WaitTime: 4, MetDeadline: true})
	c.RecordTask(TaskRecord{ID: 1, ResponseTime: 20, WaitTime: 6, MetDeadline: false})
	if got := c.AveRT(); got != 15 {
		t.Fatalf("AveRT = %g, want 15", got)
	}
	if got := c.MeanWait(); got != 5 {
		t.Fatalf("MeanWait = %g, want 5", got)
	}
	if c.Completed() != 2 {
		t.Fatalf("Completed = %d", c.Completed())
	}
}

func TestSuccessRate(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.RecordTask(TaskRecord{ID: i, MetDeadline: i < 7})
	}
	if got := c.SuccessRate(10); got != 0.7 {
		t.Fatalf("SuccessRate = %g", got)
	}
	// Unfinished tasks count as failures.
	if got := c.SuccessRate(20); got != 0.35 {
		t.Fatalf("SuccessRate over 20 submitted = %g", got)
	}
	if c.SuccessRate(0) != 0 {
		t.Fatal("SuccessRate with zero submitted must be 0")
	}
	if c.DeadlineHits() != 7 {
		t.Fatalf("DeadlineHits = %d", c.DeadlineHits())
	}
}

// TestRTPercentile: a Records log gives the exact percentile; a
// default-mode collector, which keeps no per-task data, says NaN rather
// than a plausible 0.
func TestRTPercentile(t *testing.T) {
	var r Records
	if r.RTPercentile(50) != 0 {
		t.Fatal("empty log percentile must be 0")
	}
	c := NewCollector(4)
	for _, rt := range []float64{1, 2, 3, 4, 5} {
		r.RecordTask(TaskRecord{ResponseTime: rt})
		c.RecordTask(TaskRecord{ResponseTime: rt})
	}
	if got := r.RTPercentile(50); got != 3 {
		t.Fatalf("P50 = %g", got)
	}
	if got := r.RTPercentile(100); got != 5 {
		t.Fatalf("P100 = %g", got)
	}
	if got := c.RTPercentile(50); !math.IsNaN(got) {
		t.Fatalf("default-mode collector P50 = %g, want NaN", got)
	}
	if got := NewStreamingCollector(4).RTPercentile(50); got != 0 {
		t.Fatalf("empty streaming collector P50 = %g, want 0", got)
	}
}

// TestRecordsKeepOrder: the log holds every record in arrival order, and
// Reserve keeps what it holds.
func TestRecordsKeepOrder(t *testing.T) {
	var r Records
	r.RecordTask(TaskRecord{ID: 4})
	r.Reserve(10)
	r.RecordTask(TaskRecord{ID: 2})
	r.RecordGroup(GroupRecord{GroupID: 9})
	r.RecordGroup(GroupRecord{GroupID: 3})
	if got := r.Tasks(); len(got) != 2 || got[0].ID != 4 || got[1].ID != 2 {
		t.Fatalf("tasks %+v, want IDs 4, 2", got)
	}
	if got := r.Groups(); len(got) != 2 || got[0].GroupID != 9 || got[1].GroupID != 3 {
		t.Fatalf("groups %+v, want IDs 9, 3", got)
	}
	if cap(r.Tasks()) < 11 || cap(r.Groups()) < 5 {
		t.Fatalf("Reserve(10) left room for %d tasks, %d groups", cap(r.Tasks()), cap(r.Groups()))
	}
}

func TestSuccessByPriority(t *testing.T) {
	c := NewCollector(4)
	c.RecordTask(TaskRecord{Priority: workload.PriorityHigh, MetDeadline: true})
	c.RecordTask(TaskRecord{Priority: workload.PriorityHigh, MetDeadline: false})
	c.RecordTask(TaskRecord{Priority: workload.PriorityLow, MetDeadline: true})
	by := c.SuccessByPriority()
	if by[workload.PriorityHigh] != 0.5 {
		t.Fatalf("high success %g", by[workload.PriorityHigh])
	}
	if by[workload.PriorityLow] != 1 {
		t.Fatalf("low success %g", by[workload.PriorityLow])
	}
	if _, ok := by[workload.PriorityMedium]; ok {
		t.Fatal("medium class should be absent with no tasks")
	}
}

func TestGroupAggregates(t *testing.T) {
	c := NewCollector(4)
	c.RecordGroup(GroupRecord{GroupID: 0, Size: 2, Reward: 1, LVal: 2})
	c.RecordGroup(GroupRecord{GroupID: 1, Size: 4, Reward: 4, LVal: 6})
	if got := c.MeanGroupSize(); got != 3 {
		t.Fatalf("MeanGroupSize = %g", got)
	}
	if got := c.MeanGroupLVal(); got != 4 {
		t.Fatalf("MeanGroupLVal = %g", got)
	}
}

func TestRecordCycleMonotonePanic(t *testing.T) {
	c := NewCollector(4)
	c.RecordCycle(10, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-monotone cycle time")
		}
	}()
	c.RecordCycle(5, 2, 3)
}

// fillCycles records n cycles at unit intervals with the given per-cycle
// engaged busy/cap increments.
func fillCycles(c *Collector, n int, busyInc, capInc float64) {
	busy, cap := 0.0, 0.0
	for i := 0; i < n; i++ {
		busy += busyInc
		cap += capInc
		c.RecordCycle(float64(i), busy, cap)
	}
}

func TestUtilizationByCycleFraction(t *testing.T) {
	c := NewCollector(2)
	// Constant engaged utilisation of 0.5: every window reports 0.5.
	fillCycles(c, 101, 1, 2)
	series := c.UtilizationByCycleFraction(10)
	if len(series) != 10 {
		t.Fatalf("series length %d, want 10", len(series))
	}
	for i, u := range series {
		if math.Abs(u-0.5) > 1e-9 {
			t.Fatalf("window %d utilisation %g, want 0.5", i, u)
		}
	}
}

func TestUtilizationSeriesTooFewCycles(t *testing.T) {
	c := NewCollector(2)
	if c.UtilizationByCycleFraction(10) != nil {
		t.Fatal("no cycles should give nil series")
	}
	c.RecordCycle(0, 0, 0)
	if c.UtilizationByCycleFraction(10) != nil {
		t.Fatal("one cycle should give nil series")
	}
}

func TestUtilizationBucketsPanic(t *testing.T) {
	c := NewCollector(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero buckets")
		}
	}()
	c.UtilizationByCycleFraction(0)
}

func TestCumulativeUtilization(t *testing.T) {
	c := NewCollector(2)
	fillCycles(c, 101, 1, 4)
	for _, u := range c.CumulativeUtilizationByCycleFraction(10) {
		if math.Abs(u-0.25) > 1e-9 {
			t.Fatalf("cumulative utilisation %g, want 0.25", u)
		}
	}
}

func TestValidateConsistency(t *testing.T) {
	c := NewCollector(2)
	c.RecordTask(TaskRecord{ID: 0, MetDeadline: true})
	c.RecordTask(TaskRecord{ID: 1, MetDeadline: false})
	c.RecordGroup(GroupRecord{GroupID: 0, Size: 2, Reward: 1})
	if err := c.Validate(); err != nil {
		t.Fatalf("consistent collector rejected: %v", err)
	}
}

func TestValidateCatchesRewardMismatch(t *testing.T) {
	c := NewCollector(2)
	c.RecordTask(TaskRecord{ID: 0, MetDeadline: true})
	c.RecordGroup(GroupRecord{GroupID: 0, Size: 1, Reward: 0})
	if err := c.Validate(); err == nil {
		t.Fatal("expected reward mismatch error")
	}
}

func TestValidateCatchesSizeMismatch(t *testing.T) {
	c := NewCollector(2)
	c.RecordTask(TaskRecord{ID: 0, MetDeadline: false})
	c.RecordGroup(GroupRecord{GroupID: 0, Size: 3, Reward: 0})
	if err := c.Validate(); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

func TestValidateCatchesOversizedReward(t *testing.T) {
	c := NewCollector(2)
	c.RecordTask(TaskRecord{ID: 0, MetDeadline: true})
	c.RecordGroup(GroupRecord{GroupID: 0, Size: 1, Reward: 5})
	if err := c.Validate(); err == nil {
		t.Fatal("expected oversized reward error")
	}
}

// TestCollectorKindsAgree feeds the same records to a retaining and a
// streaming collector: every aggregate, and the verdict of Validate on a
// group whose reward exceeds its size while the totals still balance,
// must match.
func TestCollectorKindsAgree(t *testing.T) {
	retained, streaming := NewCollector(2), NewStreamingCollector(2)
	for _, c := range []*Collector{retained, streaming} {
		c.RecordTask(TaskRecord{ID: 0, Priority: workload.PriorityHigh, ResponseTime: 3, WaitTime: 1, MetDeadline: true})
		c.RecordTask(TaskRecord{ID: 1, Priority: workload.PriorityLow, ResponseTime: 5.5, WaitTime: 2, MetDeadline: true})
		c.RecordTask(TaskRecord{ID: 2, Priority: workload.PriorityHigh, ResponseTime: 8, WaitTime: 0.5, MetDeadline: true})
		c.RecordGroup(GroupRecord{GroupID: 0, Size: 1, Reward: 2, LVal: 1.5})
		c.RecordGroup(GroupRecord{GroupID: 1, Size: 2, Reward: 1, LVal: -0.25})
	}
	type summary struct {
		Completed, Hits      int
		AveRT, Wait, Success float64
		ByPriority           map[workload.Priority]float64
		GroupLVal, GroupSize float64
	}
	sum := func(c *Collector) summary {
		return summary{c.Completed(), c.DeadlineHits(), c.AveRT(), c.MeanWait(), c.SuccessRate(3),
			c.SuccessByPriority(), c.MeanGroupLVal(), c.MeanGroupSize()}
	}
	if a, b := sum(retained), sum(streaming); !reflect.DeepEqual(a, b) {
		t.Fatalf("aggregates differ:\nretained  %+v\nstreaming %+v", a, b)
	}
	for name, c := range map[string]*Collector{"retained": retained, "streaming": streaming} {
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "group 0 reward 2 > size 1") {
			t.Errorf("%s collector: Validate = %v, want the oversized group 0", name, err)
		}
	}
}

// Property: windowed utilisation always lies within the min/max of the
// underlying per-cycle ratios for any monotone recording.
func TestQuickWindowedUtilizationBounded(t *testing.T) {
	f := func(increments []uint8) bool {
		if len(increments) < 12 {
			return true
		}
		c := NewCollector(3)
		busy, cap := 0.0, 0.0
		for i, inc := range increments {
			b := float64(inc % 4)
			cp := b + float64(inc%3) + 0.5
			busy += b
			cap += cp
			c.RecordCycle(float64(i), busy, cap)
		}
		for _, u := range c.UtilizationByCycleFraction(10) {
			if u < 0 || u > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AveRT equals the arithmetic mean of recorded response times.
func TestQuickAveRTMatchesMean(t *testing.T) {
	f := func(rts []uint16) bool {
		if len(rts) == 0 {
			return true
		}
		c := NewCollector(1)
		sum := 0.0
		for i, rt := range rts {
			v := float64(rt) / 7
			sum += v
			c.RecordTask(TaskRecord{ID: i, ResponseTime: v})
		}
		return math.Abs(c.AveRT()-sum/float64(len(rts))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordTask(b *testing.B) {
	c := NewCollector(8)
	for i := 0; i < b.N; i++ {
		c.RecordTask(TaskRecord{ID: i, ResponseTime: float64(i % 100), MetDeadline: i%2 == 0})
	}
}

func TestWriteTaskRecords(t *testing.T) {
	var c Records
	c.RecordTask(TaskRecord{ID: 3, Priority: workload.PriorityHigh, ResponseTime: 12.5, WaitTime: 2, MetDeadline: true, FinishedAt: 40})
	var sb strings.Builder
	if err := c.WriteTaskRecords(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"id,priority,response_time", "3,high,12.5,2,true,40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("task CSV missing %q:\n%s", want, out)
		}
	}
}

func TestWriteGroupRecords(t *testing.T) {
	var c Records
	c.RecordGroup(GroupRecord{GroupID: 7, AgentID: 1, Size: 3, Reward: 2, ErrTG: 0.5, LVal: 4, CompletedAt: 99})
	var sb strings.Builder
	if err := c.WriteGroupRecords(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"group_id,agent_id,size", "7,1,3,2,0.5,4,99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("group CSV missing %q:\n%s", want, out)
		}
	}
}
