// Package metrics collects the per-run observations behind every figure in
// the paper's evaluation (§V): task response times (Eq. 4), deadline
// success (Eq. 8 aggregated to the successful rate rew_val/N), group
// feedback, and the utilisation-versus-learning-cycle series of
// Experiment 2.
package metrics

import (
	"fmt"
	"math"

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

// CycleRecord marks one learning cycle: the completion of a task group and
// the platform's cumulative utilisation integrals at that instant. The
// utilisation series of Figures 9/10 is reconstructed from consecutive
// records.
type CycleRecord struct {
	Cycle int
	At    float64
	// CumBusyDemand and CumCapDemand are the engaged-utilisation
	// integrals: busy processor-time and total processor-time accumulated
	// while nodes had work present (running or waiting). Their ratio is
	// the utilisation rate the scheduler is responsible for.
	CumBusyDemand float64
	CumCapDemand  float64
}

// Collector accumulates a single simulation run's observations. Every
// aggregate comes from counters fed as records arrive, so both modes
// report identical headline metrics. The mode only decides what is
// retained: the default keeps every task and group record and the full
// cycle series (exact RTPercentile, record export), while streaming mode
// (NewStreamingCollector) keeps a response-time histogram and a strided
// cycle series in constant memory — see streaming.go.
type Collector struct {
	tasks  []TaskRecord
	groups []GroupRecord
	cycles []CycleRecord

	completed   int
	success     int
	rt          stats.Accumulator
	wait        stats.Accumulator
	prioTotal   [len(workload.Priorities)]int
	prioHits    [len(workload.Priorities)]int
	groupTasks  int
	groupReward int
	lval        stats.Accumulator
	gsize       stats.Accumulator
	// groupErr records the first group whose reward exceeded its size.
	groupErr error

	cycleSeen   int
	cycleStride int
	lastCycleAt float64

	// rtHist is non-nil exactly in streaming mode.
	rtHist *rtHistogram
}

// NewCollector creates a collector that retains every record, for a
// platform with the given (positive) processor count.
func NewCollector(numProcessors int) *Collector {
	if numProcessors <= 0 {
		panic(fmt.Sprintf("metrics: processor count must be positive, got %d", numProcessors))
	}
	return &Collector{cycleStride: 1}
}

// RecordTask logs one task completion.
func (c *Collector) RecordTask(r TaskRecord) {
	c.completed++
	c.rt.Add(r.ResponseTime)
	c.wait.Add(r.WaitTime)
	c.prioTotal[r.Priority]++
	if r.MetDeadline {
		c.success++
		c.prioHits[r.Priority]++
	}
	if c.rtHist != nil {
		c.rtHist.add(r.ResponseTime)
		return
	}
	c.tasks = append(c.tasks, r)
}

// RecordGroup logs one group completion.
func (c *Collector) RecordGroup(r GroupRecord) {
	if r.Reward > r.Size && c.groupErr == nil {
		c.groupErr = fmt.Errorf("metrics: group %d reward %d > size %d", r.GroupID, r.Reward, r.Size)
	}
	c.groupTasks += r.Size
	c.groupReward += r.Reward
	c.lval.Add(r.LVal)
	c.gsize.Add(float64(r.Size))
	if c.rtHist == nil {
		c.groups = append(c.groups, r)
	}
}

// RecordCycle logs one learning cycle. Records must arrive in
// non-decreasing time order (the DES guarantees this). Streaming mode
// keeps a bounded, uniformly strided subset of the series.
func (c *Collector) RecordCycle(at, cumBusyDemand, cumCapDemand float64) {
	if c.cycleSeen > 0 && at < c.lastCycleAt {
		panic(fmt.Sprintf("metrics: cycle times not monotone: %g after %g", at, c.lastCycleAt))
	}
	idx := c.cycleSeen
	c.cycleSeen++
	c.lastCycleAt = at
	if idx%c.cycleStride != 0 {
		return
	}
	c.cycles = append(c.cycles, CycleRecord{Cycle: idx, At: at, CumBusyDemand: cumBusyDemand, CumCapDemand: cumCapDemand})
	if c.rtHist != nil && len(c.cycles) >= maxCycleRecords {
		c.decimateCycles()
	}
}

// Tasks returns the recorded task completions (empty in streaming mode).
func (c *Collector) Tasks() []TaskRecord { return c.tasks }

// Groups returns the recorded group completions (empty in streaming mode).
func (c *Collector) Groups() []GroupRecord { return c.groups }

// Cycles returns the learning-cycle records (a bounded uniformly strided
// subset in streaming mode).
func (c *Collector) Cycles() []CycleRecord { return c.cycles }

// Completed returns the number of completed tasks.
func (c *Collector) Completed() int { return c.completed }

// AveRT implements Eq. 4: the mean of (waiting + execution) time over
// completed tasks.
func (c *Collector) AveRT() float64 { return c.rt.Mean() }

// MeanWait returns the mean queueing delay component.
func (c *Collector) MeanWait() float64 { return c.wait.Mean() }

// SuccessRate returns rew_val / N over the given submitted count
// (Experiment 3's metric); tasks that never completed count as failures.
func (c *Collector) SuccessRate(submitted int) float64 {
	if submitted <= 0 {
		return 0
	}
	return float64(c.success) / float64(submitted)
}

// DeadlineHits returns the raw number of tasks that met their deadline.
func (c *Collector) DeadlineHits() int { return c.success }

// RTPercentile returns a response-time percentile over completed tasks
// (approximate in streaming mode, exact otherwise). It returns 0 when
// nothing completed.
func (c *Collector) RTPercentile(p float64) float64 {
	if c.rtHist != nil {
		return c.rtHist.percentile(p)
	}
	if len(c.tasks) == 0 {
		return 0
	}
	rts := make([]float64, len(c.tasks))
	for i, t := range c.tasks {
		rts[i] = t.ResponseTime
	}
	return stats.Percentile(rts, p)
}

// SuccessByPriority breaks the deadline-hit rate down per priority class
// over completed tasks.
func (c *Collector) SuccessByPriority() map[workload.Priority]float64 {
	out := make(map[workload.Priority]float64)
	for _, p := range workload.Priorities {
		if n := c.prioTotal[p]; n > 0 {
			out[p] = float64(c.prioHits[p]) / float64(n)
		}
	}
	return out
}

// MeanGroupLVal returns the average learning value across completed groups.
func (c *Collector) MeanGroupLVal() float64 { return c.lval.Mean() }

// MeanGroupSize returns the average group size — how the adaptive opnum
// settled.
func (c *Collector) MeanGroupSize() float64 { return c.gsize.Mean() }

// UtilizationByCycleFraction reconstructs the Figures 9/10 series: the
// utilisation rate achieved within each of `buckets` consecutive spans of
// learning cycles. Entry k covers cycles (k/buckets..(k+1)/buckets] of the
// total and reports busy processor-time divided by engaged processor-time
// (processor-time of nodes that had work present) in that span — the
// utilisation the scheduler is responsible for, meaningful at any load
// level. Fewer cycles than buckets yields a shorter (possibly empty)
// series.
func (c *Collector) UtilizationByCycleFraction(buckets int) []float64 {
	return c.windowedSeries(buckets, func(a, b CycleRecord) (float64, bool) {
		cap := b.CumCapDemand - a.CumCapDemand
		if cap <= 0 {
			return 0, false
		}
		return (b.CumBusyDemand - a.CumBusyDemand) / cap, true
	})
}

// windowedSeries slices the cycle records into `buckets` windows and
// reduces each with f; windows where f reports no valid data are skipped.
func (c *Collector) windowedSeries(buckets int, f func(a, b CycleRecord) (float64, bool)) []float64 {
	if buckets <= 0 {
		panic(fmt.Sprintf("metrics: buckets must be positive, got %d", buckets))
	}
	n := len(c.cycles)
	if n < 2 {
		return nil
	}
	out := make([]float64, 0, buckets)
	prevIdx := 0
	for k := 1; k <= buckets; k++ {
		idx := int(math.Round(float64(k) * float64(n-1) / float64(buckets)))
		if idx <= prevIdx {
			continue
		}
		if v, ok := f(c.cycles[prevIdx], c.cycles[idx]); ok {
			out = append(out, v)
		}
		prevIdx = idx
	}
	return out
}

// CumulativeUtilizationByCycleFraction reports engaged utilisation from
// time zero to each cycle-fraction boundary — the cumulative variant,
// smoother than the windowed one.
func (c *Collector) CumulativeUtilizationByCycleFraction(buckets int) []float64 {
	if buckets <= 0 {
		panic(fmt.Sprintf("metrics: buckets must be positive, got %d", buckets))
	}
	n := len(c.cycles)
	if n < 2 {
		return nil
	}
	out := make([]float64, 0, buckets)
	for k := 1; k <= buckets; k++ {
		idx := int(math.Round(float64(k) * float64(n-1) / float64(buckets)))
		b := c.cycles[idx]
		if b.CumCapDemand <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, b.CumBusyDemand/b.CumCapDemand)
	}
	return out
}

// Validate cross-checks collector invariants (used in integration tests).
func (c *Collector) Validate() error {
	switch {
	case c.success > c.completed:
		return fmt.Errorf("metrics: %d successes > %d completions", c.success, c.completed)
	case c.groupErr != nil:
		return c.groupErr
	case c.groupTasks != c.completed:
		return fmt.Errorf("metrics: groups cover %d tasks, %d completed", c.groupTasks, c.completed)
	case c.groupReward != c.success:
		return fmt.Errorf("metrics: group rewards sum to %d, task successes %d", c.groupReward, c.success)
	}
	return nil
}
