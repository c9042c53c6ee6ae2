package main

import (
	"time"

	"rlsched/internal/experiments"
	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// Callback groups of the policy interface, timed separately.
const (
	cbChoose   = iota // ChooseAction
	cbPlace           // PlaceGroup
	cbFeedback        // OnAssigned and OnGroupComplete
	cbTick            // Init, OnTick and OnProcessorIdle
	numCallbacks
)

var callbackNames = [numCallbacks]string{"choose", "place", "feedback", "tick"}

// callTimes is the time a policy spent in each callback group during one
// engine run, with call counts and the time of the first call.
type callTimes struct {
	busy  [numCallbacks]time.Duration
	calls [numCallbacks]int64
	first [numCallbacks]time.Time
}

func (c *callTimes) add(o *callTimes) {
	for i := range c.busy {
		c.busy[i] += o.busy[i]
		c.calls[i] += o.calls[i]
	}
}

func (c *callTimes) total() time.Duration {
	var t time.Duration
	for _, b := range c.busy {
		t += b
	}
	return t
}

// timedPolicy decorates a sched.Policy with per-callback timing. The
// engine calls a policy from its single simulation goroutine, so the
// counters need no locking. It forwards every call unchanged, so results
// are identical with and without it.
type timedPolicy struct {
	inner sched.Policy
	t     callTimes
}

func (p *timedPolicy) since(cb int, start time.Time) {
	if p.t.calls[cb] == 0 {
		p.t.first[cb] = start
	}
	p.t.busy[cb] += time.Since(start)
	p.t.calls[cb]++
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(ctx *sched.Context) {
	start := time.Now()
	p.inner.Init(ctx)
	p.since(cbTick, start)
}

func (p *timedPolicy) ChooseAction(ctx *sched.Context, ag *sched.Agent, t *workload.Task) sched.Action {
	start := time.Now()
	a := p.inner.ChooseAction(ctx, ag, t)
	p.since(cbChoose, start)
	return a
}

func (p *timedPolicy) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, candidates []sched.NodeInfo) *platform.Node {
	start := time.Now()
	n := p.inner.PlaceGroup(ctx, ag, g, candidates)
	p.since(cbPlace, start)
	return n
}

func (p *timedPolicy) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, node *platform.Node) {
	start := time.Now()
	p.inner.OnAssigned(ctx, ag, g, node)
	p.since(cbFeedback, start)
}

func (p *timedPolicy) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	start := time.Now()
	p.inner.OnGroupComplete(ctx, ag, g)
	p.since(cbFeedback, start)
}

func (p *timedPolicy) OnProcessorIdle(ctx *sched.Context, proc *platform.Processor) {
	start := time.Now()
	p.inner.OnProcessorIdle(ctx, proc)
	p.since(cbTick, start)
}

func (p *timedPolicy) OnTick(ctx *sched.Context) {
	start := time.Now()
	p.inner.OnTick(ctx)
	p.since(cbTick, start)
}

// policyKeys names the four learning policies in metric names.
var policyKeys = map[experiments.PolicyName]string{
	experiments.AdaptiveRL: "adaptive_rl",
	experiments.OnlineRL:   "online_rl",
	experiments.QPlus:      "qplus",
	experiments.Predictive: "predictive",
}

// policyLayer accumulates one policy's callback time and the engine time
// of the runs it made.
type policyLayer struct {
	calls callTimes
	run   time.Duration
}

// recordPolicySpans adds one aggregate span per callback group under the
// engine run span.
func recordPolicySpans(tr *Tracer, trace string, parent int64, key string, c *callTimes) {
	for cb := 0; cb < numCallbacks; cb++ {
		tr.Aggregate(trace, parent, "policy."+key+"."+callbackNames[cb], c.first[cb], c.busy[cb], c.calls[cb])
	}
}

// policyMetrics renders the policy.<p>.* per-layer metrics.
func policyMetrics(m map[string]float64, layers map[string]*policyLayer) {
	for _, key := range policyKeys {
		pl := layers[key]
		if pl == nil {
			pl = &policyLayer{}
		}
		for cb := 0; cb < numCallbacks; cb++ {
			m["policy."+key+"."+callbackNames[cb]+"_ns"] = perCall(pl.calls.busy[cb], pl.calls.calls[cb])
		}
		share := 0.0
		if pl.run > 0 {
			share = float64(pl.calls.total()) / float64(pl.run)
		}
		m["policy."+key+".share"] = share
	}
}

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
