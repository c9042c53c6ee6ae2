package core

import (
	"testing"

	"rlsched/internal/grouping"
	"rlsched/internal/memory"
	"rlsched/internal/platform"
	"rlsched/internal/rng"
	"rlsched/internal/sched"
	"rlsched/internal/workload"
)

// harness builds an engine around a probe-wrapped policy, runs it once,
// and captures the live engine context for white-box decision tests.
type harness struct {
	eng *sched.Engine
	pol *AdaptiveRL
	ctx *sched.Context
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{pol: MustNew(cfg)}
	probe := &ctxProbe{inner: h.pol, capture: func(c *sched.Context) { h.ctx = c }}
	r := rng.NewStream(1, "wb")
	pcfg := platform.DefaultGenConfig()
	pcfg.Sites = 2
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 2, 2
	pl := platform.MustGenerate(pcfg, r.Split("p"))
	wcfg := workload.DefaultGenConfig()
	wcfg.NumTasks = 10
	tasks := workload.MustGenerate(wcfg, r.Split("w"))
	h.eng = sched.MustNew(sched.DefaultConfig(), pl, tasks, probe, r.Split("e"))
	h.eng.MustRun()
	if h.ctx == nil {
		t.Fatal("context capture failed")
	}
	return h
}

// ctxProbe wraps a policy and captures the engine context at Init.
type ctxProbe struct {
	inner   sched.Policy
	capture func(*sched.Context)
}

func (p *ctxProbe) Name() string { return "probe" }
func (p *ctxProbe) Init(ctx *sched.Context) {
	p.capture(ctx)
	p.inner.Init(ctx)
}
func (p *ctxProbe) ChooseAction(ctx *sched.Context, ag *sched.Agent, t *workload.Task) sched.Action {
	return p.inner.ChooseAction(ctx, ag, t)
}
func (p *ctxProbe) PlaceGroup(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, c []sched.NodeInfo) *platform.Node {
	return p.inner.PlaceGroup(ctx, ag, g, c)
}
func (p *ctxProbe) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, n *platform.Node) {
	p.inner.OnAssigned(ctx, ag, g, n)
}
func (p *ctxProbe) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	p.inner.OnGroupComplete(ctx, ag, g)
}
func (p *ctxProbe) OnProcessorIdle(ctx *sched.Context, proc *platform.Processor) {
	p.inner.OnProcessorIdle(ctx, proc)
}
func (p *ctxProbe) OnTick(ctx *sched.Context) { p.inner.OnTick(ctx) }

func TestEpsilonDecaysWithSharedExperience(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	st := h.pol.agents[0]
	mem := h.eng.Memory()
	ctx := h.ctx
	before := h.pol.epsilon(ctx, st)
	for i := 0; i < 500; i++ {
		mem.Record(memory.Experience{AgentID: 0, Reward: 1, Error: 1})
	}
	after := h.pol.epsilon(ctx, st)
	if after >= before {
		t.Fatalf("epsilon did not decay with shared experience: %g -> %g", before, after)
	}
	if after < h.pol.cfg.EpsilonFloor {
		t.Fatalf("epsilon %g below floor", after)
	}
}

func TestRewardRegressionUsesMemory(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Plant a dominant remembered action and flag a regression.
	best := memory.Experience{
		AgentID: 0, Reward: 50, Error: 0.3,
		Action: memory.Action{Opnum: 5, Mode: grouping.ModeIdentical},
	}
	h.eng.Memory().Record(best)
	st := h.pol.agents[0]
	st.useMemoryNext = true
	st.lastAction = memory.Action{Opnum: 1, Mode: grouping.ModeMixed}
	got := h.pol.ChooseAction(h.ctx, h.eng.Agents()[0], nil)
	if got.Opnum != 5 || got.Mode != grouping.ModeIdentical {
		t.Fatalf("regression fallback chose %+v, want the planted best action", got)
	}
	if st.useMemoryNext {
		t.Fatal("regression flag not cleared")
	}
}

func TestRewardRegressionIgnoresWorthlessMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSharedMemory = true
	h := newHarness(t, cfg)
	st := h.pol.agents[0]
	// Swap in a memory holding only zero-reward entries: the agent must
	// keep its current action rather than adopt noise.
	h.ctx.Memory = memory.NewShared()
	h.ctx.Memory.Record(memory.Experience{AgentID: 0, Reward: 0, Error: 1,
		Action: memory.Action{Opnum: 1, Mode: grouping.ModeIdentical}})
	st.useMemoryNext = true
	st.lastAction = memory.Action{Opnum: 4, Mode: grouping.ModeMixed}
	got := h.pol.ChooseAction(h.ctx, h.eng.Agents()[0], nil)
	if got.Opnum != 4 || got.Mode != grouping.ModeMixed {
		t.Fatalf("worthless memory should keep the current action, got %+v", got)
	}
}

func TestActionCommitmentPerEpoch(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	st := h.pol.agents[0]
	st.redecide = false
	st.useMemoryNext = false
	st.lastAction = memory.Action{Opnum: 3, Mode: grouping.ModeMixed}
	for i := 0; i < 5; i++ {
		got := h.pol.ChooseAction(h.ctx, h.eng.Agents()[0], nil)
		if got.Opnum != 3 || got.Mode != grouping.ModeMixed {
			t.Fatalf("mid-epoch call %d re-decided: %+v", i, got)
		}
	}
}

func TestExploitGatedUntilDiscriminating(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseNeuralNet = false    // force the memory/default path
	cfg.UseSharedMemory = false // local memory wiped below
	h := newHarness(t, cfg)
	st := h.pol.agents[0]
	st.local = memory.NewShared() // forget the run's experiences
	ctx := h.ctx
	// No rewarded experience anywhere: exploit must return the default.
	got := h.pol.exploit(ctx, st, memory.State{}, 6)
	if got.Opnum != cfg.DefaultOpnum || got.Mode != grouping.ModeMixed {
		t.Fatalf("flat exploit returned %+v, want default", got)
	}
	// A rewarded entry flips exploitation to the remembered action.
	st.local.Record(memory.Experience{AgentID: 0, Reward: 3, Error: 0.5,
		Action: memory.Action{Opnum: 6, Mode: grouping.ModeMixed}})
	got = h.pol.exploit(ctx, st, memory.State{}, 6)
	if got.Opnum != 6 {
		t.Fatalf("rewarded memory ignored: %+v", got)
	}
}

func TestSiteStateAggregation(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	ag := h.eng.Agents()[0]
	st := siteState(h.ctx, ag)
	if st.MeanPower <= 0 {
		t.Fatalf("site mean power %g must be positive", st.MeanPower)
	}
	if st.FreeSlots <= 0 {
		t.Fatalf("fresh site should have free slots, got %g", st.FreeSlots)
	}
}

func TestManageIdleSleepRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ManageIdleSleep = true
	h := newHarness(t, cfg)
	// The harness run completes with the extension active; at light load
	// the platform must have accumulated sleep time.
	slept := 0.0
	for _, proc := range h.ctx.Platform().Processors() {
		slept += proc.SleepTime()
	}
	if slept <= 0 {
		t.Fatal("idle-sleep extension never slept a processor")
	}
}
