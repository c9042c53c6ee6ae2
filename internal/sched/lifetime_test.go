package sched_test

import (
	"slices"
	"testing"

	"rlsched/internal/grouping"
	"rlsched/internal/platform"
	"rlsched/internal/sched"
)

// lifetimePolicy wraps a policy and checks the engine's group ownership
// rule: a group is engine-owned and may be reused only once
// OnGroupComplete returns. It records each group's ID and member task IDs
// at OnAssigned, keyed by the group pointer, and at OnGroupComplete
// requires the group to still carry them.
type lifetimePolicy struct {
	sched.Policy
	t *testing.T
	// live maps each assigned, not yet completed group to what it held.
	live map[*grouping.Group]groupIdentity
	// structs counts distinct group pointers, assigned counts groups.
	structs  map[*grouping.Group]bool
	assigned int
}

type groupIdentity struct {
	id    int
	tasks []int
}

func identity(g *grouping.Group) groupIdentity {
	id := groupIdentity{id: g.ID}
	for _, tk := range g.Tasks {
		id.tasks = append(id.tasks, tk.ID)
	}
	return id
}

func (p *lifetimePolicy) OnAssigned(ctx *sched.Context, ag *sched.Agent, g *grouping.Group, node *platform.Node) {
	if prev, ok := p.live[g]; ok {
		p.t.Errorf("group %d assigned in the struct of group %d, which has not completed", g.ID, prev.id)
	}
	p.live[g] = identity(g)
	p.structs[g] = true
	p.assigned++
	p.Policy.OnAssigned(ctx, ag, g, node)
}

func (p *lifetimePolicy) OnGroupComplete(ctx *sched.Context, ag *sched.Agent, g *grouping.Group) {
	want, ok := p.live[g]
	if !ok {
		p.t.Errorf("group %d completed but was never assigned in this struct", g.ID)
	} else if got := identity(g); got.id != want.id || !slices.Equal(got.tasks, want.tasks) {
		p.t.Errorf("group completed as %d with tasks %v, assigned as %d with tasks %v",
			got.id, got.tasks, want.id, want.tasks)
	}
	delete(p.live, g)
	p.Policy.OnGroupComplete(ctx, ag, g)
}

// TestGroupLifetime runs every policy at heavy load with failure
// injection, so groups split, wait in the backlog and have tasks
// re-executed, and checks that no group is recycled while still live.
func TestGroupLifetime(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.FailureMTBF, cfg.RepairTime = 400, 20
	for _, pol := range allPolicies {
		p := &lifetimePolicy{Policy: pol.new(), t: t,
			live: map[*grouping.Group]groupIdentity{}, structs: map[*grouping.Group]bool{}}
		res := allocsEngine(t, 0, cfg, p).MustRun()
		if res.Completed != allocsTasks {
			t.Fatalf("%s: run completed %d/%d tasks", pol.name, res.Completed, allocsTasks)
		}
		if res.Stats.Splits == 0 || res.Stats.Backlogged == 0 || res.Restarts == 0 {
			t.Fatalf("%s: %d splits, %d backlogged, %d restarts: the run must exercise all three",
				pol.name, res.Stats.Splits, res.Stats.Backlogged, res.Restarts)
		}
		if len(p.live) != 0 {
			t.Errorf("%s: %d groups assigned but never completed", pol.name, len(p.live))
		}
		if len(p.structs) >= p.assigned {
			t.Errorf("%s: %d groups in %d structs: groups were not recycled", pol.name, p.assigned, len(p.structs))
		}
		t.Logf("%s: %d groups in %d structs, %d splits, %d backlogged, %d restarts",
			pol.name, p.assigned, len(p.structs), res.Stats.Splits, res.Stats.Backlogged, res.Restarts)
	}
}
