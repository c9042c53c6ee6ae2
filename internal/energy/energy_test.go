package energy

import (
	"math"
	"testing"
	"testing/quick"

	"rlsched/internal/platform"
	"rlsched/internal/rng"
)

func makePlatform(t *testing.T) *platform.Platform {
	t.Helper()
	return platform.MustGenerate(platform.DefaultGenConfig(), rng.NewStream(5, "en"))
}

func TestEq5TwoState(t *testing.T) {
	// 90W peak for 10 units busy + 45W for 5 units idle.
	got := Eq5(90, 10, 45, 5, 0, 0)
	if got != 90*10+45*5 {
		t.Fatalf("Eq5 = %g", got)
	}
}

func TestEq5WithSleep(t *testing.T) {
	got := Eq5(90, 1, 45, 2, 5, 3)
	if got != 90+90+15 {
		t.Fatalf("Eq5 with sleep = %g", got)
	}
}

func TestEq6Average(t *testing.T) {
	if got := Eq6([]float64{10, 20, 30}); got != 20 {
		t.Fatalf("Eq6 = %g", got)
	}
	if Eq6(nil) != 0 {
		t.Fatal("Eq6(nil) should be 0")
	}
}

func TestECSSum(t *testing.T) {
	if got := ECS([]float64{1, 2, 3.5}); got != 6.5 {
		t.Fatalf("ECS = %g", got)
	}
}

// The platform integrates energy itself; these tests pin the platform
// behaviour the paper's metric rests on, in the terms of Eq. 5 and 6.

// busyPlatform returns a generated platform with every third processor
// busy from time zero.
func busyPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	pl := makePlatform(t)
	for i, p := range pl.Processors() {
		if i%3 == 0 {
			p.SetState(platform.StateBusy, 0)
		}
	}
	return pl
}

func TestNodeEnergyIsEq6OfProcessors(t *testing.T) {
	pl := busyPlatform(t)
	pl.AdvanceAll(50)
	var nodes []float64
	for _, n := range pl.Nodes() {
		pp := make([]float64, len(n.Processors))
		for i, p := range n.Processors {
			pp[i] = p.Energy()
		}
		if got, want := n.Energy(), Eq6(pp); got != want {
			t.Fatalf("node %d energy %g, Eq6 of its processors %g", n.ID, got, want)
		}
		nodes = append(nodes, n.Energy())
	}
	if got, want := pl.TotalEnergy(), ECS(nodes); got != want {
		t.Fatalf("platform total %g != ECS of node energies %g", got, want)
	}
}

func TestDeltaMonotonicity(t *testing.T) {
	pl := busyPlatform(t)
	pl.AdvanceAll(10)
	before := pl.TotalEnergy()
	nodeBefore := make([]float64, pl.NumNodes())
	for i, n := range pl.Nodes() {
		nodeBefore[i] = n.Energy()
	}
	pl.AdvanceAll(30)
	if pl.TotalEnergy() <= before {
		t.Fatal("platform must consume energy between two instants")
	}
	for i, n := range pl.Nodes() {
		if n.Energy() < nodeBefore[i] {
			t.Fatalf("node %d consumed negative energy %g", n.ID, n.Energy()-nodeBefore[i])
		}
	}
}

func TestDeltaOutOfOrderPanics(t *testing.T) {
	pl := makePlatform(t)
	pl.AdvanceAll(30)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for advancing the platform backwards")
		}
	}()
	pl.AdvanceAll(10)
}

func TestEnergyBetweenInterpolation(t *testing.T) {
	pl := makePlatform(t)
	// Idle platform: energy is linear in time, so the first half of the
	// interval consumes exactly half of the whole.
	pl.AdvanceAll(50)
	half := pl.TotalEnergy()
	pl.AdvanceAll(100)
	full := pl.TotalEnergy()
	if math.Abs(half*2-full) > 1e-6 {
		t.Fatalf("half interval %g vs full %g", half, full)
	}
	// A zero-length interval consumes nothing.
	pl.AdvanceAll(100)
	if got := pl.TotalEnergy(); got != full {
		t.Fatalf("zero-length interval moved the total from %g to %g", full, got)
	}
}

func TestPerNodeSorted(t *testing.T) {
	pl := makePlatform(t)
	// Per-node results (energy, queues, utilisation accounts) are indexed
	// by node ID, so the platform lists its nodes as IDs 0..n-1 in order.
	for i, n := range pl.Nodes() {
		if n.ID != i {
			t.Fatalf("node %d at position %d", n.ID, i)
		}
	}
}

func TestComputeEfficiencyIdlePlatform(t *testing.T) {
	pl := makePlatform(t)
	eff := ComputeEfficiency(pl, 100, 0)
	if eff.EnergyPerTask != 0 {
		t.Fatal("zero completions must give zero energy per task")
	}
	if eff.UtilizationRate != 0 {
		t.Fatalf("idle platform utilisation %g", eff.UtilizationRate)
	}
	if math.Abs(eff.IdleFraction-1) > 1e-9 {
		t.Fatalf("idle platform idle fraction %g, want 1", eff.IdleFraction)
	}
}

func TestComputeEfficiencyWithBusyTime(t *testing.T) {
	pl := makePlatform(t)
	// Run one processor busy for the whole window.
	p := pl.Processors()[0]
	p.SetState(platform.StateBusy, 0)
	eff := ComputeEfficiency(pl, 100, 10)
	if eff.EnergyPerTask <= 0 {
		t.Fatal("energy per task must be positive")
	}
	if eff.UtilizationRate <= 0 {
		t.Fatal("utilisation must be positive with a busy processor")
	}
	if eff.IdleFraction >= 1 {
		t.Fatalf("idle fraction %g must drop below 1", eff.IdleFraction)
	}
}

// Property: Eq5 is linear — doubling all dwell times doubles the energy.
func TestQuickEq5Linearity(t *testing.T) {
	f := func(b, i, s uint16) bool {
		bt, it, st := float64(b), float64(i), float64(s)
		one := Eq5(90, bt, 45, it, 5, st)
		two := Eq5(90, 2*bt, 45, 2*it, 5, 2*st)
		return math.Abs(two-2*one) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq6 lies between min and max of its inputs.
func TestQuickEq6Bounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		pp := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			pp[i] = float64(r)
			lo = math.Min(lo, pp[i])
			hi = math.Max(hi, pp[i])
		}
		e := Eq6(pp)
		return e >= lo-1e-9 && e <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: cumulative energy, platform-wide and per node, never
// decreases, whatever the sampling pattern and state changes.
func TestQuickSnapshotMonotone(t *testing.T) {
	pl := platform.MustGenerate(platform.DefaultGenConfig(), rng.NewStream(77, "q"))
	procs := pl.Processors()
	now := 0.0
	f := func(step, proc uint8, busy bool) bool {
		now += float64(step) / 8
		before := pl.TotalEnergy()
		p := procs[int(proc)%len(procs)]
		nodeBefore := p.Node.Energy()
		state := platform.StateIdle
		if busy {
			state = platform.StateBusy
		}
		p.SetState(state, now)
		pl.AdvanceAll(now)
		return pl.TotalEnergy() >= before && p.Node.Energy() >= nodeBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerSeries(t *testing.T) {
	pl := makePlatform(t)
	pl.AdvanceAll(10)
	idle := pl.TotalEnergy() / 10
	// Make one processor busy for the next interval, raising the draw.
	pl.Processors()[0].SetState(platform.StateBusy, 10)
	before := pl.TotalEnergy()
	pl.AdvanceAll(20)
	busy := (pl.TotalEnergy() - before) / 10
	if busy <= idle {
		t.Fatalf("busy interval draw %g not above idle %g", busy, idle)
	}
}
