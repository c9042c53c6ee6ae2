package platform

import (
	"math"
	"testing"
	"testing/quick"

	"rlsched/internal/rng"
)

func genDefault(t *testing.T) *Platform {
	t.Helper()
	pl, err := Generate(DefaultGenConfig(), rng.NewStream(7, "pl"))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return pl
}

func TestGenerateStructure(t *testing.T) {
	pl := genDefault(t)
	if len(pl.Sites) != 5 {
		t.Fatalf("got %d sites, want 5", len(pl.Sites))
	}
	for _, site := range pl.Sites {
		if len(site.Nodes) != 5 {
			t.Fatalf("site %d has %d nodes, want 5", site.ID, len(site.Nodes))
		}
		for _, node := range site.Nodes {
			m := node.NumProcessors()
			if m < 4 || m > 6 {
				t.Fatalf("node %d has %d processors, want 4-6", node.ID, m)
			}
			if node.QueueCap < 4 || node.QueueCap > 8 {
				t.Fatalf("node %d queue cap %d outside [4,8]", node.ID, node.QueueCap)
			}
		}
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(DefaultGenConfig(), rng.NewStream(3, "pl"))
	b := MustGenerate(DefaultGenConfig(), rng.NewStream(3, "pl"))
	pa, pb := a.Processors(), b.Processors()
	if len(pa) != len(pb) {
		t.Fatalf("processor counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].SpeedMIPS != pb[i].SpeedMIPS || pa[i].PMaxW != pb[i].PMaxW {
			t.Fatalf("processor %d differs across identical seeds", i)
		}
	}
}

func TestSpeedAndPowerRanges(t *testing.T) {
	pl := genDefault(t)
	for _, p := range pl.Processors() {
		if p.SpeedMIPS < 500 || p.SpeedMIPS >= 1000 {
			t.Fatalf("speed %g outside [500,1000)", p.SpeedMIPS)
		}
		if p.PMaxW < 80 || p.PMaxW > 95 {
			t.Fatalf("peak power %g outside [80,95]", p.PMaxW)
		}
		wantMin := p.PMaxW * 48.0 / 95.0
		if math.Abs(p.PMinW-wantMin) > 1e-9 {
			t.Fatalf("idle power %g, want %g", p.PMinW, wantMin)
		}
	}
}

func TestPeakPowerProportionalToSpeed(t *testing.T) {
	pl := genDefault(t)
	procs := pl.Processors()
	for i := 1; i < len(procs); i++ {
		a, b := procs[i-1], procs[i]
		if (a.SpeedMIPS-b.SpeedMIPS)*(a.PMaxW-b.PMaxW) < 0 {
			t.Fatalf("peak power not monotone in speed: (%g,%g) vs (%g,%g)",
				a.SpeedMIPS, a.PMaxW, b.SpeedMIPS, b.PMaxW)
		}
	}
}

func TestSlowestSpeed(t *testing.T) {
	pl := genDefault(t)
	slow := pl.SlowestSpeed()
	for _, p := range pl.Processors() {
		if p.SpeedMIPS < slow {
			t.Fatalf("found speed %g below reported slowest %g", p.SpeedMIPS, slow)
		}
	}
	empty := &Platform{}
	if empty.SlowestSpeed() != 0 {
		t.Fatal("empty platform slowest speed should be 0")
	}
}

func TestNodeCapacityEq2(t *testing.T) {
	node := &Node{QueueCap: 4}
	node.Processors = []*Processor{
		{SpeedMIPS: 600, Node: node}, {SpeedMIPS: 1000, Node: node},
	}
	want := (600.0 + 1000.0) / 4.0
	if got := node.Capacity(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Capacity = %g, want %g", got, want)
	}
	node.QueueCap = 0
	if node.Capacity() != 0 {
		t.Fatal("zero queue cap should give zero capacity")
	}
}

func TestProcessorEnergyIntegration(t *testing.T) {
	p := &Processor{SpeedMIPS: 500, PMaxW: 90, PMinW: 45, PSleepW: 5, Throttle: 1}
	p.SetState(StateBusy, 0) // idle 0..0, busy from 0
	p.SetState(StateIdle, 10)
	p.SetState(StateSleep, 15)
	p.Advance(20)
	wantEnergy := 90*10.0 + 45*5.0 + 5*5.0
	if math.Abs(p.Energy()-wantEnergy) > 1e-9 {
		t.Fatalf("energy %g, want %g", p.Energy(), wantEnergy)
	}
	if p.BusyTime() != 10 || p.IdleTime() != 5 || p.SleepTime() != 5 {
		t.Fatalf("dwell times busy=%g idle=%g sleep=%g", p.BusyTime(), p.IdleTime(), p.SleepTime())
	}
	if math.Abs(p.Utilization()-0.5) > 1e-12 {
		t.Fatalf("utilisation %g, want 0.5", p.Utilization())
	}
}

func TestThrottleScalesBusyPower(t *testing.T) {
	p := &Processor{SpeedMIPS: 1000, PMaxW: 95, PMinW: 48, Throttle: 1}
	p.SetThrottle(0.5, 0)
	if p.EffectiveSpeed() != 500 {
		t.Fatalf("effective speed %g, want 500", p.EffectiveSpeed())
	}
	p.SetState(StateBusy, 0)
	p.Advance(10)
	wantPower := 48 + (95-48)*0.5
	if math.Abs(p.Energy()-wantPower*10) > 1e-9 {
		t.Fatalf("throttled busy energy %g, want %g", p.Energy(), wantPower*10)
	}
}

func TestThrottleClamped(t *testing.T) {
	p := &Processor{Throttle: 1}
	p.SetThrottle(0.01, 0)
	if p.Throttle != MinThrottle {
		t.Fatalf("throttle %g, want clamp at %g", p.Throttle, MinThrottle)
	}
	p.SetThrottle(2, 0)
	if p.Throttle != 1 {
		t.Fatalf("throttle %g, want clamp at 1", p.Throttle)
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	p := &Processor{Throttle: 1}
	p.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backward time")
		}
	}()
	p.Advance(5)
}

func TestAdvanceToleratesFloatJitter(t *testing.T) {
	p := &Processor{Throttle: 1}
	p.Advance(10)
	p.Advance(10 - 1e-12) // must not panic
}

func TestNodeEnergyEq6(t *testing.T) {
	node := &Node{QueueCap: 1}
	p1 := &Processor{PMaxW: 90, PMinW: 45, Throttle: 1, Node: node, SpeedMIPS: 500}
	p2 := &Processor{PMaxW: 80, PMinW: 40, Throttle: 1, Node: node, Index: 1, ID: 1, SpeedMIPS: 600}
	node.Processors = []*Processor{p1, p2}
	p1.SetState(StateBusy, 0)
	p1.Advance(10)
	p2.Advance(10) // idle throughout
	want := (90*10.0 + 40*10.0) / 2
	if math.Abs(node.Energy()-want) > 1e-9 {
		t.Fatalf("node energy %g, want %g", node.Energy(), want)
	}
}

func TestPlatformTotalsAndAdvanceAll(t *testing.T) {
	pl := genDefault(t)
	pl.AdvanceAll(100)
	if pl.TotalEnergy() <= 0 {
		t.Fatal("idle platform over 100 time units must consume energy")
	}
	if pl.MeanUtilization() != 0 {
		t.Fatalf("idle platform utilisation %g, want 0", pl.MeanUtilization())
	}
	// All idle: ECS should equal sum over nodes of mean idle power * 100.
	want := 0.0
	for _, n := range pl.Nodes() {
		sum := 0.0
		for _, p := range n.Processors {
			sum += p.PMinW
		}
		want += sum / float64(len(n.Processors)) * 100
	}
	if math.Abs(pl.TotalEnergy()-want) > 1e-6 {
		t.Fatalf("idle ECS %g, want %g", pl.TotalEnergy(), want)
	}
}

func TestHeterogeneityControl(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Sites = 10
	cfg.MinNodesPerSite, cfg.MaxNodesPerSite = 20, 20
	// Fix the queue caps so capacity dispersion reflects speeds only.
	cfg.MinQueueCap, cfg.MaxQueueCap = 4, 4
	prev := -1.0
	for _, cv := range []float64{0.1, 0.5, 0.9} {
		cfg.HeterogeneityCV = cv
		pl := MustGenerate(cfg, rng.NewStream(11, "het"))
		got := pl.Heterogeneity()
		if got <= prev {
			t.Fatalf("heterogeneity not increasing: cv=%g measured %g, prev %g", cv, got, prev)
		}
		prev = got
	}
}

func TestHeterogeneityMeasuredNearTarget(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Sites = 10
	cfg.MinNodesPerSite, cfg.MaxNodesPerSite = 20, 20
	cfg.MinProcsPerNode, cfg.MaxProcsPerNode = 5, 5
	cfg.MinQueueCap, cfg.MaxQueueCap = 4, 4
	cfg.HeterogeneityCV = 0.5
	pl := MustGenerate(cfg, rng.NewStream(13, "het"))
	got := pl.Heterogeneity()
	// h=0.5 reproduces the nominal uniform [500, 1000] range: per-processor
	// CV is (hi-lo)/(sqrt(12)·mean) ≈ 0.192; node capacity averages 5
	// processors, shrinking the CV by ~sqrt(5).
	want := 500 / (math.Sqrt(12) * 750) / math.Sqrt(5)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("measured node CV %g, want ~%g", got, want)
	}
}

func TestHeterogeneitySpeedRange(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.HeterogeneityCV = 0.5
	pl := MustGenerate(cfg, rng.NewStream(14, "het"))
	for _, p := range pl.Processors() {
		if p.SpeedMIPS < 500 || p.SpeedMIPS >= 1000 {
			t.Fatalf("h=0.5 speed %g outside nominal [500,1000)", p.SpeedMIPS)
		}
	}
	cfg.HeterogeneityCV = 0.9
	pl = MustGenerate(cfg, rng.NewStream(15, "het"))
	lo, hi := math.Inf(1), 0.0
	for _, p := range pl.Processors() {
		lo = math.Min(lo, p.SpeedMIPS)
		hi = math.Max(hi, p.SpeedMIPS)
	}
	if lo >= 500 {
		t.Fatalf("h=0.9 slow tail missing: slowest %g", lo)
	}
	if hi <= 1000 {
		t.Fatalf("h=0.9 fast tail missing: fastest %g", hi)
	}
	if lo <= 0 {
		t.Fatal("speeds must stay positive")
	}
}

func TestHeterogeneityDegenerate(t *testing.T) {
	if (&Platform{}).Heterogeneity() != 0 {
		t.Fatal("empty platform heterogeneity must be 0")
	}
}

func TestGenConfigValidation(t *testing.T) {
	base := DefaultGenConfig()
	mutations := []func(*GenConfig){
		func(c *GenConfig) { c.Sites = 0 },
		func(c *GenConfig) { c.MinNodesPerSite = 0 },
		func(c *GenConfig) { c.MaxNodesPerSite = c.MinNodesPerSite - 1 },
		func(c *GenConfig) { c.MinProcsPerNode = -1 },
		func(c *GenConfig) { c.MinSpeedMIPS = 0 },
		func(c *GenConfig) { c.MaxSpeedMIPS = c.MinSpeedMIPS - 1 },
		func(c *GenConfig) { c.PMaxLoW = 0 },
		func(c *GenConfig) { c.PMinFrac = 1.5 },
		func(c *GenConfig) { c.SleepPowerW = -1 },
		func(c *GenConfig) { c.MinQueueCap = 0 },
		func(c *GenConfig) { c.HeterogeneityCV = -0.1 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Generate(cfg, rng.NewStream(1, "pl")); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestValidateCatchesBrokenBackPointers(t *testing.T) {
	pl := genDefault(t)
	pl.Sites[0].Nodes[0].Processors[0].Node = pl.Sites[0].Nodes[1]
	if err := pl.Validate(); err == nil {
		t.Fatal("expected validation error for broken back-pointer")
	}
}

func TestValidateCatchesPowerOrdering(t *testing.T) {
	pl := genDefault(t)
	pl.Sites[0].Nodes[0].Processors[0].PMinW = 1000
	if err := pl.Validate(); err == nil {
		t.Fatal("expected validation error for inverted power ordering")
	}
}

func TestMaxProcsPerNode(t *testing.T) {
	pl := genDefault(t)
	want := 0
	for _, n := range pl.Nodes() {
		if n.NumProcessors() > want {
			want = n.NumProcessors()
		}
	}
	if got := pl.MaxProcsPerNode(); got != want {
		t.Fatalf("MaxProcsPerNode = %d, want %d", got, want)
	}
}

// Property: generated platforms always validate and respect the configured
// structural ranges, for arbitrary seeds.
func TestQuickGeneratedPlatformsValid(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultGenConfig()
		cfg.Sites = int(seed%6) + 5 // 5..10 sites as in the paper
		pl, err := Generate(cfg, rng.NewStream(seed, "q"))
		if err != nil {
			return false
		}
		return pl.Validate() == nil && pl.SlowestSpeed() >= cfg.MinSpeedMIPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy accounting is additive — advancing in k steps equals
// one big advance.
func TestQuickEnergyAdditivity(t *testing.T) {
	f := func(steps []uint8) bool {
		p1 := &Processor{PMaxW: 90, PMinW: 45, Throttle: 1}
		p2 := &Processor{PMaxW: 90, PMinW: 45, Throttle: 1}
		total := 0.0
		now := 0.0
		for _, s := range steps {
			now += float64(s) / 16
			p1.Advance(now)
			total = now
		}
		p2.Advance(total)
		return math.Abs(p1.Energy()-p2.Energy()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGeneratePlatform(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.Sites = 10
	cfg.MinNodesPerSite, cfg.MaxNodesPerSite = 20, 20
	for i := 0; i < b.N; i++ {
		MustGenerate(cfg, rng.NewStream(uint64(i), "bench"))
	}
}

func TestWakingStateDrawsPeakPower(t *testing.T) {
	p := &Processor{SpeedMIPS: 500, PMaxW: 90, PMinW: 45, PSleepW: 5, Throttle: 1}
	p.SetState(StateSleep, 0)
	p.SetState(StateWaking, 10)
	p.SetState(StateIdle, 12)
	p.Advance(20)
	wantEnergy := 5*10.0 + 90*2.0 + 45*8.0
	if math.Abs(p.Energy()-wantEnergy) > 1e-9 {
		t.Fatalf("energy %g, want %g", p.Energy(), wantEnergy)
	}
	if p.dwellIn(StateWaking) != 2 {
		t.Fatalf("wake time %g, want 2", p.dwellIn(StateWaking))
	}
	// Waking time counts against utilisation.
	if math.Abs(p.Utilization()-0) > 1e-12 {
		t.Fatalf("utilisation %g, want 0 (never busy)", p.Utilization())
	}
}

func TestPowerStateStrings(t *testing.T) {
	names := map[PowerState]string{
		StateIdle: "idle", StateBusy: "busy", StateSleep: "sleep", StateWaking: "waking",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", int(st), st.String())
		}
	}
	if PowerState(99).String() == "" {
		t.Fatal("unknown state should format")
	}
}
