package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlsched/internal/rng"
)

// eagerProc is a copy of the eager accounting that AdvanceAll's
// breakpoint log replaces: every Advance integrates the live power of the
// current state, and every AdvanceAll advances every processor at once.
// The replay tests hold the lazy accounting to it bit for bit.
type eagerProc struct {
	p          *Processor // power fields and ID; never advanced by the reference
	state      PowerState
	throttle   float64
	lastChange float64

	busyTime, idleTime, sleepTime, wakeTime, failedTime float64
	energy                                              float64
}

func (r *eagerProc) instantPower() float64 {
	switch r.state {
	case StateBusy:
		exp := r.p.PowerExponent
		if exp <= 0 {
			exp = 1
		}
		return r.p.PMinW + (r.p.PMaxW-r.p.PMinW)*math.Pow(r.throttle, exp)
	case StateSleep:
		return r.p.PSleepW
	case StateWaking:
		return r.p.PMaxW
	case StateFailed:
		return 0
	default:
		return r.p.PMinW
	}
}

func (r *eagerProc) advance(now float64) {
	dt := now - r.lastChange
	if dt < 0 {
		if dt > -1e-9 { // tolerate float jitter
			dt = 0
		} else {
			panic(fmt.Sprintf("platform: processor %d time moved backwards: %g -> %g", r.p.ID, r.lastChange, now))
		}
	}
	switch r.state {
	case StateBusy:
		r.busyTime += dt
	case StateSleep:
		r.sleepTime += dt
	case StateWaking:
		r.wakeTime += dt
	case StateFailed:
		r.failedTime += dt
	default:
		r.idleTime += dt
	}
	r.energy += r.instantPower() * dt
	r.lastChange = now
}

func (r *eagerProc) energyAt(now float64) float64 {
	dt := now - r.lastChange
	if dt <= 0 {
		return r.energy
	}
	return r.energy + r.instantPower()*dt
}

func (r *eagerProc) utilization() float64 {
	total := r.busyTime + r.idleTime + r.sleepTime + r.wakeTime + r.failedTime
	if total <= 0 {
		return 0
	}
	return r.busyTime / total
}

// replayRun drives one platform and its eager reference through the same
// operation sequence, decoded from a byte stream, and fails on the first
// accounting bit or panic that differs.
type replayRun struct {
	t     *testing.T
	pl    *Platform
	ref   []*eagerProc // indexed like pl.Processors()
	data  []byte
	clock float64 // time of the newest operation
	lastA float64 // time of the newest AdvanceAll
}

func (r *replayRun) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// when draws an operation time around the clock: ties, repeats of the
// last breakpoint, −5e-10 jitter, tiny and ordinary steps forward, and
// rarely a step far enough back to panic.
func (r *replayRun) when() float64 {
	b := r.next()
	var t float64
	switch b % 8 {
	case 0:
		t = r.clock
	case 1:
		t = r.clock - 5e-10
	case 2:
		t = r.lastA
	case 3:
		t = r.clock + 1e-10
	case 4:
		if b == 252 {
			t = r.clock - 1
			break
		}
		fallthrough
	default:
		t = r.clock + float64(b)*0.37
	}
	r.clock = t
	return t
}

// both runs f on the platform and g on the reference and requires the
// same panic (or none) from each.
func (r *replayRun) both(what string, f, g func()) {
	got, want := catch(f), catch(g)
	if got != want {
		r.t.Fatalf("%s: lazy panic %q, eager panic %q", what, got, want)
	}
}

func catch(f func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}

func (r *replayRun) proc() (*Processor, *eagerProc) {
	i := int(r.next()) % len(r.ref)
	return r.pl.Processors()[i], r.ref[i]
}

func (r *replayRun) step() {
	switch op := r.next() % 16; op {
	case 0, 1, 2, 3:
		p, e := r.proc()
		s, t := PowerState(r.next()%6), r.when() // 5 is outside the enumeration
		r.both("SetState", func() { p.SetState(s, t) }, func() { e.advance(t); e.state = s })
	case 4, 5:
		p, e := r.proc()
		level, t := 0.3+float64(r.next())/255*0.9, r.when()
		r.both("SetThrottle", func() { p.SetThrottle(level, t) }, func() {
			e.advance(t)
			e.throttle = math.Min(1, math.Max(MinThrottle, level))
		})
	case 6, 7:
		p, e := r.proc()
		t := r.when()
		r.both("Advance", func() { p.Advance(t) }, func() { e.advance(t) })
	case 8, 9, 10, 11:
		r.advanceAll(r.when())
	case 12:
		// A burst of breakpoints; a few in a row cross the log cap.
		n := 1 + int(r.next())
		for i := 0; i < n; i++ {
			r.advanceAll(r.clock + 0.25)
			r.clock += 0.25
		}
	default:
		r.compare(r.when())
	}
}

func (r *replayRun) advanceAll(t float64) {
	r.lastA = t
	r.both("AdvanceAll", func() { r.pl.AdvanceAll(t) }, func() {
		for _, e := range r.ref {
			e.advance(t)
		}
	})
}

// compare checks every accounting getter, and the node and platform
// aggregates, against the reference.
func (r *replayRun) compare(at float64) {
	r.t.Helper()
	eq := func(what string, id int, got, want float64) {
		r.t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			r.t.Fatalf("%s %d: %v (%#x), eager %v (%#x)", what, id, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, p := range r.pl.Processors() {
		e := r.ref[i]
		if p.State() != e.state || math.Float64bits(p.Throttle) != math.Float64bits(e.throttle) {
			r.t.Fatalf("proc %d state/throttle %v/%v, eager %v/%v", p.ID, p.State(), p.Throttle, e.state, e.throttle)
		}
		eq("InstantPower", p.ID, p.InstantPower(), e.instantPower())
		eq("Energy", p.ID, p.Energy(), e.energy)
		eq("EnergyAt", p.ID, p.EnergyAt(at), e.energyAt(at))
		eq("BusyTime", p.ID, p.BusyTime(), e.busyTime)
		eq("IdleTime", p.ID, p.IdleTime(), e.idleTime)
		eq("SleepTime", p.ID, p.SleepTime(), e.sleepTime)
		eq("WakeTime", p.ID, p.WakeTime(), e.wakeTime)
		eq("FailedTime", p.ID, p.FailedTime(), e.failedTime)
		eq("Utilization", p.ID, p.Utilization(), e.utilization())
	}
	var total, totalAt, util float64
	k := 0
	for _, n := range r.pl.Nodes() {
		var sum, sumAt, u float64
		for range n.Processors {
			e := r.ref[k]
			k++
			sum += e.energy
			sumAt += e.energyAt(at)
			u += e.utilization()
			util += e.utilization()
		}
		m := float64(len(n.Processors))
		eq("node Energy", n.ID, n.Energy(), sum/m)
		eq("node Utilization", n.ID, n.Utilization(), u/m)
		total += sum / m
		totalAt += sumAt / m
	}
	eq("TotalEnergy", 0, r.pl.TotalEnergy(), total)
	eq("TotalEnergyAt", 0, r.pl.TotalEnergyAt(at), totalAt)
	eq("MeanUtilization", 0, r.pl.MeanUtilization(), util/float64(len(r.ref)))
}

// runReplay generates a small platform with the given busy-power exponent
// and plays data against it and the eager reference, comparing
// everything at the end too.
func runReplay(t *testing.T, exponent float64, seed uint64, data []byte) {
	cfg := DefaultGenConfig()
	cfg.Sites, cfg.MinNodesPerSite, cfg.MaxNodesPerSite = 2, 1, 2
	cfg.MinProcsPerNode, cfg.MaxProcsPerNode = 1, 3
	cfg.PowerExponent = exponent
	pl := MustGenerate(cfg, rng.NewStream(seed, "replay"))
	r := &replayRun{t: t, pl: pl, data: data}
	for _, p := range pl.Processors() {
		r.ref = append(r.ref, &eagerProc{p: p, throttle: p.Throttle})
	}
	for len(r.data) > 0 {
		r.step()
	}
	r.compare(r.clock + 1)
}

func TestBreakpointReplayMatchesEagerSweep(t *testing.T) {
	if int(StateFailed) != 4 || logCap > 600 {
		t.Fatal("the state draws assume five states, and the sequences a log cap they cross")
	}
	src := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		data := make([]byte, 200+src.Intn(1000))
		src.Read(data)
		for _, exp := range []float64{1, 3} {
			runReplay(t, exp, uint64(i), data)
		}
	}
}

func FuzzBreakpointReplay(f *testing.F) {
	f.Add(uint64(1), false, []byte{4, 9, 0, 1, 7, 16, 0, 2, 7, 0, 1, 7, 3, 0, 1, 7, 200, 7, 8})
	f.Add(uint64(2), true, []byte{6, 200, 0, 0, 1, 17, 6, 255, 7, 1, 3, 1, 9, 4, 2, 4, 1, 7, 252})
	f.Add(uint64(3), true, []byte{2, 1, 30, 17, 4, 1, 1, 0, 5, 9, 4, 2, 3, 0, 1, 5, 2, 7, 252, 7, 0})
	f.Fuzz(func(t *testing.T, seed uint64, cubic bool, data []byte) {
		exp := 1.0
		if cubic {
			exp = 3
		}
		runReplay(t, exp, seed, data)
	})
}

// BenchmarkPlatformCycle times the energy layer's per-cycle work: one
// AdvanceAll breakpoint and a TotalEnergy read, on a figure-sized platform
// (50 processors) and a scale-sized one (2,500).
func BenchmarkPlatformCycle(b *testing.B) {
	for _, sites := range []int{2, 100} {
		cfg := DefaultGenConfig()
		cfg.Sites = sites
		cfg.MinProcsPerNode, cfg.MaxProcsPerNode = 5, 5
		pl := MustGenerate(cfg, rng.NewStream(1, "cycle"))
		for i, p := range pl.Processors() {
			if i%2 == 0 {
				p.SetState(StateBusy, 0)
			}
		}
		now := 0.0 // the platform outlives each b.N round, so time keeps going
		b.Run(fmt.Sprintf("procs=%d", pl.NumProcessors()), func(b *testing.B) {
			b.ReportAllocs()
			sum := 0.0
			for i := 0; i < b.N; i++ {
				now += 0.5
				pl.AdvanceAll(now)
				sum += pl.TotalEnergy()
			}
			if sum <= 0 {
				b.Fatal("no energy integrated")
			}
		})
	}
}
