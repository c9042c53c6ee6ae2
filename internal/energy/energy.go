// Package energy implements the paper's energy model (§III.C) on top of
// the processor state timelines kept by package platform.
//
// Power draw per processor: p_max while busy (scaled by throttle), p_min
// while idle, and a deep-sleep draw for the Q+ baseline. Eq. 5 integrates
// these over time into PP_j; Eq. 6 averages PP_j over the processors of a
// node into E_c; the evaluation metric is ECS = Σ_c E_c.
//
// The platform integrates these itself (platform.Processor.Energy,
// Node.Energy, Platform.TotalEnergy); this package holds the pure
// formulas, for tests and analytical cross-checks, and the derived
// efficiency indicators of a finished run.
package energy

import "rlsched/internal/platform"

// Eq5 computes PP_j from aggregate dwell times:
//
//	PP_j = p_max·t_busy + p_min·t_idle (+ p_sleep·t_sleep)
//
// where t_busy is Σ ET_i, the total execution time of the N tasks run on
// the processor. The sleep term generalises the paper's two-state model to
// cover the Q+ baseline; passing zero sleep time recovers Eq. 5 exactly.
func Eq5(pMax, busyTime, pMin, idleTime, pSleep, sleepTime float64) float64 {
	return pMax*busyTime + pMin*idleTime + pSleep*sleepTime
}

// Eq6 computes E_c = (1/m)·Σ_j PP_j for a node's per-processor energies.
// It returns zero for an empty slice.
func Eq6(pp []float64) float64 {
	if len(pp) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range pp {
		sum += e
	}
	return sum / float64(len(pp))
}

// ECS sums node energies: the system-wide consumption metric of §V.B.
func ECS(nodeEnergies []float64) float64 {
	sum := 0.0
	for _, e := range nodeEnergies {
		sum += e
	}
	return sum
}

// Efficiency bundles derived energy-efficiency indicators.
type Efficiency struct {
	// EnergyPerTask is ECS divided by completed tasks.
	EnergyPerTask float64
	// UtilizationRate is mean busy fraction over the run.
	UtilizationRate float64
	// IdleFraction is the share of ECS attributable to idle/sleep states.
	IdleFraction float64
}

// ComputeEfficiency derives indicators from a finished platform at time
// now. completed must be positive for EnergyPerTask to be meaningful;
// zero yields zero.
func ComputeEfficiency(pl *platform.Platform, now float64, completed int) Efficiency {
	pl.AdvanceAll(now)
	var eff Efficiency
	total := pl.TotalEnergy()
	if completed > 0 {
		eff.EnergyPerTask = total / float64(completed)
	}
	eff.UtilizationRate = pl.MeanUtilization()
	// Idle share: integrate idle+sleep energy over processors, node-averaged
	// to stay commensurate with Eq. 6.
	idle := 0.0
	for _, n := range pl.Nodes() {
		sum := 0.0
		for _, p := range n.Processors {
			sum += p.PMinW*p.IdleTime() + p.PSleepW*p.SleepTime()
		}
		if m := len(n.Processors); m > 0 {
			idle += sum / float64(m)
		}
	}
	if total > 0 {
		eff.IdleFraction = idle / total
	}
	return eff
}
