package experiments

import "rlsched/internal/sched"

// CacheFingerprint reduces the profile to the fields that can influence
// one simulation point's result, zeroing everything else. A point's
// outcome is a pure function of its RunSpec plus the scenario-shaping
// profile knobs (Platform, ObservationPeriod, SizeScale, Mix, Engine);
// campaign-level knobs — replication counts, worker parallelism, base
// seeds that only feed spec expansion, telemetry thresholds — never
// reach the engine, so two profiles differing only there must share
// cache entries. The reduction copies and zeroes rather than building a
// fresh Profile, so a future field lands in the cache key by default:
// over-keying costs a cold miss, under-keying would serve wrong results.
func (p Profile) CacheFingerprint() Profile {
	p.Replications = 0
	p.Seed = 0
	p.LightTasks, p.HeavyTasks = 0, 0
	p.Workers = 0
	p.SlowPointSec = 0
	// Runtime-only hooks are never serialised (json:"-"), but nil them
	// anyway so a fingerprint compares clean in tests and never leaks an
	// engine handle.
	p.Progress, p.Metrics, p.Logger = nil, nil, nil
	p.RunPoints, p.RecordersFor, p.PointSpan = nil, nil, nil
	p.Engine.Recorders = sched.Recorders{}
	p.pointBase, p.pointOrig = 0, nil
	return p
}
