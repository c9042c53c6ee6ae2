package cache

import "testing"

// benchValue approximates one cached point result: a few hundred bytes
// of summary JSON.
var benchValue = []byte(`{"Policy":"adaptive-rl","Submitted":500,"Completed":500,` +
	`"AveRT":123.456789,"MeanWait":12.3456,"ECS":1234567.89,"SuccessRate":0.98,` +
	`"MeanUtilization":0.75,"EndTime":2500.5,"UtilWindows":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0]}`)

// BenchmarkCacheGetHit pins the hot path a warm daemon rides on every
// deduplicated submission: an in-memory LRU hit.
func BenchmarkCacheGetHit(b *testing.B) {
	s, err := Open("", 64)
	if err != nil {
		b.Fatal(err)
	}
	key := SpecHash("bench")
	if err := s.Put(key, benchValue); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(key); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkCachePutDisk measures the durable write path: envelope
// encode, temp write, fsync, rename.
func BenchmarkCachePutDisk(b *testing.B) {
	s, err := Open(b.TempDir(), 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(SpecHash(i), benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointKey measures canonical-hash throughput: the per-point
// cost every campaign pays before its first cache lookup.
func BenchmarkPointKey(b *testing.B) {
	profile := map[string]any{
		"Sites": 5, "ObservationPeriod": 2500.0, "SizeScale": 5.6,
		"Engine": map[string]any{"GroupCloseTimeout": 10.0, "TickInterval": 25.0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := map[string]any{"Policy": "adaptive-rl", "NumTasks": 500, "Seed": i}
		if _, err := PointKey(profile, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheGetDisk measures a disk-tier hit, what a coordinator
// whose memory tier is too small for the campaign pays per cached point:
// read, decode, checksum and canonical-form check. Two keys alternate
// through a one-entry memory tier, so every lookup goes to disk.
func BenchmarkCacheGetDisk(b *testing.B) {
	s, err := Open(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	keys := [2]string{SpecHash("bench-a"), SpecHash("bench-b")}
	for _, k := range keys {
		if err := s.Put(k, benchValue); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, tier := s.GetTier(keys[i%2]); tier != TierDisk {
			b.Fatalf("lookup %d: tier %v, want disk", i, tier)
		}
	}
}
