package cache

import (
	"testing"

	"rlsched/internal/experiments"
)

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

// BenchmarkPointKey measures keying one point of a campaign under the
// real default profile fingerprint. "keyer" is what the dispatcher pays
// per point, with the profile canonicalised once per campaign; "PointKey"
// canonicalises the profile again for every point.
func BenchmarkPointKey(b *testing.B) {
	fp := experiments.DefaultProfile().CacheFingerprint()
	spec := func(i int) experiments.RunSpec {
		return experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: 500, HeterogeneityCV: 0.35, Seed: uint64(i)}
	}
	b.Run("keyer", func(b *testing.B) {
		k, err := NewKeyer(fp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := k.Key(spec(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PointKey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PointKey(fp, spec(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheGetDisk measures a disk-tier hit, what a coordinator
// whose memory tier is too small for the campaign pays per cached point:
// read, one layout and JSON validity scan of the value, and its
// checksum. Two keys alternate through a one-entry memory tier, so every
// lookup goes to disk.
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
