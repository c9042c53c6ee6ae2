package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"rlsched/internal/chaos"
)

// corruptionFixture spools one entry and returns its key, value and raw
// on-disk bytes plus the spool path.
func corruptionFixture(t testing.TB, dir string) (key string, val, raw []byte, path string) {
	t.Helper()
	sum := sha256.Sum256([]byte("corruption-fixture"))
	key = KeyPrefix + hex.EncodeToString(sum[:])
	val = []byte(`{"figure": "10", "series": [1.5, 2.25, 3.125], "energy_kwh": 123.456, "policy": "adaptive-rl"}`)
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	hexPart := key[len(KeyPrefix):]
	path = filepath.Join(dir, hexPart[:2], hexPart[2:]+".json")
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading spooled entry: %v", err)
	}
	return key, val, raw, path
}

// freshGet opens a cold store (empty LRU, so the disk entry is the only
// possible source) and looks up key.
func freshGet(t testing.TB, dir, key string) ([]byte, bool) {
	t.Helper()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s.Get(key)
}

// TestStoreEveryTruncationIsAMiss cuts the spooled entry at every
// possible byte boundary: each torn prefix must read back as a miss,
// never a wrong result or a panic.
func TestStoreEveryTruncationIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key, _, raw, path := corruptionFixture(t, dir)
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := freshGet(t, dir, key); ok {
			t.Fatalf("truncation at byte %d of %d read back as a hit", cut, len(raw))
		}
	}
}

// TestStoreEveryBitFlipNeverWrongResult flips every bit of the spooled
// entry in turn. Each variant must read back either as a miss or — when
// the flip lands somewhere insignificant, like trailing whitespace — as
// the byte-identical original value. A hit with different bytes would
// be a wrong simulation result served from cache.
func TestStoreEveryBitFlipNeverWrongResult(t *testing.T) {
	dir := t.TempDir()
	key, val, raw, path := corruptionFixture(t, dir)
	var misses int
	for i := range raw {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << b
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok := freshGet(t, dir, key)
			if ok && !bytes.Equal(got, val) {
				t.Fatalf("bit %d of byte %d: hit with wrong value %q", b, i, got)
			}
			if !ok {
				misses++
			}
		}
	}
	if misses == 0 {
		t.Fatal("no flip ever produced a miss — corruption detection is not engaging")
	}
}

// FuzzCacheEntryDecode feeds arbitrary bytes to the spool decode path.
// The contract: never panic, and any successful hit must come from an
// envelope whose embedded key and value checksum both validate — i.e.
// corruption is only ever tolerated as a miss.
func FuzzCacheEntryDecode(f *testing.F) {
	dir := f.TempDir()
	key, _, raw, path := corruptionFixture(f, dir)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(`{"key": "` + key + `", "sum": "00", "value": {"x": 1}}`))
	f.Add([]byte(`{"key": "sha256:ffff", "value": null}`))
	f.Add([]byte("\x00\xff garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := freshGet(t, dir, key)
		if !ok {
			return
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("hit from unparsable data %q", data)
		}
		if env.Key != key {
			t.Fatalf("hit from envelope with wrong key %q", env.Key)
		}
		if env.Sum != valueSum(env.Value) {
			t.Fatalf("hit from envelope with bad checksum %q", env.Sum)
		}
		if !bytes.Equal(got, env.Value) {
			t.Fatalf("hit returned %q, envelope holds %q", got, env.Value)
		}
	})
}

// TestStoreDegradesToMemoryOnly drives consecutive spool write failures
// through a chaos FaultFS: the store must flip to memory-only (Degraded
// in Stats, Put errors stop), keep serving the current campaign from
// the LRU, and stay off the disk from then on.
func TestStoreDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	sched := chaos.NewSchedule(11, chaos.Rule{Op: chaos.OpWrite, Match: ".put-", Fault: chaos.ENOSPC, Prob: 1})
	s, err := OpenStore(Options{
		Dir:          dir,
		FS:           chaos.NewFaultFS(sched, nil),
		DegradeAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte("degrade"))
	key := KeyPrefix + hex.EncodeToString(sum[:])
	for i := 0; i < 3; i++ {
		if err := s.Put(key, []byte(`{"i": 1}`)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("put %d: err = %v, want ENOSPC", i, err)
		}
	}
	st := s.Stats()
	if !st.Degraded || st.DiskFaults != 3 {
		t.Fatalf("after 3 faults: Degraded=%v DiskFaults=%d, want degraded with 3 faults", st.Degraded, st.DiskFaults)
	}
	// Degraded mode: Put succeeds memory-only, Get serves from the LRU.
	if err := s.Put(key, []byte(`{"i": 2}`)); err != nil {
		t.Fatalf("degraded put returned %v, want nil", err)
	}
	if got, ok := s.Get(key); !ok || string(got) != `{"i": 2}` {
		t.Fatalf("degraded get = %q, %v", got, ok)
	}
	if st := s.Stats(); st.DiskFaults != 3 {
		t.Fatalf("degraded store kept touching the disk: %d faults", st.DiskFaults)
	}
	// Nothing must have landed in the spool.
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		ents, _ := os.ReadDir(filepath.Join(dir, sh.Name()))
		for _, e := range ents {
			t.Fatalf("unexpected spool file %s/%s", sh.Name(), e.Name())
		}
	}
}

// TestStoreDiskFaultBudgetResetsOnSuccess checks that scattered,
// recoverable faults do not accumulate into degradation: a success
// resets the consecutive-failure budget.
func TestStoreDiskFaultBudgetResetsOnSuccess(t *testing.T) {
	dir := t.TempDir()
	// The temp-file fault key is per shard, so pin every entry into one
	// shard ("ab") and script: fault, ok, fault, ok, ok, ok.
	sched := chaos.NewSchedule(5,
		chaos.Rule{Op: chaos.OpWrite, Match: ".put-", Fault: chaos.ENOSPC, Prob: 1, Limit: 1},
		chaos.Rule{Op: chaos.OpWrite, Match: ".put-", Fault: chaos.ENOSPC, Prob: 1, After: 2, Limit: 1},
	)
	s, err := OpenStore(Options{Dir: dir, FS: chaos.NewFaultFS(sched, nil), DegradeAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	var faults int
	for i := 0; i < 6; i++ {
		sum := sha256.Sum256([]byte{byte(i)})
		key := KeyPrefix + "ab" + hex.EncodeToString(sum[:])[2:]
		if err := s.Put(key, []byte(`{"v": 1}`)); err != nil {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("scripted schedule injected %d faults, want 2", faults)
	}
	if st := s.Stats(); st.Degraded {
		t.Fatalf("store degraded on non-consecutive faults: %+v", st)
	}
}

// TestStoreCaseFlippedFieldNameIsAMiss flips the case bit of the first
// letter of each envelope field name. encoding/json matches field names
// case-insensitively, so the flipped entry still decodes to a valid key,
// checksum and value; the store must nonetheless reject it as corrupt,
// drop the file and miss.
func TestStoreCaseFlippedFieldNameIsAMiss(t *testing.T) {
	for _, field := range []string{"key", "sum", "value"} {
		t.Run(field, func(t *testing.T) {
			dir := t.TempDir()
			sum := sha256.Sum256([]byte("case-flip"))
			key := KeyPrefix + hex.EncodeToString(sum[:])
			val := []byte(`{"figure":"10","series":[1.5,2.25]}`) // compact: stored as given
			s, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			hexPart := key[len(KeyPrefix):]
			path := filepath.Join(dir, hexPart[:2], hexPart[2:]+".json")
			if got, ok := freshGet(t, dir, key); !ok || !bytes.Equal(got, val) {
				t.Fatalf("intact entry: got %q, %v; want a hit", got, ok)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.Index(raw, []byte(`"`+field+`"`))
			if at < 0 {
				t.Fatalf("field %q not in entry %s", field, raw)
			}
			raw[at+1] ^= 0x20 // 'k' -> 'K'
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			cold, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, tier := cold.GetTier(key); tier != TierMiss {
				t.Fatalf("case-flipped %q served from %v: %q", field, tier, got)
			}
			if st := cold.Stats(); st.BadEntries != 1 {
				t.Fatalf("BadEntries = %d, want 1", st.BadEntries)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry not removed: stat err %v", err)
			}
		})
	}
}
