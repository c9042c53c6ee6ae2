package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCanonicalJSONSortsAndCompacts(t *testing.T) {
	type inner struct {
		B int    `json:"b"`
		A string `json:"a"`
	}
	got, err := CanonicalJSON(struct {
		Z inner   `json:"z"`
		M float64 `json:"m"`
	}{inner{2, "x"}, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"m":1.5,"z":{"a":"x","b":2}}`
	if string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}

func TestCanonicalJSONPreservesUint64(t *testing.T) {
	// A seed beyond 2^53 must not round-trip through float64.
	got, err := CanonicalJSON(map[string]uint64{"seed": 18446744073709551615})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seed":18446744073709551615}`; string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}

func TestSpecHashShape(t *testing.T) {
	h := SpecHash(map[string]int{"n": 1})
	if !strings.HasPrefix(h, KeyPrefix) || len(h) != len(KeyPrefix)+64 {
		t.Fatalf("SpecHash shape %q", h)
	}
	if h != SpecHash(map[string]int{"n": 1}) {
		t.Fatal("SpecHash not deterministic")
	}
	if h == SpecHash(map[string]int{"n": 2}) {
		t.Fatal("distinct specs collided")
	}
}

func TestPointKeySeparatesProfileAndSpec(t *testing.T) {
	k1, err := PointKey(map[string]int{"sites": 5}, map[string]int{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PointKey(map[string]int{"sites": 6}, map[string]int{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("different profiles produced the same key")
	}
	if k1 == SpecHash(map[string]int{"n": 1}) {
		t.Fatal("PointKey must not collide with SpecHash of the same spec")
	}
}

func TestStoreMemoryPutGet(t *testing.T) {
	s, err := Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	key := SpecHash("k")
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store hit")
	}
	if err := s.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.MemEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = SpecHash(i)
		if err := s.Put(keys[i], []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived past the LRU bound")
	}
	for _, k := range keys[1:] {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recent entry %s evicted", k)
		}
	}
}

func TestStoreDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := SpecHash("persist")
	val := []byte(`{"result":42}`)
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	// Sharded layout: sha256:ab... -> dir/ab/....json
	hex := strings.TrimPrefix(key, KeyPrefix)
	if _, err := os.Stat(filepath.Join(dir, hex[:2], hex[2:]+".json")); err != nil {
		t.Fatalf("sharded spool file missing: %v", err)
	}

	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	got, ok := s2.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	// The disk hit should now be resident in memory too.
	if st := s2.Stats(); st.MemEntries != 1 || st.Hits != 1 {
		t.Fatalf("post-promotion stats = %+v", st)
	}
}

func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	truncated := SpecHash("truncated")
	wrongKey := SpecHash("wrong-key")
	for _, k := range []string{truncated, wrongKey} {
		if err := s.Put(k, []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one entry with garbage and cross-wire the other with a
	// valid envelope under the wrong address.
	tp, _ := s.path(truncated)
	if err := os.WriteFile(tp, []byte(`{"key":"sha256:tor`), 0o644); err != nil {
		t.Fatal(err)
	}
	wp, _ := s.path(wrongKey)
	if err := os.WriteFile(wp, []byte(`{"key":"sha256:0000","value":{"x":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{truncated, wrongKey} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("corrupt entry %s served as a hit", k)
		}
	}
	st := s2.Stats()
	if st.BadEntries != 2 || st.Misses != 2 {
		t.Fatalf("stats after corruption = %+v", st)
	}
	// The bad files are gone: a future Put can land cleanly.
	if _, err := os.Stat(tp); !os.IsNotExist(err) {
		t.Fatalf("corrupt file survived: %v", err)
	}
	if err := s2.Put(truncated, []byte(`{"x":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(truncated); !ok || string(got) != `{"x":2}` {
		t.Fatalf("re-put after corruption = %q, %v", got, ok)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := SpecHash(i % 10)
				if i%2 == 0 {
					_ = s.Put(key, []byte(fmt.Sprintf(`{"i":%d}`, i%10)))
				} else {
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Puts == 0 || st.Lookups() == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStorePutKeepsCompactJSON pins what Put stores: the compact form of
// a JSON value in the memory tier too, and nothing at all for a value
// that is not JSON, which must not count as a disk fault either.
func TestStorePutKeepsCompactJSON(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key := SpecHash("compact")
	if err := s.Put(key, []byte(`{"a": [1, 2]}`)); err != nil {
		t.Fatal(err)
	}
	if got, tier := s.GetTier(key); tier != TierMemory || string(got) != `{"a":[1,2]}` {
		t.Fatalf("GetTier = %q from %v, want the compact value from memory", got, tier)
	}
	bad := SpecHash("bad")
	if err := s.Put(bad, []byte(`{"a": `)); err == nil {
		t.Fatal("Put accepted a value that is not JSON")
	}
	if _, ok := s.Get(bad); ok {
		t.Fatal("a rejected value was stored")
	}
	if st := s.Stats(); st.Puts != 1 || st.DiskEntries != 1 || st.DiskFaults != 0 {
		t.Fatalf("stats after a rejected Put = %+v, want 1 put, 1 disk entry, no disk fault", st)
	}
}

func TestStoreMemoryOnlyNeverTouchesDisk(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SpecHash("m"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("memory-only store reported disk usage: %+v", st)
	}
}
