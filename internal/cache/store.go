package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"

	"rlsched/internal/chaos"
)

// DefaultMemEntries bounds the in-memory LRU when the caller passes 0:
// enough to keep a whole figure campaign hot without letting a sweep of
// large results balloon the daemon.
const DefaultMemEntries = 256

// DefaultDegradeAfter is how many consecutive disk I/O failures the
// spool tolerates before the store degrades to memory-only operation.
const DefaultDegradeAfter = 4

// Stats is a counter snapshot of a Store. Hits and Misses cover Get
// calls (a disk hit counts as a hit); BadEntries counts corrupted spool
// files detected and discarded.
type Stats struct {
	Hits, Misses, Puts uint64
	BadEntries         uint64
	// DiskFaults counts I/O errors (not corruption) touching the spool;
	// Degraded reports whether the store has given up on the spool and
	// now runs memory-only.
	DiskFaults uint64
	Degraded   bool
	// MemEntries is the current LRU population; DiskEntries/DiskBytes
	// size the on-disk spool (zero for a memory-only store).
	MemEntries  int
	DiskEntries int64
	DiskBytes   int64
}

// Lookups is the total Get count.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate is Hits over Lookups, 0 before the first lookup.
func (s Stats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// envelope is the on-disk entry format. Carrying the key inside the file
// makes cross-wiring (a file renamed by an operator) detectable, and the
// value checksum makes silent bit-level corruption detectable: an entry
// whose embedded key or checksum does not match is discarded as bad.
type envelope struct {
	Key   string          `json:"key"`
	Sum   string          `json:"sum"`
	Value json.RawMessage `json:"value"`
}

func valueSum(val []byte) string {
	h := sha256.Sum256(val)
	return hex.EncodeToString(h[:])
}

// entry is one LRU slot.
type entry struct {
	key string
	val []byte
}

// Options configures OpenStore beyond the dir/size pair Open covers.
type Options struct {
	// Dir is the spool directory; "" keeps the store memory-only.
	Dir string
	// MaxMem bounds the LRU; <= 0 selects DefaultMemEntries.
	MaxMem int
	// FS is the filesystem under the spool; nil selects the real OS
	// filesystem. Tests and the chaos harness substitute a chaos.FaultFS.
	FS chaos.FS
	// Logger receives the degradation warning; nil discards it.
	Logger *slog.Logger
	// DegradeAfter is how many consecutive disk faults flip the store to
	// memory-only; 0 selects DefaultDegradeAfter, negative disables
	// degradation (every fault is retried forever).
	DegradeAfter int
}

// Store is a content-addressed byte store: a bounded in-memory LRU in
// front of an optional fsynced on-disk spool sharded by hash prefix.
// Safe for concurrent use. Values handed out by Get are shared — callers
// must treat them as read-only.
type Store struct {
	dir          string // "" = memory-only
	maxMem       int
	fsys         chaos.FS
	log          *slog.Logger
	degradeAfter int

	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *entry
	idx map[string]*list.Element

	hits, misses, puts, bad uint64
	diskEntries, diskBytes  int64
	diskFaults              uint64
	consecFaults            int
	degraded                bool
}

// Open creates a store. dir "" keeps it memory-only; otherwise the spool
// directory is created if needed and scanned (names and sizes only — no
// entry is parsed until requested) so Stats reflects what is already on
// disk. maxMem <= 0 selects DefaultMemEntries.
func Open(dir string, maxMem int) (*Store, error) {
	return OpenStore(Options{Dir: dir, MaxMem: maxMem})
}

// OpenStore creates a store from Options; see Open for the common path.
func OpenStore(o Options) (*Store, error) {
	if o.MaxMem <= 0 {
		o.MaxMem = DefaultMemEntries
	}
	if o.FS == nil {
		o.FS = chaos.OS()
	}
	if o.DegradeAfter == 0 {
		o.DegradeAfter = DefaultDegradeAfter
	}
	s := &Store{
		dir:          o.Dir,
		maxMem:       o.MaxMem,
		fsys:         o.FS,
		log:          o.Logger,
		degradeAfter: o.DegradeAfter,
		lru:          list.New(),
		idx:          make(map[string]*list.Element),
	}
	if s.dir == "" {
		return s, nil
	}
	if err := s.fsys.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating spool: %w", err)
	}
	shards, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: scanning spool: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		ents, err := s.fsys.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			return nil, fmt.Errorf("cache: scanning spool: %w", err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			if info, err := e.Info(); err == nil {
				s.diskEntries++
				s.diskBytes += info.Size()
			}
		}
	}
	return s, nil
}

// path shards an entry by hash prefix: sha256:abcdef... lands in
// <dir>/ab/cdef....json, keeping any single directory small even with
// millions of entries.
func (s *Store) path(key string) (string, bool) {
	hex, ok := strings.CutPrefix(key, KeyPrefix)
	if !ok || len(hex) < 3 {
		return "", false
	}
	return filepath.Join(s.dir, hex[:2], hex[2:]+".json"), true
}

// diskFaultLocked accounts one spool I/O failure and flips the store to
// memory-only once the consecutive-failure budget is spent. Callers
// hold s.mu.
func (s *Store) diskFaultLocked(op string, err error) {
	s.diskFaults++
	s.consecFaults++
	if s.degraded || s.degradeAfter < 0 || s.consecFaults < s.degradeAfter {
		return
	}
	s.degraded = true
	if s.log != nil {
		s.log.Warn("cache: disk spool degraded to memory-only",
			"dir", s.dir, "op", op, "consecutive_faults", s.consecFaults, "err", err)
	}
}

// diskOKLocked resets the consecutive-failure budget after a successful
// spool operation. Callers hold s.mu.
func (s *Store) diskOKLocked() { s.consecFaults = 0 }

// Tier identifies which layer of the store served a lookup. The
// dispatcher attaches it to cache.lookup spans so a campaign waterfall
// distinguishes a microsecond memory hit from a disk read from a miss
// that cost a full re-simulation.
type Tier string

// Lookup tiers, from fastest to "not here".
const (
	TierMemory Tier = "memory"
	TierDisk   Tier = "disk"
	TierMiss   Tier = "miss"
)

// Get returns the value stored under key. A memory miss falls through to
// the disk spool; a spool entry that fails to parse, carries the wrong
// embedded key, or fails its value checksum is deleted and reported as a
// miss — corruption can cost a re-run, never a wrong answer.
func (s *Store) Get(key string) ([]byte, bool) {
	val, tier := s.GetTier(key)
	return val, tier != TierMiss
}

// GetTier is Get, additionally reporting which tier served the value.
func (s *Store) GetTier(key string) ([]byte, Tier) {
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		val := el.Value.(*entry).val
		s.mu.Unlock()
		return val, TierMemory
	}
	if s.dir == "" || s.degraded {
		s.misses++
		s.mu.Unlock()
		return nil, TierMiss
	}
	s.mu.Unlock()

	// Disk read outside the lock: a slow volume must not serialise the
	// hot in-memory path.
	path, ok := s.path(key)
	if !ok {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, TierMiss
	}
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.misses++
		if !errors.Is(err, fs.ErrNotExist) {
			s.diskFaultLocked("read", err)
		}
		s.mu.Unlock()
		return nil, TierMiss
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key || env.Sum != valueSum(env.Value) || !canonicalEntry(data, env) {
		// Corrupted or cross-wired entry: drop it so it cannot shadow a
		// future Put, and miss.
		_ = s.fsys.Remove(path)
		s.mu.Lock()
		s.bad++
		s.misses++
		s.diskEntries--
		s.diskBytes -= int64(len(data))
		s.mu.Unlock()
		return nil, TierMiss
	}
	s.mu.Lock()
	s.hits++
	s.diskOKLocked()
	s.insertLocked(key, env.Value)
	s.mu.Unlock()
	return env.Value, TierDisk
}

// insertLocked adds (or refreshes) a memory entry and evicts past the
// LRU bound. Callers hold s.mu.
func (s *Store) insertLocked(key string, val []byte) {
	if el, ok := s.idx[key]; ok {
		el.Value.(*entry).val = val
		s.lru.MoveToFront(el)
		return
	}
	s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
	for s.lru.Len() > s.maxMem {
		last := s.lru.Back()
		delete(s.idx, last.Value.(*entry).key)
		s.lru.Remove(last)
	}
}

// Put stores val under key: into the LRU always, and — when the store
// has a spool — onto disk via write-temp, fsync, rename, so a crash
// leaves either the complete entry or no entry, never a torn one. A
// degraded store (see Options.DegradeAfter) keeps the memory copy and
// skips the disk without error: losing persistence costs recomputation
// after a restart, never the current campaign.
//
// val must be JSON; Put rejects anything else and stores nothing. Both
// tiers keep its compact form, which is what the envelope encoding
// writes and the checksum covers, so a value reads back from disk with
// the same bytes as from memory.
func (s *Store) Put(key string, val []byte) error {
	var compact bytes.Buffer
	compact.Grow(len(val))
	if err := json.Compact(&compact, val); err != nil {
		return fmt.Errorf("cache: value for %s is not JSON: %w", key, err)
	}
	val = compact.Bytes()
	s.mu.Lock()
	s.puts++
	s.insertLocked(key, val)
	degraded := s.degraded
	s.mu.Unlock()
	if s.dir == "" || degraded {
		return nil
	}
	err := s.spool(key, val)
	s.mu.Lock()
	if err != nil {
		s.diskFaultLocked("write", err)
	} else {
		s.diskOKLocked()
	}
	s.mu.Unlock()
	return err
}

// encodeEntry is the on-disk form of an entry: its envelope's JSON and a
// trailing newline.
func encodeEntry(env envelope) ([]byte, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// canonicalEntry reports whether data is byte for byte the encoding of
// its decoded envelope. encoding/json matches field names without regard
// to case, so a flipped bit that only changes a letter's case in "key",
// "sum" or "value" still decodes to a valid envelope; only this check
// tells such an entry from what spool wrote. The value is compared as
// the raw bytes it decoded from, not re-encoded: spool wrote it compact
// and the checksum already covers it, and re-encoding would scan every
// value a second time on each disk hit.
func canonicalEntry(data []byte, env envelope) bool {
	head, err := encodeEntry(envelope{Key: env.Key, Sum: env.Sum})
	if err != nil {
		return false
	}
	head = head[:len(head)-len("null}\n")] // {"key":…,"sum":…,"value":
	tail := "}\n"
	return len(data) == len(head)+len(env.Value)+len(tail) &&
		bytes.HasPrefix(data, head) &&
		bytes.Equal(data[len(head):len(data)-len(tail)], env.Value) &&
		bytes.HasSuffix(data, []byte(tail))
}

// spool performs the on-disk half of Put.
func (s *Store) spool(key string, val []byte) error {
	path, ok := s.path(key)
	if !ok {
		return fmt.Errorf("cache: malformed key %q", key)
	}
	data, err := encodeEntry(envelope{Key: key, Sum: valueSum(val), Value: val})
	if err != nil {
		return fmt.Errorf("cache: encoding entry: %w", err)
	}
	shard := filepath.Dir(path)
	if err := s.fsys.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("cache: creating shard: %w", err)
	}
	var prev int64 = -1
	if info, err := s.fsys.Stat(path); err == nil {
		prev = info.Size()
	}
	tmp, err := s.fsys.CreateTemp(shard, ".put-*")
	if err != nil {
		return fmt.Errorf("cache: creating temp entry: %w", err)
	}
	defer s.fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: writing entry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cache: syncing entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache: closing entry: %w", err)
	}
	if err := s.fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: installing entry: %w", err)
	}
	s.mu.Lock()
	if prev >= 0 {
		s.diskBytes += int64(len(data)) - prev
	} else {
		s.diskEntries++
		s.diskBytes += int64(len(data))
	}
	s.mu.Unlock()
	return nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		BadEntries:  s.bad,
		DiskFaults:  s.diskFaults,
		Degraded:    s.degraded,
		MemEntries:  s.lru.Len(),
		DiskEntries: s.diskEntries,
		DiskBytes:   s.diskBytes,
	}
}
