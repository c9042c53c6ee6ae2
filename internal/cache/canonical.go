// Package cache is a content-addressed result store for deterministic
// simulation points. Every rlsim run derives all of its randomness from
// its RunSpec and profile alone, so a point's result is a pure function
// of (engine version, profile, spec): hashing a canonical encoding of
// those three yields a stable address under which the result can be
// stored once and served forever. The store layers a bounded in-memory
// LRU over an fsynced on-disk spool sharded by hash prefix; a corrupted
// or tampered entry is detected on load and treated as a miss, so the
// worst case is always a deterministic re-run, never a wrong answer.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EngineVersion names the simulation engine's deterministic-output
// contract and is folded into every cache key. Bump it whenever an
// engine change alters any result bit-for-bit — old entries then simply
// stop matching, which is the deliberate cache-flush mechanism. Never
// reuse a retired value.
const EngineVersion = "rlsched-v1"

// KeyPrefix starts every cache key; the rest is lowercase hex SHA-256.
const KeyPrefix = "sha256:"

// CanonicalJSON encodes v as canonical JSON: object keys sorted, no
// insignificant whitespace, numbers kept as their literal decimal text
// (a uint64 seed survives untouched — no float64 round-trip). Two values
// whose json.Marshal outputs are equal always canonicalise identically,
// so the encoding is stable across processes and Go versions.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding value: %w", err)
	}
	// Round-trip through interface{} maps: json.Marshal sorts map keys,
	// and UseNumber preserves numeric literals exactly.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("cache: canonicalising value: %w", err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("cache: canonicalising value: %w", err)
	}
	return out, nil
}

// Keyer addresses the points of one campaign. The hashed document is
// {"engine":…,"profile":…,"spec":…}; a Keyer holds its canonical JSON up
// to the spec, built once from the campaign's profile, so keying a point
// canonicalises only that point's spec. Object members nest as their own
// canonical text and the three names are already in sorted order, so the
// bytes hashed are exactly the canonical JSON of the whole document. A
// Keyer is immutable and safe for concurrent use.
type Keyer struct {
	head []byte // {"engine":<version>,["profile":<canonical profile>,]"spec":
}

// NewKeyer canonicalises profile once and returns the keyer for a
// campaign under it. A nil profile leaves the "profile" member out, as
// SpecHash's document does.
func NewKeyer(profile any) (Keyer, error) {
	engine, _ := json.Marshal(EngineVersion) // a string always encodes
	head := append([]byte(`{"engine":`), engine...)
	if profile != nil {
		canon, err := CanonicalJSON(profile)
		if err != nil {
			return Keyer{}, err
		}
		head = append(append(head, `,"profile":`...), canon...)
	}
	return Keyer{head: append(head, `,"spec":`...)}, nil
}

// Key returns the content address of spec under the keyer's profile:
// "sha256:" plus 64 lowercase hex digits of SHA-256 over the canonical
// document.
func (k Keyer) Key(spec any) (string, error) {
	canon, err := CanonicalJSON(spec)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(k.head)
	h.Write(canon)
	h.Write([]byte{'}'})
	var sum [sha256.Size]byte
	return KeyPrefix + hex.EncodeToString(h.Sum(sum[:0])), nil
}

// SpecHash returns the canonical content address of one simulation point
// spec under the current EngineVersion: "sha256:" plus 64 lowercase hex
// digits of SHA-256 over the canonical JSON of
// {"engine": EngineVersion, "spec": <canonical spec>}. The format is
// frozen by a golden-value test; any change to it — or to what a spec
// means — must come with a deliberate EngineVersion bump.
//
// spec must be JSON-marshallable (experiments.RunSpec always is); an
// unmarshallable value yields the empty string.
func SpecHash(spec any) string {
	key, err := PointKey(nil, spec)
	if err != nil {
		return ""
	}
	return key
}

// PointKey returns the full content address of one simulation point:
// SHA-256 over the canonical JSON of
// {"engine": EngineVersion, "profile": <canonical profile>, "spec":
// <canonical spec>}. The profile half must contain exactly the fields
// the point's result depends on — the caller scrubs campaign-shape
// knobs (replication counts, worker counts, progress hooks) so that
// re-running the same point under a differently parallelised campaign
// still hits. A caller keying many points under one profile builds a
// NewKeyer once instead.
func PointKey(profile, spec any) (string, error) {
	k, err := NewKeyer(profile)
	if err != nil {
		return "", err
	}
	return k.Key(spec)
}
