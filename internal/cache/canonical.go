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
	"errors"
	"fmt"
	"slices"
)

// EngineVersion names the simulation engine's deterministic-output
// contract and is folded into every cache key. Bump it whenever an
// engine change alters any result bit-for-bit — old entries then simply
// stop matching, which is the deliberate cache-flush mechanism. Never
// reuse a retired value.
const EngineVersion = "rlsched-v1"

// KeyPrefix starts every cache key; the rest is lowercase hex SHA-256.
const KeyPrefix = "sha256:"

// CanonicalJSON encodes v as canonical JSON: json.Marshal's encoding
// with every object's members sorted by name and no insignificant
// whitespace. Number literals are kept as Marshal wrote them (a uint64
// seed survives untouched — no float64 round trip), and strings are
// escaped as Marshal escapes them. Two values whose json.Marshal outputs
// are equal always canonicalise identically, so the encoding is stable
// across processes and Go versions.
//
// The result is exactly what decoding Marshal's output into interface{}
// values (numbers as json.Number) and marshalling that tree again
// produces, without building the tree: one pass over Marshal's bytes
// sorts each object's members by decoded name (the last of repeated
// names wins, as in a decoded map) and copies every other token
// verbatim. A string of printable ASCII without a backslash or an
// HTML-escaped character is its own second encoding and is copied too;
// any other string is decoded and encoded again, because a second
// Marshal does not always repeat the first (an invalid UTF-8 byte is
// written \ufffd, the U+FFFD it decodes to as the literal rune).
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding value: %w", err)
	}
	c := canonicaliser{src: raw, members: make([]member, 0, 16)}
	out, err := c.value(make([]byte, 0, len(raw)), 0)
	if err != nil {
		return nil, fmt.Errorf("cache: canonicalising value: %w", err)
	}
	return out, nil
}

// maxDepth is encoding/json's nesting limit: a deeper value fails to
// decode, so it cannot be canonicalised either.
const maxDepth = 10000

var errDepth = errors.New("exceeded max depth")

// canonicaliser is one CanonicalJSON pass over src, a single JSON value
// as json.Marshal writes it: without whitespace between tokens.
type canonicaliser struct {
	src     []byte
	pos     int
	members []member // the members of every object still open, innermost last
	scratch []byte   // an object's output while its members are reordered
}

// member is one "name":value pair of an object, as written to the output.
type member struct {
	name       []byte // decoded
	start, end int    // its bytes in the output
}

// value appends the canonical form of the value at c.pos to dst.
func (c *canonicaliser) value(dst []byte, depth int) ([]byte, error) {
	if c.pos >= len(c.src) {
		return nil, errors.New("unexpected end of JSON")
	}
	switch c.src[c.pos] {
	case '{':
		return c.object(dst, depth+1)
	case '[':
		return c.array(dst, depth+1)
	case '"':
		dst, _, err := c.str(dst)
		return dst, err
	}
	// A number, true, false or null runs to the next delimiter.
	start := c.pos
	for c.pos < len(c.src) && !isDelim(c.src[c.pos]) {
		c.pos++
	}
	if c.pos == start {
		return nil, fmt.Errorf("unexpected %q", c.src[c.pos])
	}
	return append(dst, c.src[start:c.pos]...), nil
}

func (c *canonicaliser) object(dst []byte, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errDepth
	}
	c.pos++ // '{'
	start := len(dst)
	dst = append(dst, '{')
	base := len(c.members)
	for c.peek() != '}' {
		m := member{start: len(dst)}
		var err error
		if dst, m.name, err = c.str(dst); err != nil {
			return nil, err
		}
		if c.peek() != ':' {
			return nil, errors.New("missing ':' after object member name")
		}
		c.pos++
		if dst, err = c.value(append(dst, ':'), depth); err != nil {
			return nil, err
		}
		m.end = len(dst)
		c.members = append(c.members, m)
		if c.peek() == ',' {
			c.pos++
			dst = append(dst, ',')
		}
	}
	c.pos++ // '}'
	ms := c.members[base:]
	if !strictlySorted(ms) {
		slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.name, b.name) })
		c.scratch = append(c.scratch[:0], dst[start:]...)
		dst = dst[:start+1]
		for k, m := range ms {
			if k+1 < len(ms) && bytes.Equal(m.name, ms[k+1].name) {
				continue // a later member of the same name replaces it
			}
			if len(dst) > start+1 {
				dst = append(dst, ',')
			}
			dst = append(dst, c.scratch[m.start-start:m.end-start]...)
		}
	}
	c.members = c.members[:base]
	return append(dst, '}'), nil
}

func (c *canonicaliser) array(dst []byte, depth int) ([]byte, error) {
	if depth > maxDepth {
		return nil, errDepth
	}
	c.pos++ // '['
	dst = append(dst, '[')
	for c.peek() != ']' {
		var err error
		if dst, err = c.value(dst, depth); err != nil {
			return nil, err
		}
		if c.peek() == ',' {
			c.pos++
			dst = append(dst, ',')
		}
	}
	c.pos++ // ']'
	return append(dst, ']'), nil
}

// str appends the string token at c.pos as Marshal encodes its decoded
// text, and returns that text. A token of printable ASCII without a
// backslash or an HTML-escaped character is its own encoding.
func (c *canonicaliser) str(dst []byte) ([]byte, []byte, error) {
	if c.peek() != '"' {
		return nil, nil, errors.New("expected a string")
	}
	start, plain := c.pos, true
	for c.pos++; c.pos < len(c.src) && c.src[c.pos] != '"'; c.pos++ {
		switch b := c.src[c.pos]; {
		case b == '\\':
			plain = false
			c.pos++ // the escaped byte cannot end the token
		case b < 0x20 || b >= 0x80 || b == '<' || b == '>' || b == '&':
			plain = false
		}
	}
	if c.pos >= len(c.src) {
		return nil, nil, errors.New("unterminated string")
	}
	c.pos++
	tok := c.src[start:c.pos]
	if plain {
		return append(dst, tok...), tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, nil, err
	}
	enc, err := json.Marshal(s)
	if err != nil {
		return nil, nil, err
	}
	return append(dst, enc...), []byte(s), nil
}

// peek returns the byte at c.pos, or 0 past the end.
func (c *canonicaliser) peek() byte {
	if c.pos < len(c.src) {
		return c.src[c.pos]
	}
	return 0
}

// isDelim reports whether b ends a number or literal token.
func isDelim(b byte) bool {
	return b == ',' || b == '}' || b == ']'
}

// strictlySorted reports whether ms is in increasing name order with no
// name repeated, the order its object is output in.
func strictlySorted(ms []member) bool {
	for k := 1; k < len(ms); k++ {
		if bytes.Compare(ms[k-1].name, ms[k].name) >= 0 {
			return false
		}
	}
	return true
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
	var key [len(KeyPrefix) + 2*sha256.Size]byte
	copy(key[:], KeyPrefix)
	hex.Encode(key[len(KeyPrefix):], h.Sum(sum[:0]))
	return string(key[:]), nil
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
