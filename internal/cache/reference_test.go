package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"rlsched/internal/experiments"
)

// The encoders and decoder below are the whole-document forms the fast
// paths replace: canonical JSON is Marshal's output decoded into an
// interface{} tree and marshalled again, a key canonicalises its entire
// {engine, profile, spec} envelope in one call, and a disk entry is
// decoded with json.Unmarshal and then checked for its key, its checksum
// and its byte-for-byte canonical layout. The tests hold CanonicalJSON,
// Keyer and entryValue to them exactly.

// refCanonicalJSON canonicalises v through an interface{} tree:
// json.Marshal sorts map keys, and UseNumber preserves numeric literals
// exactly.
func refCanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding value: %w", err)
	}
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

// refKeyEnvelope is the hashed document as one value. Field names are
// part of the frozen hash format.
type refKeyEnvelope struct {
	Engine  string `json:"engine"`
	Profile any    `json:"profile,omitempty"`
	Spec    any    `json:"spec"`
}

// refPointKey hashes the canonical JSON of the whole envelope.
func refPointKey(profile, spec any) (string, error) {
	canon, err := refCanonicalJSON(refKeyEnvelope{Engine: EngineVersion, Profile: profile, Spec: spec})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return KeyPrefix + hex.EncodeToString(sum[:]), nil
}

// canonicalEntry reports whether data is byte for byte the encoding of
// its decoded envelope. encoding/json matches field names without regard
// to case, so a flipped bit that only changes a letter's case in "key",
// "sum" or "value" still decodes to a valid envelope; only this check
// tells such an entry from what spool wrote. The value is compared as
// the raw bytes it decoded from.
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

// refEntryValue decodes a spooled entry for key the whole-document way.
func refEntryValue(data []byte, key string) ([]byte, bool) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key ||
		env.Sum != valueSum(env.Value) || !canonicalEntry(data, env) {
		return nil, false
	}
	return env.Value, true
}

// TestKeyerMatchesWholeDocument keys points of every policy, the largest
// seed, both signed zeros of the CV and a positive CV under the default
// profile's fingerprint, a modified one and no profile at all. The
// campaign keyer, PointKey (and SpecHash, for no profile) must all equal
// the hash of the whole canonical envelope.
func TestKeyerMatchesWholeDocument(t *testing.T) {
	def := experiments.DefaultProfile().CacheFingerprint()
	mod := experiments.DefaultProfile()
	mod.ObservationPeriod = 300
	mod.SizeScale *= 2
	mod.Platform.Sites++
	policies := append(append([]experiments.PolicyName(nil), experiments.AllPolicies...),
		experiments.Greedy, experiments.RoundRobin, experiments.Random, experiments.Cooperative)
	var specs []experiments.RunSpec
	for _, pol := range policies {
		for _, seed := range []uint64{0, 1, math.MaxUint64} {
			for _, cv := range []float64{math.Copysign(0, -1), 0, 0.35} {
				specs = append(specs, experiments.RunSpec{Policy: pol, NumTasks: 500, HeterogeneityCV: cv, Seed: seed})
			}
		}
	}
	for _, tc := range []struct {
		name    string
		profile any
	}{
		{"default", def},
		{"modified", mod.CacheFingerprint()},
		{"none", nil},
	} {
		k, err := NewKeyer(tc.profile)
		if err != nil {
			t.Fatalf("%s: NewKeyer: %v", tc.name, err)
		}
		seen := map[string]bool{}
		for _, spec := range specs {
			got, err := k.Key(spec)
			if err != nil {
				t.Fatalf("%s %+v: Key: %v", tc.name, spec, err)
			}
			want, err := refPointKey(tc.profile, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %+v: keyer %s, whole document %s", tc.name, spec, got, want)
			}
			if pk, err := PointKey(tc.profile, spec); err != nil || pk != want {
				t.Fatalf("%s %+v: PointKey %s (%v), whole document %s", tc.name, spec, pk, err, want)
			}
			if tc.profile == nil && SpecHash(spec) != want {
				t.Fatalf("%+v: SpecHash %s, whole document %s", spec, SpecHash(spec), want)
			}
			seen[got] = true
		}
		if len(seen) != len(specs) {
			t.Fatalf("%s: %d distinct keys for %d distinct specs", tc.name, len(seen), len(specs))
		}
	}
	kd, _ := PointKey(def, specs[0])
	km, _ := PointKey(mod.CacheFingerprint(), specs[0])
	if kd == km {
		t.Fatal("the default and the modified profile key a point alike")
	}
}

// spoolLayout wraps val in the entry layout spool writes, with a correct
// checksum, whatever val holds: the fuzzer's way to reach the value
// checks, which a random sum would never pass.
func spoolLayout(key string, val []byte) []byte {
	qkey, _ := json.Marshal(key)
	out := append([]byte(`{"key":`), qkey...)
	out = append(out, `,"sum":"`+valueSum(val)+`","value":`...)
	out = append(out, val...)
	return append(out, "}\n"...)
}

// FuzzEntryValueMatchesDecode holds the one-pass disk reader to the
// whole-document decoder: for arbitrary bytes, for arbitrary bytes
// spooled as a value with a correct checksum under an arbitrary key, and
// for a real entry with one byte mutated, both must make the same accept
// or reject decision and accept the same value bytes.
func FuzzEntryValueMatchesDecode(f *testing.F) {
	key, val, raw, _ := corruptionFixture(f, f.TempDir())
	f.Add(raw, key, uint16(0), byte(0))
	f.Add(val, key, uint16(2), byte(0x20)) // "key" -> "Key"
	f.Add([]byte(` {"a":1}`), key, uint16(80), byte(1))
	f.Add([]byte("{\"a\":1}\t"), key, uint16(len(raw)-1), byte(0x0b))
	f.Add([]byte("\"\xff\xfe\""), "sha256:\xff", uint16(len(raw)-2), byte(0x20))
	f.Add([]byte(`[1,2`), "sha256:<&> ", uint16(9), byte(0x80))
	f.Add([]byte(`18446744073709551615`), "", uint16(12), byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, k string, at uint16, mask byte) {
		mut := append([]byte(nil), raw...)
		mut[int(at)%len(mut)] ^= mask
		for _, in := range []struct {
			data []byte
			key  string
		}{{data, key}, {data, k}, {spoolLayout(k, data), k}, {spoolLayout(key, data), key}, {mut, key}} {
			got, ok := entryValue(in.data, in.key)
			want, wok := refEntryValue(in.data, in.key)
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("entry %q under key %q: one pass gives %q, %v; decoding gives %q, %v",
					in.data, in.key, got, ok, want, wok)
			}
		}
	})
}

// TestCanonicalJSONDepthLimit nests arrays to encoding/json's decoding
// limit and one past it: at the limit both encoders agree, past it both
// fail.
func TestCanonicalJSONDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		var v any = 1
		for i := 0; i < depth; i++ {
			v = []any{v}
		}
		got, gerr := CanonicalJSON(v)
		want, werr := refCanonicalJSON(v)
		if (gerr != nil) != (werr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("depth %d: one pass errs %v, the round trip %v; outputs equal: %v",
				depth, gerr, werr, bytes.Equal(got, want))
		}
		if (gerr != nil) != (depth > maxDepth) {
			t.Fatalf("depth %d: error %v", depth, gerr)
		}
	}
}

// FuzzCanonicalJSONMatchesReference holds the one-pass canonicaliser to
// the interface{} round trip. Fuzzed bytes are canonicalised as a raw
// message (any whitespace, escapes, member order and repeated names),
// decoded into interface{} values with and without UseNumber, and into a
// RunSpec and a Profile when they decode as one; a RunSpec and a map are
// also built from the fuzzed fields directly, so strings with invalid
// UTF-8 and floats like −0 reach Marshal as Go values. Both encoders
// must return the same bytes, or both an error.
func FuzzCanonicalJSONMatchesReference(f *testing.F) {
	add := func(v any, spec experiments.RunSpec) {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, string(spec.Policy), spec.NumTasks, spec.HeterogeneityCV, spec.Seed)
	}
	for _, cv := range []float64{math.Copysign(0, -1), 0, 1e-7, 1e21} {
		spec := experiments.RunSpec{Policy: experiments.AdaptiveRL, NumTasks: 500, HeterogeneityCV: cv, Seed: 1}
		add(spec, spec)
	}
	for _, pol := range []string{"a<b>", "q&a", "line\u2028sep", "\xff\xfeinvalid", "\ufffd", `back\slash"quote`} {
		spec := experiments.RunSpec{Policy: experiments.PolicyName(pol), NumTasks: 1, Seed: math.MaxUint64}
		add(spec, spec)
	}
	fp := experiments.DefaultProfile().CacheFingerprint()
	add(fp, experiments.RunSpec{})
	add(map[string]any{"b": 1, "a": []any{true, nil, "x"}}, experiments.RunSpec{Policy: "b"})
	for _, raw := range []string{` { "b" : 1 , "a" : [ ] , "b" : 2 } `, `{"\u0062":1,"a\/":"\u00e9\ud800"}`,
		`[1E+2,-0,0.10,{}]`, "\"\xff\u2028<\"", strings.Repeat("[", 40) + strings.Repeat("]", 40)} {
		f.Add([]byte(raw), "", 0, 0.0, uint64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, policy string, tasks int, cv float64, seed uint64) {
		spec := experiments.RunSpec{Policy: experiments.PolicyName(policy), NumTasks: tasks, HeterogeneityCV: cv, Seed: seed}
		values := []any{json.RawMessage(data), spec, map[string]string{policy: string(data)}}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var numbers, floats any
		if dec.Decode(&numbers) == nil {
			values = append(values, numbers)
		}
		if json.Unmarshal(data, &floats) == nil {
			values = append(values, floats)
		}
		var decoded experiments.RunSpec
		if json.Unmarshal(data, &decoded) == nil {
			values = append(values, decoded)
		}
		var prof experiments.Profile
		if json.Unmarshal(data, &prof) == nil {
			values = append(values, prof)
		}
		for _, v := range values {
			got, gerr := CanonicalJSON(v)
			want, werr := refCanonicalJSON(v)
			if (gerr != nil) != (werr != nil) || !bytes.Equal(got, want) {
				t.Fatalf("%#v: one pass gives %q (%v); the round trip gives %q (%v)", v, got, gerr, want, werr)
			}
		}
	})
}
