package config

import (
	"reflect"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes to the job decoder the daemon runs
// on every POST /v1/jobs body. Any input must be rejected with an error
// or decode to a spec that is already normal (Normalize is idempotent)
// and survives MarshalJob then UnmarshalJob deeply equal — and nothing
// may panic.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		// README and EXPERIMENTS.md request bodies.
		`{"kind": "figure", "figure": "10", "profile": {"Replications": 3}}`,
		`{"kind": "figure", "figure": "all", "timeout_sec": 3600, "max_retries": 2, "profile": {"Replications": 5}}`,
		`{"kind": "points", "points": [{"Policy": "adaptive-rl", "NumTasks": 3000, "Seed": 1},
			{"Policy": "online-rl", "NumTasks": 3000, "Seed": 1}], "profile": {"ObservationPeriod": 1500}}`,
		`{"kind": "points", "trace": true, "spans": true, "points": [{"Policy": "greedy", "NumTasks": 500, "Seed": 2}]}`,
		`{"kind": "points", "points": [{"Policy": "adaptive-rl", "NumTasks": 3000, "Seed": 1}],
			"series": {"cadence": 50, "max_points": 512, "select": ["power"]}}`,
		`{"kind": "points", "keep_results": true, "points": [{"Policy": "adaptive-rl", "NumTasks": 30, "Seed": 1}],
			"decisions": {"max_decisions": 512, "top_k": 3, "max_points": 256}}`,
		`{"kind": "scale", "scale": {"preset": "large"}}`,
		`{"kind": "figure", "figure": "7", "points": []}`,
		`{"kind": "points", "points": [{"Policy": "greedy", "NumTasks": 5}], "series": {"select": []}}`,
		// A scale job recording every artifact.
		`{"kind": "scale", "trace": true, "series": {}, "decisions": {"top_k": 2},
			"scale": {"preset": "small", "sites": 4, "num_tasks": 300, "policy": "greedy", "seed": 3}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalJob(data)
		if err != nil {
			return // rejected cleanly
		}
		again, err := s.Normalize()
		if err != nil {
			t.Fatalf("Normalize rejects its own output: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", s, again)
		}
		out, err := MarshalJob(s)
		if err != nil {
			t.Fatalf("MarshalJob rejects a decoded spec: %v\n%s", err, data)
		}
		back, err := UnmarshalJob(out)
		if err != nil {
			t.Fatalf("UnmarshalJob rejects MarshalJob's output: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the spec:\nin   %s\nout  %s\nwant %+v\ngot  %+v", data, out, s, back)
		}
	})
}
