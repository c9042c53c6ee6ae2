package config

import (
	"path/filepath"
	"strings"
	"testing"

	"rlsched/internal/experiments"
)

func TestRoundTrip(t *testing.T) {
	f := Default()
	f.Profile.SizeScale = 3.21
	f.Profile.Replications = 7
	f.Profile.Platform.Sites = 9
	data, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Profile.SizeScale != 3.21 || got.Profile.Replications != 7 || got.Profile.Platform.Sites != 9 {
		t.Fatalf("round trip lost fields: %+v", got.Profile)
	}
}

func TestUnmarshalDefaultsForOmittedFields(t *testing.T) {
	got, err := Unmarshal([]byte(`{"profile": {"SizeScale": 2.5}}`))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	def := experiments.DefaultProfile()
	if got.Profile.SizeScale != 2.5 {
		t.Fatalf("override lost: %g", got.Profile.SizeScale)
	}
	if got.Profile.ObservationPeriod != def.ObservationPeriod {
		t.Fatalf("default not preserved: %g", got.Profile.ObservationPeriod)
	}
	if got.Profile.Platform.Sites != def.Platform.Sites {
		t.Fatal("nested defaults not preserved")
	}
}

func TestUnmarshalRejectsUnknownFields(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"profile": {"SizeScle": 2.5}}`)); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestUnmarshalRejectsInvalidProfile(t *testing.T) {
	if _, err := Unmarshal([]byte(`{"profile": {"SizeScale": -1}}`)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte(`{not json`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestMarshalRejectsInvalidProfile(t *testing.T) {
	f := Default()
	f.Profile.Replications = 0
	if _, err := Marshal(f); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	f := Default()
	f.Description = "test campaign"
	f.Profile.Seed = 99
	if err := Save(path, f); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Description != "test campaign" || got.Profile.Seed != 99 {
		t.Fatalf("Load round trip: %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestMarshalIsHumanReadable(t *testing.T) {
	data, err := Marshal(Default())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "\n  ") {
		t.Fatal("output not indented")
	}
	if !strings.HasSuffix(s, "\n") {
		t.Fatal("output not newline-terminated")
	}
	// The tracer must never leak into the schema.
	if strings.Contains(s, "Tracer") {
		t.Fatal("runtime-only Tracer field serialised")
	}
}

func TestCacheSpecValidate(t *testing.T) {
	if err := (CacheSpec{}).Validate(); err != nil {
		t.Errorf("zero CacheSpec invalid: %v", err)
	}
	if err := (CacheSpec{Dir: "/tmp/c", MaxEntries: 64}).Validate(); err != nil {
		t.Errorf("populated CacheSpec invalid: %v", err)
	}
	if err := (CacheSpec{MaxEntries: -1}).Validate(); err == nil {
		t.Error("negative max_entries validated, want error")
	}
}

func TestClusterSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ClusterSpec
		ok   bool
	}{
		{"zero", ClusterSpec{}, true},
		{"worker", ClusterSpec{Worker: true}, true},
		{"coordinator", ClusterSpec{Peers: []string{"http://127.0.0.1:7077", "https://w2:7077"}}, true},
		{"both roles", ClusterSpec{Worker: true, Peers: []string{"http://w:7077"}}, false},
		{"bad scheme", ClusterSpec{Peers: []string{"ftp://w:7077"}}, false},
		{"no host", ClusterSpec{Peers: []string{"http://"}}, false},
		{"garbage", ClusterSpec{Peers: []string{"not a url"}}, false},
		{"duplicate", ClusterSpec{Peers: []string{"http://w:7077", "http://w:7077/"}}, false},
		{"negative heartbeat", ClusterSpec{HeartbeatSec: -1}, false},
		{"negative dead-after", ClusterSpec{DeadAfterSec: -0.5}, false},
		{"negative probe timeout", ClusterSpec{ProbeTimeoutSec: -1}, false},
		{"negative breaker threshold", ClusterSpec{BreakerThreshold: -1}, false},
		{"negative breaker cooldown", ClusterSpec{BreakerCooldownSec: -1}, false},
		{"probe timeout under default heartbeat", ClusterSpec{ProbeTimeoutSec: 2}, true},
		{"probe timeout at default heartbeat", ClusterSpec{ProbeTimeoutSec: 5}, false},
		{"probe timeout under explicit heartbeat", ClusterSpec{HeartbeatSec: 0.5, ProbeTimeoutSec: 0.2}, true},
		{"probe timeout over explicit heartbeat", ClusterSpec{HeartbeatSec: 0.5, ProbeTimeoutSec: 1}, false},
		{"dead-after under heartbeat", ClusterSpec{HeartbeatSec: 2, DeadAfterSec: 1}, false},
		{"dead-after over heartbeat", ClusterSpec{HeartbeatSec: 2, DeadAfterSec: 10}, true},
		{"negative hedge disables", ClusterSpec{HedgeAfterSec: -1}, true},
		{"breaker knobs", ClusterSpec{BreakerThreshold: 5, BreakerCooldownSec: 30}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
