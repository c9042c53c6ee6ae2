package core

import (
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreserveLearning = true
	policy := MustNew(cfg)
	res := runWith(t, policy, 400, 61)
	if res.Completed != 400 {
		t.Fatal("training run incomplete")
	}

	var sb strings.Builder
	if err := policy.SaveCheckpoint(&sb); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	restored, err := LoadCheckpoint(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}

	// Same agent count and state.
	if len(restored.agents) != len(policy.agents) {
		t.Fatalf("restored %d agents, want %d", len(restored.agents), len(policy.agents))
	}
	for id, st := range policy.agents {
		rst, ok := restored.agents[id]
		if !ok {
			t.Fatalf("agent %d missing after restore", id)
		}
		if rst.lastAction != st.lastAction || rst.ownExperience != st.ownExperience {
			t.Fatalf("agent %d state differs after restore", id)
		}
		if (st.net == nil) != (rst.net == nil) {
			t.Fatalf("agent %d network presence differs", id)
		}
		if st.net != nil {
			x := []float64{0.2, 0.3, 0.7, 0.1, 0.5, 1}
			if st.net.Predict1(x) != rst.net.Predict1(x) {
				t.Fatalf("agent %d network predicts differently after restore", id)
			}
		}
	}
	// Shared memory carried over.
	if restored.ownShared.Occupancy() != policy.ownShared.Occupancy() {
		t.Fatalf("restored memory %d entries, want %d", restored.ownShared.Occupancy(), policy.ownShared.Occupancy())
	}

	// The restored policy schedules another run identically to the saved
	// one continuing.
	resA := runWith(t, policy, 300, 62)
	resB := runWith(t, restored, 300, 62)
	if resA.Completed != 300 || resB.Completed != 300 {
		t.Fatal("post-restore runs incomplete")
	}
}

func TestCheckpointWithoutRunErrors(t *testing.T) {
	policy := NewDefault()
	var sb strings.Builder
	if err := policy.SaveCheckpoint(&sb); err == nil {
		t.Fatal("expected error saving an unused policy")
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := LoadCheckpoint(strings.NewReader(`{"version": 99, "config": {}, "agents": {}}`)); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := LoadCheckpoint(strings.NewReader(`{"version": 1, "config": {}, "agents": {}, "bogus": 1}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestLoadCheckpointForcesPreserveLearning(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PreserveLearning = false // saved without persistence...
	policy := MustNew(cfg)
	runWith(t, policy, 200, 63)
	var sb strings.Builder
	if err := policy.SaveCheckpoint(&sb); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCheckpoint(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.cfg.PreserveLearning {
		t.Fatal("restored policy must preserve learning")
	}
	// ...and still runs.
	if res := runWith(t, restored, 200, 64); res.Completed != 200 {
		t.Fatal("restored policy failed to run")
	}
}
