package trace

import "testing"

func TestCappedKeepsOldestAndCountsDrops(t *testing.T) {
	c := NewCapped[int](2)
	if !c.Append(1) || !c.Append(2) {
		t.Fatalf("first two appends should be kept")
	}
	if c.Append(3) {
		t.Fatalf("append beyond capacity should be rejected")
	}
	if got := c.Snapshot(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("snapshot = %v, want [1 2]", got)
	}
	if c.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", c.Dropped())
	}
	c.NoteDrops(4)
	if c.Dropped() != 5 {
		t.Fatalf("dropped after NoteDrops = %d, want 5", c.Dropped())
	}
	// Snapshot must be a copy, not an alias.
	snap := c.Snapshot()
	snap[0] = 99
	if c.Snapshot()[0] != 1 {
		t.Fatalf("snapshot aliases internal buffer")
	}
}

func TestCappedPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewCapped(0) should panic")
		}
	}()
	NewCapped[int](0)
}
