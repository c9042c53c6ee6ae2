package report

import (
	"strings"
	"testing"

	"rlsched/internal/audit"
	"rlsched/internal/memory"
)

// TestStateHeatmapDeterministic pins that the visitation heatmap renders
// its cells in grid order: decisions spread over many cells must give
// the same bytes on every render, with the lowest row first.
func TestStateHeatmapDeterministic(t *testing.T) {
	run := audit.RunLog{Label: "adaptive-rl n=40 cv=0 seed=1"}
	for i := 0; i < 40; i++ {
		run.Decisions = append(run.Decisions, audit.Decision{
			Seq:   uint64(i),
			Kind:  audit.KindExploit,
			State: memory.State{Load: float64(i%7) * 10, SiteLoad: float64(i%5) * 20},
		})
	}
	render := func() string {
		h := NewHTMLReport("policy")
		h.AddStateHeatmap(run)
		var b strings.Builder
		if err := h.Render(&b); err != nil {
			t.Fatalf("Render: %v", err)
		}
		return b.String()
	}
	first := render()
	if n := strings.Count(first, `class="hm-cell"`); n != 35 {
		t.Fatalf("heatmap has %d cells, want 35", n)
	}
	for i := 0; i < 20; i++ {
		if render() != first {
			t.Fatalf("render %d differs from the first", i)
		}
	}
	// Row 0 (lowest SiteLoad) renders at the bottom of the grid and comes
	// first; its leftmost cell is column 0.
	cell := first[strings.Index(first, `<rect class="hm-cell"`):]
	if want := `x="56" y="`; !strings.HasPrefix(cell[len(`<rect class="hm-cell" `):], want) {
		t.Fatalf("first cell %.60q is not column 0", cell)
	}
}
