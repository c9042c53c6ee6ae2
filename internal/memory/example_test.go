package memory_test

import (
	"fmt"

	"rlsched/internal/grouping"
	"rlsched/internal/memory"
)

// Example shows the shared learning memory: recording experiences from
// two agents and recalling the action with the best similarity-weighted
// l_val (the §IV.C fallback). Both experiences were recorded in the state
// queried, so the similarity is 1 and the higher l_val wins.
func Example() {
	shared := memory.NewShared()

	shared.Record(memory.Experience{
		AgentID: 0,
		Action:  memory.Action{Opnum: 2, Mode: grouping.ModeMixed},
		Reward:  1, Error: 1.0, // l_val = 1
	})
	shared.Record(memory.Experience{
		AgentID: 1,
		Action:  memory.Action{Opnum: 5, Mode: grouping.ModeMixed},
		Reward:  4, Error: 0.8, // l_val = 5 — the best experience
	})

	best, ok := shared.BestFor(memory.State{})
	fmt.Printf("best action from any agent: opnum=%d (found=%v)\n", best.Action.Opnum, ok)
	// Output:
	// best action from any agent: opnum=5 (found=true)
}
