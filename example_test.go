package rlsched_test

import (
	"fmt"
	"strings"

	"rlsched"
)

// Example runs the paper's Adaptive-RL scheduler on one deterministic
// scenario and prints the headline metrics.
func Example() {
	profile := rlsched.DefaultProfile()
	res, err := rlsched.Run(profile, rlsched.RunSpec{
		Policy:   rlsched.AdaptiveRL,
		NumTasks: 500,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("completed %d/%d tasks\n", res.Completed, res.Submitted)
	fmt.Printf("all deadlines evaluated: %v\n", res.DeadlineHits <= res.Completed)
	// Output:
	// completed 500/500 tasks
	// all deadlines evaluated: true
}

// ExampleRunWith shows custom policy configuration: an Adaptive-RL
// instance with the shared learning memory ablated.
func ExampleRunWith() {
	cfg := rlsched.DefaultAdaptiveRLConfig()
	cfg.UseSharedMemory = false
	policy, err := rlsched.NewAdaptiveRLPolicy(cfg)
	if err != nil {
		panic(err)
	}
	res, err := rlsched.RunWith(rlsched.DefaultProfile(),
		rlsched.RunSpec{Policy: rlsched.AdaptiveRL, NumTasks: 300, Seed: 7}, policy)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Completed == 300)
	// Output:
	// true
}

// ExampleGeneratePlatform builds the §V.A platform by hand.
func ExampleGeneratePlatform() {
	r := rlsched.NewStream(3, "example")
	cfg := rlsched.DefaultPlatformConfig()
	cfg.Sites = 2
	cfg.MinNodesPerSite, cfg.MaxNodesPerSite = 3, 3
	platform, err := rlsched.GeneratePlatform(cfg, r)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d sites, %d nodes\n", len(platform.Sites), platform.NumNodes())
	// Output:
	// 2 sites, 6 nodes
}

// ExampleGenerateWorkload produces the §III.A task stream and inspects
// one task's deadline band.
func ExampleGenerateWorkload() {
	r := rlsched.NewStream(9, "example")
	cfg := rlsched.DefaultWorkloadConfig()
	cfg.NumTasks = 3
	tasks, err := rlsched.GenerateWorkload(cfg, r)
	if err != nil {
		panic(err)
	}
	t := tasks[0]
	fmt.Printf("deadline within [ACT, 2.5*ACT]: %v\n",
		t.Deadline >= t.ACT && t.Deadline <= 2.5*t.ACT)
	// Output:
	// deadline within [ACT, 2.5*ACT]: true
}

// ExampleReadWorkloadTrace round-trips a workload through its CSV trace.
func ExampleReadWorkloadTrace() {
	r := rlsched.NewStream(5, "example")
	cfg := rlsched.DefaultWorkloadConfig()
	cfg.NumTasks = 4
	tasks, _ := rlsched.GenerateWorkload(cfg, r)

	var csv strings.Builder
	if err := rlsched.WriteWorkloadTrace(&csv, tasks); err != nil {
		panic(err)
	}
	replayed, err := rlsched.ReadWorkloadTrace(strings.NewReader(csv.String()))
	if err != nil {
		panic(err)
	}
	fmt.Println(len(replayed) == len(tasks))
	// Output:
	// true
}

// ExampleRenderTable regenerates one evaluation figure and renders it.
func ExampleRenderTable() {
	p := rlsched.DefaultProfile()
	p.Replications = 1
	fig, err := rlsched.FigureByID(p, "12")
	if err != nil {
		panic(err)
	}
	table := rlsched.RenderTable(fig)
	fmt.Println(strings.HasPrefix(table, "FIGURE12"))
	// Output:
	// true
}
