// Datacenter: assemble a scenario manually through the public API — a
// larger cloud-style platform and a deadline-heavy workload — and watch
// Adaptive-RL schedule it, with structured tracing enabled.
//
// This is the §I motivation scenario: a large-scale system whose
// processors burn 80-95 W at peak and roughly half of that just idling,
// so the scheduler's job is to keep utilisation high without blowing
// deadlines.
package main

import (
	"fmt"
	"log"
	"os"

	"rlsched"
	"rlsched/internal/trace"
	"rlsched/internal/workload"
)

func main() {
	r := rlsched.NewStream(7, "datacenter")

	// A mid-size datacenter: 8 sites x 4 nodes x 4-6 processors.
	pcfg := rlsched.DefaultPlatformConfig()
	pcfg.Sites = 8
	pcfg.MinNodesPerSite, pcfg.MaxNodesPerSite = 4, 4
	platform, err := rlsched.GeneratePlatform(pcfg, r.Split("platform"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %d sites, %d nodes, %d processors (slowest %.0f MIPS)\n",
		len(platform.Sites), platform.NumNodes(), platform.NumProcessors(), platform.SlowestSpeed())

	// A deadline-heavy, bursty workload: 60% high-priority tasks arriving
	// in an on/off modulated Poisson stream (4x rate during bursts) with
	// a long-run mean inter-arrival of 0.4 time units.
	wcfg := rlsched.DefaultBurstyWorkloadConfig()
	wcfg.NumTasks = 4000
	wcfg.MeanInterArrival = 0.4
	wcfg.MeanBurstLen, wcfg.MeanGapLen = 30, 120
	wcfg.MinSizeMI, wcfg.MaxSizeMI = 600*4, 7200*4
	wcfg.SlowestSpeedMIPS = platform.SlowestSpeed()
	wcfg.Mix = rlsched.PriorityMix{Low: 0.1, Medium: 0.3, High: 0.6}
	tasks, err := rlsched.GenerateBurstyWorkload(wcfg, r.Split("workload"))
	if err != nil {
		log.Fatal(err)
	}

	// Trace the last scheduling events into a ring for post-mortem
	// inspection, and count every event kind.
	ring := trace.NewRing(12, trace.LevelInfo)
	counter := trace.NewCounter(trace.LevelDebug)
	ecfg := rlsched.DefaultEngineConfig()
	ecfg.Tracer = trace.Multi{ring, counter}
	// The record log gives the exact p95 below.
	records := new(rlsched.Records)
	ecfg.Records = records

	policy, err := rlsched.NewPolicy(rlsched.AdaptiveRL)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := rlsched.NewEngine(ecfg, platform, tasks, policy, r.Split("engine"))
	if err != nil {
		log.Fatal(err)
	}
	res := engine.MustRun()

	fmt.Printf("\ncompleted %d tasks in %.0f t units\n", res.Completed, res.EndTime)
	fmt.Printf("avg response time %.1f (p95 %.1f)\n", res.AveRT, records.RTPercentile(95))
	fmt.Printf("energy %.2f million W·t, idle share %.0f%%\n",
		res.ECS/1e6, res.Efficiency.IdleFraction*100)
	fmt.Printf("successful rate %.1f%%\n", res.SuccessRate*100)

	fmt.Println("\ndeadline success by priority:")
	byPrio := res.Collector.SuccessByPriority()
	for _, prio := range workload.Priorities {
		if rate, ok := byPrio[prio]; ok {
			fmt.Printf("  %-7s %.1f%%\n", prio, rate*100)
		}
	}

	fmt.Println("\nevent counts:")
	for _, kind := range counter.Kinds() {
		fmt.Printf("  %-15s %d\n", kind, counter.Count(kind))
	}

	fmt.Println("\nlast scheduling events:")
	w := trace.NewWriter(os.Stdout, trace.LevelInfo)
	for _, e := range ring.Events() {
		w.Emit(e)
	}
}
