// Policycompare: run all four learning approaches of the paper's
// Experiment 1 on the same scenario and print the comparison the paper's
// Figures 7 and 8 plot, plus an ASCII rendition of Figure 7 on a reduced
// sweep.
package main

import (
	"fmt"
	"log"

	"rlsched"
)

func main() {
	profile := rlsched.DefaultProfile()

	fmt.Println("One heavy-load scenario (3000 tasks), four learning approaches:")
	fmt.Printf("%-18s %-8s %-8s %-9s %-7s\n", "policy", "AveRT", "ECS(M)", "success", "util")
	for _, name := range rlsched.AllPolicies() {
		res, err := rlsched.Run(profile, rlsched.RunSpec{
			Policy: name, NumTasks: profile.HeavyTasks, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %-8.1f %-8.3f %-9.3f %-7.3f\n",
			name, res.AveRT, res.ECS/1e6, res.SuccessRate, res.MeanUtilization)
	}

	// A reduced Figure 7: fewer points and a single replication, rendered
	// as a table and an ASCII chart.
	small := profile
	small.Replications = 1
	fig, err := rlsched.FigureByID(small, "7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rlsched.RenderTable(fig))
	fmt.Println()
	fmt.Print(rlsched.RenderChart(fig, 72, 16))
}
