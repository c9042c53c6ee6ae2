// Package rlsched is a from-scratch reproduction of "Efficient Energy
// Management using Adaptive Reinforcement Learning-based Scheduling in
// Large-Scale Distributed Systems" (Hussin, Lee, Zomaya — ICPP 2011,
// DOI 10.1109/ICPP.2011.18).
//
// The library contains, as independent building blocks:
//
//   - a deterministic discrete-event simulation engine,
//   - the paper's application, system and energy models (§III): tasks
//     with deadline-derived priorities, heterogeneous multi-processor
//     compute nodes organised into agent-managed resource sites, and
//     busy/idle/sleep power-state accounting (Eq. 5–6),
//   - the adaptive task-grouping technique (§IV.D): priority-aware merge
//     buffers with processing weights (Eq. 10) and the idle-processor
//     split process,
//   - Adaptive-RL, the paper's contribution (§IV): per-site learning
//     agents with dual feedback (reward Eq. 8, error Eq. 9), learning
//     values (Eq. 7), a bounded shared learning memory and a small neural
//     value-function approximator,
//   - the three comparison policies of Experiment 1 ([11] Online RL,
//     [12] Q+ learning, [13] prediction-based learning), and
//   - an experiment harness regenerating every evaluation figure (7–12).
//
// # Quick start
//
//	profile := rlsched.DefaultProfile()
//	result, err := rlsched.Run(profile, rlsched.RunSpec{
//		Policy:   rlsched.AdaptiveRL,
//		NumTasks: 1000,
//		Seed:     1,
//	})
//	if err != nil { ... }
//	fmt.Printf("AveRT=%.1f  ECS=%.2fM  success=%.2f\n",
//		result.AveRT, result.ECS/1e6, result.SuccessRate)
//
// Figures are regenerated with FigureByID (or AllFigures) and rendered
// with RenderTable, RenderChart and RenderCSV. The cmd/experiments binary wraps exactly that flow.
//
// Everything is deterministic: a (Profile, RunSpec) pair with a fixed
// Seed reproduces results bit-for-bit.
package rlsched
