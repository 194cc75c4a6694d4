// Package coopt is the top of the wrapper/TAM co-optimization stack
// (ARCHITECTURE.md §3, §5, §8–§9, §11): the DATE 2002 paper's
// Partition_evaluate heuristic (Figure 3) for the problems P_PAW and
// P_NPAW, the exact final optimization step, and the backend table
// (backend.go) that Solve dispatches over — the partition
// flow, rectangle bin-packing (StrategyPacking), diagonal-length
// bin-packing (StrategyDiagonal), the exhaustive enumerate-and-solve
// baseline of the earlier JETTA 2002 work [8] (StrategyExhaustive),
// the exact LP-pruned branch and bound over the same partitions
// (StrategyILP), and the portfolio combinator (StrategyPortfolio) that
// races any subset of them, one after another on the caller's
// goroutine, and returns the winner. Solve/SolveContext is the one way to
// run any of them; PartitionEvaluate and Exhaustive are Solve with the
// engine's TAM-count sweep narrowed to one B. Options.Progress streams
// backend lifecycle and incumbent-improvement events from any run
// (progress.go).
//
// The partition flow mirrors the paper exactly:
//
//  1. per-core testing-time tables T_i(w) come from Design_wrapper
//     (package wrapper), computed once per SOC and total width;
//  2. width partitions are enumerated with the bounded Increment odometer
//     (package partition) for each candidate TAM count B;
//  3. every partition is scored with the Core_assign heuristic (package
//     assign) under the running best bound, which aborts hopeless
//     partitions early — the paper's three levels of pruning;
//  4. the winning partition is re-solved exactly (assign.SolveExact,
//     the combinatorial branch and bound) as the final optimization
//     step.
//
// Steps 2–3 are the scan (scan.go), the one enumerate/poll/incumbent
// loop that the exhaustive and ILP engines run too; the partition
// engine runs Options.Workers strided copies of it. Results are
// bit-for-bit identical at any worker count, including as a portfolio
// racer (ARCHITECTURE.md §3 has the determinism argument).
package coopt
