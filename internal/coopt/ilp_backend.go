package coopt

import (
	"context"
	"fmt"
	"time"

	"soctam/internal/assign"
	"soctam/internal/soc"
)

// solveILP is the exact engine behind StrategyILP: the same partition
// space as the exhaustive baseline (every unique width partition for
// B = 1..MaxTAMs, each solved to a proven-optimal assignment), searched
// as a branch-and-bound instead of an enumeration. Three prunes make it
// cheap without costing exactness:
//
//  1. the architecture-independent lower bound (pack.LowerBound), shared
//     by every partition — once an incumbent attains it the search stops;
//  2. per-partition combinatorial bounds from the testing-time tables
//     (bottleneck core and average load at the partition's widest TAM);
//  3. the LP relaxation of the Section 3.2 assignment model
//     (internal/lp), whose rounded-up optimum bounds the partition,
//     asked through assign.Relaxation.Prunes: one model per partition
//     shape, phase 2 alone from the Core_assign assignment's basis, and
//     a stop as soon as the objective shows the rounded bound falls
//     short of the incumbent — the same decision as solving the
//     relaxation from scratch, at a fraction of the cost;
//
// and partitions that survive them are solved by the combinatorial
// branch-and-bound with the incumbent as an exclusive cutoff, so the
// solver proves "no improvement here" without re-deriving the
// partition's own optimum. Core_assign runs once per partition that
// reaches prune 3, scored from the solve's per-width core orders, and
// its assignment feeds both the relaxation's crash basis and the
// cutoff solve's warm start. A pruned partition can never improve the
// incumbent, and the incumbent only ever updates on strict improvement
// in the exhaustive baseline too, so the engine returns the baseline's
// testing time on every instance. (The simplex-based integer solver of
// internal/ilp, assign.SolveILP, is not called here: solving each
// partition's 0/1 model through it costs milliseconds where the
// combinatorial search under a cutoff costs microseconds — the ILP
// contributes its relaxation, the bound lpsolve would compute at the
// root.)
func solveILP(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	started := time.Now()
	sc, err := newScan(ctx, s, width, opt, sink,
		scanPlan{backend: ilpBackendName, enum: EnumCanonical, workers: 1, poll: exactPoll})
	if err != nil {
		return Result{}, err
	}
	tables := sc.tables
	orders := assign.NewOrders(tables, 0)
	// globalLB is the solve's architecture-independent lower bound: the
	// floor every partition bound starts from, and the early-stop target.
	globalLB := sc.lb
	// atBound reports whether the incumbent has reached the global lower
	// bound: no partition anywhere can strictly improve on it, so the
	// search may stop with a completed proof.
	atBound := func() bool {
		best, ok := sc.incumbent()
		return ok && best <= globalLB
	}
	// inst and relax are the per-partition scratch: the partition's P_AW
	// instance and its LP relaxation, reused across partitions.
	var (
		inst       assign.Instance
		relax      assign.Relaxation
		bestAssign assign.Assignment
		allProven  = true
	)
	score := func(w *worker, parts []int, seq int64) error {
		w.stats.Enumerated++
		best, have := sc.incumbent()
		if have {
			if best <= globalLB {
				// The incumbent attained the global lower bound: every
				// remaining partition is prunable, so stop enumerating.
				w.stats.Aborted++
				return errStop
			}
			if partitionBound(tables, globalLB, parts) >= best {
				w.stats.Aborted++
				return nil
			}
		}
		if err := assign.FromTimeTableInto(&inst, tables, parts); err != nil {
			return err
		}
		greedy, _ := orders.CoreAssign(&w.asg, parts, 0)
		var cutoff soc.Cycles // none until the first incumbent
		if have {
			// The LP relaxation of the partition's Section 3.2 model:
			// its rounded-up optimum bounds any integral assignment. A
			// simplex that gave up costs us the prune, never soundness.
			prune, err := relax.Prunes(&inst, greedy, best)
			if err != nil {
				return err
			}
			if prune {
				w.stats.Aborted++
				return nil
			}
			cutoff = best
		}
		w.stats.Completed++
		a, found, proven, err := assign.SolveExactCutoff(&inst, opt.exact(), cutoff, greedy)
		if err != nil {
			return err
		}
		// A solve the node limit stopped may have left a better
		// assignment out of its reach.
		allProven = allProven && proven
		// Power acceptance matches the exhaustive baseline: an improving
		// partition is taken only if its minimum-time assignment keeps
		// the serial-per-TAM schedule under the ceiling; a slower but
		// feasible assignment of a rejected partition is not searched
		// for.
		if found && sc.offer(w, a.Time, parts, a.TAMOf, seq) {
			bestAssign = a
		}
		if sc.cut(proven) {
			return errStop
		}
		return nil
	}
	// One sweep per TAM count, so a search that attains the bound at the
	// end of one count stops there, with no pruned partition booked for
	// the next.
	lo, hi := opt.tamRange(width)
	for b := lo; b <= hi && !sc.truncated.Load() && !atBound(); b++ {
		if err := sc.sweep(width, b, b, score); err != nil {
			return Result{}, err
		}
	}
	if sc.bestPart == nil {
		return Result{}, fmt.Errorf("coopt: ILP search found no feasible partition for width %d", width)
	}
	return sc.exactResult(StrategyILP, width, bestAssign, allProven, started), nil
}

// partitionBound computes the combinatorial lower bound of one
// partition from the testing-time tables alone: no core can test
// faster than on the partition's widest TAM (tables are non-increasing
// in width), so the bottleneck core and the average load over B TAMs
// both bound the makespan from below, and neither below floor.
func partitionBound(tables [][]soc.Cycles, floor soc.Cycles, parts []int) soc.Cycles {
	widest := parts[len(parts)-1] // the scan's canonical enumeration yields non-decreasing parts
	lb := floor
	var sum soc.Cycles
	for i := range tables {
		ti := tables[i][widest-1]
		if ti > lb {
			lb = ti
		}
		sum += ti
	}
	b := soc.Cycles(len(parts))
	if avg := (sum + b - 1) / b; avg > lb {
		lb = avg
	}
	return lb
}
