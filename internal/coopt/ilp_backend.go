package coopt

import (
	"context"
	"fmt"
	"time"

	"soctam/internal/assign"
	"soctam/internal/partition"
	"soctam/internal/soc"
)

// ilpBackendName is the registered name of the exact branch-and-bound
// engine (see partitionBackendName for why these live as constants).
const ilpBackendName = "ilp"

// The ILP engine registers after the built-in engines of backend.go:
// within a package Go runs init functions in file-name order, and
// "ilp_backend.go" sorts after "backend.go", so the registry keeps the
// pre-PR-8 ranks (partition, packing, diagonal, exhaustive) and every
// earlier result — portfolio tie-breaks included — is reproduced bit
// for bit.
func init() {
	register(BackendInfo{
		Name:        ilpBackendName,
		Description: "exact branch-and-bound over width partitions with LP-relaxation and lower-bound pruning",
		PowerAware:  true,
		Cancellable: true,
		Exact:       true,
	}, StrategyILP, solveILP)
}

// solveILP is the exact engine behind StrategyILP: the same partition
// space as the exhaustive baseline (every unique width partition for
// B = 1..MaxTAMs, each solved to a proven-optimal assignment), searched
// as a branch-and-bound instead of an enumeration. Three prunes make it
// cheap without costing exactness:
//
//  1. the architecture-independent lower bound of bounds.go, shared by
//     every partition — once an incumbent attains it the search stops;
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
	tables, err := opt.tables(s, width)
	if err != nil {
		return Result{}, err
	}
	pc, err := newPowerContext(s, opt)
	if err != nil {
		return Result{}, err
	}
	e := &ilpState{
		tables:    tables,
		orders:    assign.NewOrders(tables),
		opt:       opt,
		pc:        pc,
		ctx:       ctx,
		sink:      sink,
		globalLB:  lowerBoundPC(tables, pc, width),
		allProven: true,
	}
	lo, hi := opt.tamRange(width)
	for b := lo; b <= hi && !e.truncated && !e.atBound(); b++ {
		if err := e.run(width, b); err != nil {
			return Result{}, err
		}
	}
	return e.result(width, started)
}

// ilpState carries the branch-and-bound search across TAM counts.
type ilpState struct {
	tables [][]soc.Cycles
	orders *assign.Orders
	opt    Options
	pc     *powerContext
	ctx    context.Context
	sink   *progressSink // nil = no observer

	// globalLB is the architecture-independent lower bound: the floor
	// every partition bound starts from, and the early-stop target.
	globalLB soc.Cycles

	// inst, asg and relax are the per-partition scratch: the
	// partition's P_AW instance, its Core_assign buffers and its LP
	// relaxation, reused across partitions.
	inst  assign.Instance
	asg   assign.Scratch
	relax assign.Relaxation

	best            soc.Cycles
	bestPart        []int
	bestAssign      assign.Assignment
	allProven       bool
	truncated       bool
	enumerated      int
	solved          int
	pruned          int
	powerInfeasible int
}

// atBound reports whether the incumbent has reached the global lower
// bound — no partition anywhere can strictly improve on it, so the
// search may stop with a completed proof.
func (e *ilpState) atBound() bool {
	return e.bestPart != nil && e.best <= e.globalLB
}

// partitionBound computes the combinatorial lower bound of one
// partition from the testing-time tables alone: no core can test
// faster than on the partition's widest TAM (tables are non-increasing
// in width), so the bottleneck core and the average load over B TAMs
// both bound the makespan from below.
func (e *ilpState) partitionBound(parts []int) soc.Cycles {
	widest := parts[len(parts)-1] // Enumerate yields non-decreasing parts
	lb := e.globalLB
	var sum soc.Cycles
	for i := range e.tables {
		ti := e.tables[i][widest-1]
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

// run branch-and-bounds every unique width partition for one TAM count.
func (e *ilpState) run(width, numTAMs int) error {
	var innerErr error
	partition.Enumerate(width, numTAMs, func(parts []int) bool {
		if innerErr = e.ctx.Err(); innerErr != nil {
			return false
		}
		// Deadline poll per partition, as in the exhaustive baseline;
		// only an existing incumbent may truncate.
		if e.bestPart != nil && !e.opt.Deadline.IsZero() && time.Now().After(e.opt.Deadline) {
			e.truncated = true
			return false
		}
		e.enumerated++
		if e.bestPart != nil {
			if e.atBound() {
				// The incumbent attained the global lower bound: every
				// remaining partition is prunable, so stop enumerating.
				e.pruned++
				return false
			}
			if e.partitionBound(parts) >= e.best {
				e.pruned++
				return true
			}
		}
		inst := &e.inst
		if err := assign.FromTimeTableInto(inst, e.tables, parts); err != nil {
			innerErr = err
			return false
		}
		greedy, _ := e.orders.CoreAssign(&e.asg, parts, 0)
		var cutoff soc.Cycles // none until the first incumbent
		if e.bestPart != nil {
			// The LP relaxation of the partition's Section 3.2 model:
			// its rounded-up optimum bounds any integral assignment. A
			// simplex that gave up costs us the prune, never soundness.
			prune, err := e.relax.Prunes(inst, greedy, e.best)
			if err != nil {
				innerErr = err
				return false
			}
			if prune {
				e.pruned++
				return true
			}
			cutoff = e.best
		}
		e.solved++
		a, found, proven, err := assign.SolveExactCutoff(inst, e.opt.exact(), cutoff, greedy)
		if err != nil {
			innerErr = err
			return false
		}
		if !proven {
			// The node limit stopped the search: a better assignment
			// might lie out of its reach.
			e.allProven = false
		}
		if !found {
			return true // nothing below the incumbent
		}
		// Power acceptance matches the exhaustive baseline: an improving
		// partition is taken only if its minimum-time assignment keeps
		// the serial-per-TAM schedule under the ceiling; a slower but
		// feasible assignment of a rejected partition is not searched
		// for.
		if !e.pc.feasible(e.tables, parts, a.TAMOf, nil) {
			e.powerInfeasible++
			return true
		}
		e.best = a.Time
		e.bestPart = partition.Canonical(parts)
		e.bestAssign = a
		e.sink.improved(ilpBackendName, a.Time, e.enumerated)
		return true
	})
	return innerErr
}

func (e *ilpState) result(width int, started time.Time) (Result, error) {
	if e.bestPart == nil {
		return Result{}, fmt.Errorf("coopt: ILP search found no feasible partition for width %d", width)
	}
	gap := gapOf(e.best, e.globalLB)
	return Result{
		TotalWidth:        width,
		Strategy:          StrategyILP,
		Partition:         e.bestPart,
		NumTAMs:           len(e.bestPart),
		HeuristicTime:     e.best,
		Assignment:        e.bestAssign,
		Time:              e.best,
		AssignmentOptimal: e.allProven,
		MaxPower:          e.pc.maxPower(),
		PeakPower:         e.pc.peak(e.tables, e.bestPart, e.bestAssign.TAMOf, nil),
		Gap:               gap,
		Truncated:         e.truncated,
		// A completed search with every exact solve and prune proven is
		// the optimum by construction even when the bound is not tight.
		Proven: gap == 0 || (e.allProven && !e.truncated),
		Stats: Stats{
			Enumerated:      e.enumerated,
			Completed:       e.solved,
			Aborted:         e.pruned,
			PowerInfeasible: e.powerInfeasible,
		},
		Elapsed: time.Since(started),
	}, nil
}
