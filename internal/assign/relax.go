package assign

import (
	"math"

	"soctam/internal/lp"
	"soctam/internal/soc"
)

// relaxMargin is subtracted from a relaxation optimum before rounding
// it up, so floating-point noise on an integral optimum cannot lift the
// bound by a cycle.
const relaxMargin = 1e-6

// RelaxationBound solves the LP relaxation of the Section 3.2 model and
// returns the rounded-up fractional makespan: a valid lower bound on the
// instance's optimal testing time, because every integral assignment is
// feasible for the relaxation and all testing times are integral. ok is
// false when the simplex gave up (iteration limit) or the instance has
// no TAMs — the caller must then skip the bound, never trust a partial
// one.
//
// It runs the crash-started phase 2 of Relaxation on a fresh scratch;
// a caller bounding many instances should keep a Relaxation instead.
func RelaxationBound(in *Instance) (bound soc.Cycles, ok bool, err error) {
	if in.NumTAMs() == 0 {
		return 0, false, nil // no assignment to start from
	}
	greedy, _ := CoreAssign(in, 0)
	var r Relaxation
	sol, err := r.solve(in, greedy, math.Inf(-1))
	if err != nil || sol.Status != lp.Optimal {
		return 0, false, err
	}
	return roundBound(sol.Objective), true, nil
}

// roundBound rounds a relaxation optimum up to the integral bound it
// implies.
func roundBound(obj float64) soc.Cycles {
	return soc.Cycles(math.Ceil(obj - relaxMargin))
}

// Relaxation is reusable scratch for the LP relaxation of the Section
// 3.2 model. It keeps one model per (cores, TAMs) shape, rewriting only
// the load rows' testing times T_i(w_j) per instance, and starts the
// simplex from the caller's CoreAssign assignment instead of running
// phase 1:
//
//   - x_{i,TAMOf[i]} is basic in core i's assignment row;
//   - the makespan T is basic in the load row of the most-loaded TAM
//     (the first one on ties);
//   - every other load row's slack is basic.
//
// That basis is primal feasible by construction — x is 0/1, T is the
// greedy makespan and each slack is T minus its TAM's load, never
// negative — so phase 2 alone reaches the relaxation optimum, and its
// objective starts at the greedy makespan, an upper bound on it.
//
// The zero value is ready. A shape change rebuilds the model; the
// simplex workspace grows to the largest shape seen. A Relaxation
// belongs to one goroutine at a time.
type Relaxation struct {
	shape [2]int // cores, TAMs of prob
	prob  lp.Problem
	basis []int
	ws    lp.Workspace
}

// Prunes reports whether the relaxation bound reaches cutoff — exactly
// RelaxationBound's ok && bound >= cutoff, the test for "this instance
// cannot strictly improve an incumbent of cutoff cycles" — at a
// fraction of its cost: phase 2 stops as soon as its objective falls to
// cutoff-1+1e-6, the level at and below which the rounded bound is
// under cutoff. When the greedy makespan already is at that level no LP
// is built at all. A simplex that hits its iteration limit answers
// false: no prune. greedy is the complete CoreAssign assignment of in
// (it may alias a Scratch; it is only read), the crash basis's source,
// which the caller passes on to SolveExactCutoff if in survives.
func (r *Relaxation) Prunes(in *Instance, greedy Assignment, cutoff soc.Cycles) (bool, error) {
	sol, err := r.solve(in, greedy, float64(cutoff-1)+relaxMargin)
	if err != nil || sol.Status != lp.Optimal {
		return false, err
	}
	return roundBound(sol.Objective) >= cutoff, nil
}

// solve runs the relaxation of in from the crash basis of the greedy
// assignment a, stopping at objective level stop. The crash basis's
// objective is the greedy makespan, so when that is at or below stop
// the run would stop before its first pivot, and solve reports
// lp.Stopped without building the tableau.
func (r *Relaxation) solve(in *Instance, a Assignment, stop float64) (lp.Solution, error) {
	n, nb := in.NumCores(), in.NumTAMs()
	if float64(a.Time) <= stop {
		return lp.Solution{Status: lp.Stopped, Objective: float64(a.Time)}, nil
	}
	if r.shape != [2]int{n, nb} { // the zero shape never matches: nb >= 1
		r.prob = BuildILP(in).Prob
		r.shape = [2]int{n, nb}
		r.basis = make([]int, n+nb)
	} else {
		for j := 0; j < nb; j++ {
			row := r.prob.Constraints[n+j].Coeffs
			for i := 0; i < n; i++ {
				row[i*nb+j] = float64(in.Times[i][j])
			}
		}
	}
	for i, j := range a.TAMOf {
		r.basis[i] = i*nb + j
	}
	top := 0
	for j := 0; j < nb; j++ {
		r.basis[n+j] = lp.Slack
		if a.Loads[j] > a.Loads[top] {
			top = j
		}
	}
	r.basis[n+top] = n * nb // the makespan variable T
	return r.ws.SolveFrom(&r.prob, r.basis, stop)
}
