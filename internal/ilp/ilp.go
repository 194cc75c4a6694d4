package ilp

import (
	"fmt"
	"math"

	"soctam/internal/lp"
)

// Model is an integer linear program: an LP plus integrality flags.
type Model struct {
	// Prob is the LP relaxation. Prob.Maximize must be false.
	Prob lp.Problem
	// Integer marks which variables must take integer values. Shorter
	// slices are false-extended.
	Integer []bool
}

// Options tunes the branch-and-bound search.
type Options struct {
	// NodeLimit caps the number of explored nodes; <= 0 means the
	// default of 200000.
	NodeLimit int
	// IntTol is the integrality tolerance; <= 0 means 1e-6.
	IntTol float64
}

// Status reports the outcome of an ILP solve.
type Status uint8

// Solve outcomes.
const (
	// Optimal: an integer solution was found and proven optimal.
	Optimal Status = iota
	// Feasible: an integer solution was found but the node limit expired
	// before optimality was proven.
	Feasible
	// Infeasible: the problem has no integer solution.
	Infeasible
	// Unbounded: the LP relaxation is unbounded.
	Unbounded
	// Limit: the node limit expired with no integer solution found.
	Limit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "node-limit"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proven reports whether the returned solution is proven optimal.
	Proven bool
}

// node is one branch-and-bound subproblem: the base problem plus bound
// constraints fixed so far.
type node struct {
	extra []lp.Constraint
}

// Solve minimizes the model exactly by branch and bound.
func Solve(m *Model, opt Options) (Result, error) {
	if m.Prob.Maximize {
		return Result{}, fmt.Errorf("ilp: only minimization models are supported")
	}
	nodeLimit := opt.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 200000
	}
	intTol := opt.IntTol
	if intTol <= 0 {
		intTol = 1e-6
	}

	integer := make([]bool, m.Prob.NumVars)
	copy(integer, m.Integer)

	best := Result{Status: Limit, Objective: math.Inf(1)}
	stack := []node{{}}
	nodes := 0
	for len(stack) > 0 && nodes < nodeLimit {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		prob := m.Prob.Clone()
		prob.Constraints = append(prob.Constraints, nd.extra...)
		sol, err := prob.Solve()
		if err != nil {
			return Result{}, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// The relaxation at the root being unbounded means the ILP
			// is unbounded or infeasible; report unbounded.
			if len(nd.extra) == 0 {
				return Result{Status: Unbounded, Nodes: nodes}, nil
			}
			continue
		case lp.IterLimit:
			continue // treat as unexplorable; costs us proof, not safety
		}
		if sol.Objective >= best.Objective-1e-9 {
			continue // bound: cannot beat incumbent
		}
		branchVar := -1
		worstFrac := intTol
		for j := 0; j < m.Prob.NumVars; j++ {
			if !integer[j] {
				continue
			}
			frac := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = j
			}
		}
		if branchVar < 0 {
			// Integral: new incumbent.
			x := append([]float64(nil), sol.X...)
			for j, isInt := range integer {
				if isInt {
					x[j] = math.Round(x[j])
				}
			}
			best = Result{Status: Feasible, X: x, Objective: sol.Objective}
			continue
		}
		v := sol.X[branchVar]
		row := make([]float64, branchVar+1)
		row[branchVar] = 1
		down := node{extra: appendConstraint(nd.extra, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: math.Floor(v)})}
		up := node{extra: appendConstraint(nd.extra, lp.Constraint{Coeffs: row, Op: lp.GE, RHS: math.Ceil(v)})}
		// Explore the branch nearer the LP value first (pushed last).
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}
	best.Nodes = nodes
	if math.IsInf(best.Objective, 1) {
		if len(stack) == 0 {
			best.Status = Infeasible
		} else {
			best.Status = Limit
		}
		return best, nil
	}
	if len(stack) == 0 {
		best.Status = Optimal
		best.Proven = true
	}
	return best, nil
}

// appendConstraint copies the node's constraint list before extending it,
// so sibling nodes never share backing arrays.
func appendConstraint(cs []lp.Constraint, c lp.Constraint) []lp.Constraint {
	out := make([]lp.Constraint, len(cs)+1)
	copy(out, cs)
	out[len(cs)] = c
	return out
}
