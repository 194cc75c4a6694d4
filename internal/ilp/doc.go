// Package ilp implements a branch-and-bound integer linear programming
// solver on top of the package lp simplex.
//
// It plays the role of lpsolve [2] in the DATE 2002 paper: the P_AW core
// assignment model (Section 3.2; ARCHITECTURE.md §2) is a 0/1 ILP,
// solved exactly here by assign.SolveILP — the reference the tests hold
// the combinatorial branch and bound (assign.SolveExact, the exact step
// of every co-optimization flow) against.
//
// The solver does depth-first branch and bound with most-fractional
// branching, exploring the rounded branch first, and prunes nodes whose
// LP relaxation cannot beat the incumbent. Only minimization problems are
// accepted (P_AW minimizes testing time); callers with maximization
// problems negate their objective.
//
// The registered exact engine (coopt.StrategyILP; ARCHITECTURE.md §14)
// does not solve each partition's 0/1 model through this package (that
// costs milliseconds where the combinatorial search costs microseconds):
// it takes the model's LP relaxation (assign.Relaxation, solved by
// package lp from a feasible basis) as a pruning bound.
package ilp
