// Package lp implements a dense primal simplex solver for
// linear programs, built from scratch on the standard library.
//
// The DATE 2002 paper solves its P_AW integer linear program (Section
// 3.2; ARCHITECTURE.md §2) with lpsolve [2]; no Go bindings for lpsolve
// exist, so this package provides the linear-programming substrate (and
// package ilp the branch-and-bound layer) needed to reproduce the
// paper's exact "final optimization step" and the exhaustive baseline.
//
// Problems are stated over n structural variables x >= 0 with dense
// coefficient rows and <=, >= or = comparisons. There are two starts,
// sharing one pivot loop that guards against cycling by switching from
// Dantzig's rule to Bland's rule after a run of degenerate pivots:
//
//   - Problem.Solve converts to standard form with slack, surplus and
//     artificial columns and runs a phase-1 feasibility simplex followed
//     by a phase-2 optimization. It needs no starting point; package
//     ilp's branching nodes use it.
//   - Workspace.SolveFrom takes a primal-feasible basis from the caller
//     (one structural column per row, or an LE row's own slack), builds
//     no artificial columns and runs phase 2 alone. It can also stop
//     early: the run returns with status Stopped once the objective
//     reaches a caller-given level, which is sound because a primal
//     simplex's objective never worsens. Package assign starts the P_AW
//     relaxation this way from a Core_assign assignment.
//
// A Workspace keeps the tableau (one row-major slab), the basis, the
// cost and reduced-cost rows and the solution vector across solves, so
// a warm solve allocates nothing. Like the other scratch types of this
// module it belongs to one goroutine at a time, and a Solution's X
// aliases it until the next solve on the same workspace.
package lp
