// Package assign solves P_AW, the core-to-TAM assignment problem of the
// DATE 2002 paper (Section 3; ARCHITECTURE.md §2): given TAMs of fixed
// widths and per-core testing times on each width (from package
// wrapper), assign every core to exactly one TAM so the SOC testing
// time — the maximum TAM load — is minimized.
//
// The package provides the paper's contributions and baselines:
//
//   - CoreAssign, the Figure 1 heuristic: O(N²) list scheduling with the
//     paper's two tie-break rules and the lines 18–20 early abort against
//     a best-known bound;
//   - BuildILP / SolveILP, the Section 3.2 integer linear program (the
//     role lpsolve played in the paper), with RelaxationBound and the
//     reusable Relaxation bounding it through its LP relaxation, and
//   - SolveExact, a combinatorial branch-and-bound solving the same model
//     (used where the paper reports exact/exhaustive results).
package assign
