// Package assign solves P_AW, the core-to-TAM assignment problem of the
// DATE 2002 paper (Section 3; ARCHITECTURE.md §2): given TAMs of fixed
// widths and per-core testing times on each width (from package
// wrapper), assign every core to exactly one TAM so the SOC testing
// time — the maximum TAM load — is minimized.
//
// The package provides the paper's contributions and baselines:
//
//   - CoreAssign, the Figure 1 heuristic with the paper's two tie-break
//     rules and the lines 18–20 early abort against a best-known bound.
//     Each pick takes the first unassigned core of its TAM's order — the
//     cores by testing time descending, index ascending — through a
//     per-TAM cursor, so a run costs O(N·B) after the orders exist,
//     plus the line 15 lookahead's walk over runs of tied times.
//     Orders sorts them once per solve for every TAM width, and its
//     CoreAssign scores a width partition reading the time tables in
//     place; CoreAssign on an Instance sorts them per call;
//   - BuildILP / SolveILP, the Section 3.2 integer linear program (the
//     role lpsolve played in the paper), with RelaxationBound and the
//     reusable Relaxation bounding it through its LP relaxation, and
//   - SolveExact, a combinatorial branch-and-bound solving the same model
//     (used where the paper reports exact/exhaustive results).
package assign
