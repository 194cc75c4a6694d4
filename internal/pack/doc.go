// Package pack implements rectangle bin-packing wrapper/TAM
// co-optimization (ARCHITECTURE.md §5 and §8), the alternative
// architecture family of the follow-up TAM literature (Iyengar et al.,
// and the arXiv studies "Efficient Wrapper/TAM Co-Optimization for SOC
// Using Rectangle Packing", "Wrapper/TAM Co-Optimization and Constrained
// Test Scheduling for SOCs Using Rectangle Bin Packing", and the
// diagonal-length study arXiv:1008.4446).
//
// Each core's test is modelled as a rectangle: its height is a TAM width
// w (wires used simultaneously) and its length the testing time T_i(w)
// from Design_wrapper. The SOC's test is a placement of one rectangle
// per core into the W×T bin — W total TAM wires by T testing cycles —
// with no two rectangles overlapping. Unlike the partition flow, cores
// need not share fixed test buses: a core may straddle any contiguous
// band of wires for just the duration of its own test, so wires are
// re-divided between cores over time.
//
// Two placement heuristics share the pipeline (budget sweep over fixed
// multiples of LowerBound, preferred-width shaping, skyline placement,
// power timeline, iterative refinement):
//
//   - Pack, budgeted best fit: the narrowest Pareto shape that still
//     finishes within the budget wins, in three placement orders;
//   - PackDiagonal, best-fit-decreasing by rectangle diagonal length
//     sqrt(w²+t²), with the diagonal also breaking placement ties.
//
// Neither dominates the other across SOCs and widths — the portfolio
// racer in package coopt runs both (and the partition flow) and keeps
// the best.
package pack
