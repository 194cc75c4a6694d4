package pack

import (
	"context"
	"math"

	"soctam/internal/soc"
)

// This file implements the diagonal-length packing heuristic of the
// arXiv study "Wrapper/TAM Co-Optimization and Test Scheduling for SOCs
// Using Rectangle Bin Packing Considering Diagonal Length of Rectangles"
// (arXiv:1008.4446): best-fit-decreasing placement where the rectangle
// diagonal sqrt(w²+t²) both orders the cores and breaks placement ties.
// The intuition is geometric — the diagonal measures how much a
// rectangle "spans" the bin in both dimensions at once, so committing
// the largest-diagonal rectangles first leaves the small, nearly-square
// leftovers for the gaps. The heuristic reuses the shared packing
// pipeline (core shapes, skyline, power timeline, lower bound, budget
// sweep) of this package; only the per-budget placement differs. See
// ARCHITECTURE.md §8.

// diagonal returns the diagonal length sqrt(w² + t²) of a w-wires by
// t-cycles rectangle. math.Hypot is correctly rounded, so comparisons
// are deterministic across platforms.
func diagonal(w int, t soc.Cycles) float64 {
	return math.Hypot(float64(w), float64(t))
}

// PackDiagonal co-optimizes the SOC by diagonal-length rectangle
// packing under a total width W: best-fit-decreasing placement ordered
// and tie-broken by rectangle diagonal length. Budgets, power ceilings
// and the returned Schedule behave exactly as in Pack; only the
// placement heuristic differs, so neither packer dominates the other
// across SOCs and widths.
func PackDiagonal(s *soc.SOC, totalWidth int, opt Options) (*Schedule, error) {
	return PackDiagonalContext(context.Background(), s, totalWidth, opt)
}

// PackDiagonalContext is PackDiagonal with cancellation, mirroring
// PackContext.
func PackDiagonalContext(ctx context.Context, s *soc.SOC, totalWidth int, opt Options) (*Schedule, error) {
	return packWith(ctx, s, totalWidth, opt, func(a *packArena, shapes []coreShape, budget soc.Cycles, ceiling int) bool {
		return packOnceDiagonal(a, shapes, budget, ceiling)
	})
}

// packOnceDiagonal shapes every rectangle to one budget and places them
// by best-fit-decreasing diagonal order: cores are committed from the
// largest preferred-shape diagonal down, and each core takes the
// placement wasting the least idle area under it (best fit) among all
// Pareto shapes and wire positions that finish within the budget —
// ties go to the earlier start, then to the larger rectangle diagonal,
// then to the lower wire. When no shape meets the budget the earliest
// finish over all shapes is taken, with the same tie chain.
//
// The skyline and power-timeline machinery is shared with packOnce:
// under a ceiling every candidate start is pushed to the earliest
// instant with enough power headroom, so no breaching position is ever
// considered. The arena's keys must hold the budget's placement keys
// (shapeKeys); the run sorts them by diagonal, writes only into the
// arena (zero allocations once warm) and folds its schedule into the
// arena's best, reporting improvement.
func packOnceDiagonal(a *packArena, shapes []coreShape, budget soc.Cycles, ceiling int) bool {
	a.beginAttempt(ceiling)
	a.sortKeys(byDiagonal)
	for i := range a.keys {
		sh := &shapes[a.keys[i].core]
		var fit, fallback Rect
		fitWaste, fallbackWaste := int64(-1), int64(-1)
		var fitDiag, fallbackDiag float64
		for c := 0; c < len(sh.widths); c++ {
			w, t := sh.widths[c], sh.times[c]
			d := diagonal(w, t)
			for at := 0; at+w <= a.totalWidth; at++ {
				start, waste, end := a.measure(sh.power, at, w, t)
				r := Rect{Core: sh.core, Wire: at, Width: w, Start: start, End: end}
				if end <= budget && betterDiagonal(waste, start, d, fitWaste, fit.Start, fitDiag) {
					fit, fitWaste, fitDiag = r, waste, d
				}
				// Fallback ranks by finish first: when the budget is
				// unattainable the packer degrades to earliest-completion,
				// with waste and diagonal as the tie chain.
				if fallbackWaste < 0 || end < fallback.End ||
					(end == fallback.End && betterDiagonal(waste, start, d, fallbackWaste, fallback.Start, fallbackDiag)) {
					fallback, fallbackWaste, fallbackDiag = r, waste, d
				}
			}
		}
		bestRect := fit
		if fitWaste < 0 {
			bestRect = fallback
		}
		bestRect.Power = sh.power
		a.commit(bestRect)
	}
	return a.consider()
}

// betterDiagonal reports whether a candidate placement (waste, start,
// diag) beats the recorded best (bestWaste < 0 means none yet): least
// idle area under the rectangle first, then the earlier start, then the
// larger rectangle diagonal. The position scan order (width, then wire)
// supplies the final deterministic tie-break: the first candidate at
// equal rank is kept.
func betterDiagonal(waste int64, start soc.Cycles, diag float64, bestWaste int64, bestStart soc.Cycles, bestDiag float64) bool {
	if bestWaste < 0 {
		return true
	}
	if waste != bestWaste {
		return waste < bestWaste
	}
	if start != bestStart {
		return start < bestStart
	}
	return diag > bestDiag
}
