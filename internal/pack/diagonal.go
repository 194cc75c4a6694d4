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
// and tie-broken by rectangle diagonal length. The budget sweep, power
// ceilings and the returned Schedule behave exactly as in Pack; only the
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
// then to the narrower shape and the lower wire. When no shape meets
// the budget the earliest finish over all shapes is taken, with the
// same tie chain.
//
// Each placement first asks diagonalShortcut, which answers from the
// skyline's flat runs whenever some shape fits within the budget on a
// flat run: no placement wastes less than zero, so the rule's winner is
// the lowest such run, with the same tie chain. Otherwise, and always
// under a ceiling, diagonalScan scores every shape at every wire.
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
		r, ok := a.diagonalShortcut(sh, budget)
		if !ok {
			r = a.diagonalScan(sh, budget)
		}
		r.Power = sh.power
		a.commit(r)
	}
	return a.consider()
}

// diagonalShortcut answers packOnceDiagonal's placement of sh without a
// scan when some Pareto shape, started on a flat run of the skyline,
// finishes within the budget (no ceiling only). Such a placement wastes
// nothing, so the rule's winner is among them: the shape whose lowest
// wide-enough run is lowest, then the larger diagonal, then the
// narrower shape, on the first wire of that run. It declines when no
// shape fits on a flat run, and the scan's fit then strands idle area.
func (a *packArena) diagonalShortcut(sh *coreShape, budget soc.Cycles) (Rect, bool) {
	if a.ceiling > 0 {
		return Rect{}, false
	}
	a.flatRuns()
	best, bestH, bestDiag := -1, soc.Cycles(0), 0.0
	for c, w := range sh.widths {
		if w > a.maxRun {
			break // widths increase: no wider shape has a run either
		}
		h, t := a.runH[w], sh.times[c]
		if h+t > budget || (best >= 0 && h > bestH) {
			continue
		}
		if d := diagonal(w, t); best < 0 || h < bestH || d > bestDiag {
			best, bestH, bestDiag = c, h, d
		}
	}
	if best < 0 {
		return Rect{}, false
	}
	w := sh.widths[best]
	return Rect{Core: sh.core, Wire: a.runAt[w], Width: w, Start: bestH, End: bestH + sh.times[best]}, true
}

// diagonalScan is packOnceDiagonal's placement scan: it scores every
// Pareto shape of sh at every wire and returns the best in-budget fit,
// or the earliest finish when no shape meets the budget.
func (a *packArena) diagonalScan(sh *coreShape, budget soc.Cycles) Rect {
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
	if fitWaste < 0 {
		return fallback
	}
	return fit
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
