package pack

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"soctam/internal/soc"
)

// This file keeps the packers' former placement-order sorts as test
// oracles: a stable insertion sort over core indices whose comparator
// re-derives each core's preferred shape at every comparison. The
// per-budget placement keys, sorted by the order's ranking and then by
// core index, must reproduce their sequences exactly. It also keeps the
// former per-commit skyline rebuild, the oracle of the band update.

// rebuildSkyline recomputes the arena's prefix sums and sparse
// range-max table from avail from scratch, in O(W·log W): what every
// commit did before updateSkyline refreshed only its own band.
func (a *packArena) rebuildSkyline() {
	var sum int64
	for x, v := range a.avail {
		a.pref[x] = sum
		sum += int64(v)
		a.rmq[0][x] = v
	}
	a.pref[a.totalWidth] = sum
	for k := 1; k < len(a.rmq); k++ {
		half := 1 << (k - 1)
		row, prev := a.rmq[k], a.rmq[k-1]
		for x := 0; x+(1<<k) <= a.totalWidth; x++ {
			row[x] = prev[x]
			if v := prev[x+half]; v > row[x] {
				row[x] = v
			}
		}
	}
}

// lessSeq is the former Pack placement-order comparator over core
// indices x and y at one budget.
func lessSeq(shapes []coreShape, budget soc.Cycles, ord order, x, y int) bool {
	sa, sb := &shapes[x], &shapes[y]
	ka, kb := sa.preferredIndex(budget), sb.preferredIndex(budget)
	switch ord {
	case byTime:
		if sa.times[ka] != sb.times[kb] {
			return sa.times[ka] > sb.times[kb]
		}
		return sa.widths[ka] > sb.widths[kb]
	case byArea:
		if sa.minArea != sb.minArea {
			return sa.minArea > sb.minArea
		}
		return sa.times[ka] > sb.times[kb]
	}
	if sa.widths[ka] != sb.widths[kb] {
		return sa.widths[ka] > sb.widths[kb]
	}
	return sa.times[ka] > sb.times[kb]
}

// sortSeq is the former Pack placement order: an insertion sort of the
// core sequence by lessSeq.
func sortSeq(seq []int, shapes []coreShape, budget soc.Cycles, ord order) {
	for i := 1; i < len(seq); i++ {
		for j := i; j > 0 && lessSeq(shapes, budget, ord, seq[j], seq[j-1]); j-- {
			seq[j], seq[j-1] = seq[j-1], seq[j]
		}
	}
}

// sortSeqDiagonal is the former PackDiagonal placement order: an
// insertion sort by decreasing preferred-shape diagonal, wider first on
// ties.
func sortSeqDiagonal(seq []int, shapes []coreShape, budget soc.Cycles) {
	less := func(x, y int) bool {
		sa, sb := &shapes[x], &shapes[y]
		ka, kb := sa.preferredIndex(budget), sb.preferredIndex(budget)
		da, db := diagonal(sa.widths[ka], sa.times[ka]), diagonal(sb.widths[kb], sb.times[kb])
		if da != db {
			return da > db
		}
		return sa.widths[ka] > sb.widths[kb]
	}
	for i := 1; i < len(seq); i++ {
		for j := i; j > 0 && less(seq[j], seq[j-1]); j-- {
			seq[j], seq[j-1] = seq[j-1], seq[j]
		}
	}
}

// tieHeavySOC draws an n-core SOC whose cores are copies of a few
// random templates, so preferred widths, times, minimal areas and
// diagonals tie across many cores at every budget; a zero-pattern
// template (a 0-cycle, width-1 rectangle) turns up now and then too.
func tieHeavySOC(r *rand.Rand, n int) *soc.SOC {
	templates := make([]soc.Core, 1+r.Intn(12))
	for i := range templates {
		c := soc.Core{Name: "t", Inputs: 1 + r.Intn(120), Outputs: r.Intn(120), Patterns: r.Intn(300)}
		if r.Intn(8) == 0 {
			c.Patterns = 0
		}
		chains, length := r.Intn(12), 1+r.Intn(200)
		for j := 0; j < chains; j++ {
			c.ScanChains = append(c.ScanChains, max(1, length-r.Intn(3)*r.Intn(1+length/2)))
		}
		templates[i] = c
	}
	s := &soc.SOC{Name: "ties", Cores: make([]soc.Core, n)}
	for i := range s.Cores {
		s.Cores[i] = templates[r.Intn(len(templates))].Clone()
		s.Cores[i].Name = fmt.Sprintf("c%d", i)
	}
	return s
}

// tieHeavyShapes draws n packing shapes over widths 1..maxWidth whose
// Pareto widths and times come from pools so small that cores of
// different shapes still tie on preferred width, on preferred time, on
// minimal area (2·30 = 3·20) and on diagonal ((3,4) against (4,3)).
func tieHeavyShapes(r *rand.Rand, n, maxWidth int) []coreShape {
	shapes := make([]coreShape, n)
	for i := range shapes {
		sh := coreShape{core: i, minArea: int64(1) << 62}
		points := 1 + r.Intn(min(maxWidth, 4))
		perm := r.Perm(maxWidth)[:points]
		slices.Sort(perm)
		t := soc.Cycles(2 + r.Intn(12))
		for _, w := range perm {
			sh.widths = append(sh.widths, w+1)
			sh.times = append(sh.times, t)
			sh.minArea = min(sh.minArea, int64(w+1)*int64(t))
			t -= soc.Cycles(1 + r.Intn(3))
			if t < 1 {
				break
			}
		}
		shapes[i] = sh
	}
	return shapes
}

// TestPlacementOrdersMatchReference requires each placement order of
// the shared keys (sorted in succession, as Pack sorts them) to equal
// the oracle's sequence:
//   - at every budget the sweep tries, on random SOCs of up to 1000
//     cores copied from a few templates;
//   - on random tie-heavy shape sets of up to 1000 cores, at the
//     sweep's multiples of their lower bound and at every budget where
//     some core's preferred shape changes (each distinct time).
func TestPlacementOrdersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial, tc := range []struct{ n, width int }{
		{1, 16}, {2, 64}, {3, 8}, {5, 5}, {8, 16}, {13, 1}, {30, 2}, {60, 32},
		{120, 64}, {300, 16}, {1000, 64},
	} {
		name := fmt.Sprintf("SOC trial %d (%d cores, W=%d)", trial, tc.n, tc.width)
		budgets := 0
		check := func(a *packArena, shapes []coreShape, budget soc.Cycles, ceiling int) bool {
			budgets++
			checkPlacementOrders(t, name, a, shapes, budget)
			return packOnce(a, shapes, budget, byWidth, ceiling)
		}
		if _, err := packWith(context.Background(), tieHeavySOC(r, tc.n), tc.width, Options{}, check); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if budgets == 0 {
			t.Fatalf("%s: the sweep tried no budget", name)
		}
	}
	for trial, tc := range []struct{ n, width int }{
		{2, 3}, {7, 4}, {40, 6}, {150, 8}, {1000, 8},
	} {
		name := fmt.Sprintf("shape trial %d (%d cores, W=%d)", trial, tc.n, tc.width)
		shapes := tieHeavyShapes(r, tc.n, tc.width)
		a := newPackArena(tc.width, len(shapes))
		lb := shapeBound(shapes, tc.width, 0)
		var budgets []soc.Cycles
		for _, mult := range sweepBudgets {
			budgets = append(budgets, scaleCycles(lb, mult))
		}
		for i := range shapes {
			budgets = append(budgets, shapes[i].times...)
		}
		slices.Sort(budgets)
		for _, budget := range slices.Compact(budgets) {
			a.shapeKeys(shapes, budget)
			checkPlacementOrders(t, name, a, shapes, budget)
		}
	}
}

// checkPlacementOrders requires the arena's keys to carry every core's
// preferred shape at budget and, sorted into each order in turn, to
// list the cores exactly as the oracle's insertion sorts do.
func checkPlacementOrders(t *testing.T, name string, a *packArena, shapes []coreShape, budget soc.Cycles) {
	t.Helper()
	for i, k := range a.keys {
		sh := &shapes[i]
		p := sh.preferredIndex(budget)
		if k.core != i || k.width != sh.widths[p] || k.time != sh.times[p] || k.area != sh.minArea ||
			k.diag != diagonal(sh.widths[p], sh.times[p]) {
			t.Fatalf("%s budget %d: key %d = %+v, core shape %+v", name, budget, i, k, *sh)
		}
	}
	seq := make([]int, len(shapes))
	for _, ord := range []order{byWidth, byTime, byArea, byDiagonal} {
		for i := range seq {
			seq[i] = i
		}
		if ord == byDiagonal {
			sortSeqDiagonal(seq, shapes, budget)
		} else {
			sortSeq(seq, shapes, budget, ord)
		}
		a.sortKeys(ord)
		for i := range seq {
			if a.keys[i].core != seq[i] {
				t.Fatalf("%s budget %d order %d: position %d holds core %d, oracle core %d",
					name, budget, ord, i, a.keys[i].core, seq[i])
			}
		}
	}
}
