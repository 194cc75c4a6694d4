package pack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"soctam/internal/soc"
)

// equalDiagonals are Pareto staircases whose points share one diagonal
// (w² + t² is equal within each), so placement ties reach the
// narrower-shape rule.
var equalDiagonals = [][][2]int{
	{{3, 4}, {4, 3}},
	{{1, 7}, {5, 5}, {7, 1}},
	{{1, 8}, {4, 7}, {7, 4}, {8, 1}},
	{{2, 11}, {5, 10}, {10, 5}, {11, 2}},
}

// randomSkyline fills a's free times with runs whose heights come from
// a pool of at most four values, so equal-height runs that do not touch
// recur, and now and then forces one flat run of up to the whole bin.
func randomSkyline(r *rand.Rand, a *packArena) {
	w := a.totalWidth
	pool := make([]soc.Cycles, 1+r.Intn(4))
	for i := range pool {
		pool[i] = soc.Cycles(r.Intn(40))
	}
	for x := 0; x < w; {
		n := 1 + r.Intn(1+w/4)
		if r.Intn(5) == 0 {
			n = 1 + r.Intn(w) // a forced flat run
		}
		h := pool[r.Intn(len(pool))]
		for ; n > 0 && x < w; n-- {
			a.avail[x] = h
			x++
		}
	}
	a.rebuildSkyline()
}

// randomParetoShape draws a Pareto staircase over widths 1..w (widths
// increasing, times strictly decreasing), often holding a scaled
// equal-diagonal family and sometimes ending in a zero-time shape.
func randomParetoShape(r *rand.Rand, w int) coreShape {
	var pts [][2]int
	if r.Intn(2) == 0 {
		scale := 1 + r.Intn(3)
		for _, p := range equalDiagonals[r.Intn(len(equalDiagonals))] {
			pts = append(pts, [2]int{p[0] * scale, p[1] * scale})
		}
	}
	for i := 1 + r.Intn(5); i > 0; i-- {
		pts = append(pts, [2]int{1 + r.Intn(w), r.Intn(30)})
	}
	if r.Intn(4) == 0 {
		pts = append(pts, [2]int{1 + r.Intn(w), 0})
	}
	slices.SortFunc(pts, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	sh := coreShape{core: r.Intn(1000)}
	for _, p := range pts {
		n := len(sh.widths)
		if p[0] > w || (n > 0 && (p[0] == sh.widths[n-1] || soc.Cycles(p[1]) >= sh.times[n-1])) {
			continue
		}
		sh.widths = append(sh.widths, p[0])
		sh.times = append(sh.times, soc.Cycles(p[1]))
	}
	return sh
}

// TestPlacementShortcutsMatchScan checks both placement shortcuts
// against the scans they skip, on random skylines of 1-130 wires (flat
// runs forced, equal-height runs apart) and random Pareto shape sets
// (equal diagonals, zero-time shapes), at budgets one below, at and one
// above a shape's finish from the floor and from its lowest wide-enough
// run, below the floor and saturated. Whenever a shortcut answers, its
// rectangle must be the scan's; whenever the diagonal shortcut
// declines, the scan's in-budget fit (if any) must strand idle area.
// Under a ceiling neither shortcut may answer.
func TestPlacementShortcutsMatchScan(t *testing.T) {
	cases := 5000
	if testing.Short() {
		cases = 500
	}
	var packAnswered, packDeclined, diagAnswered, diagDeclined int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(130)
		a := newPackArena(w, 0)
		a.beginAttempt(0)
		randomSkyline(r, a)
		sh := randomParetoShape(r, w)
		if len(sh.widths) == 0 {
			return true
		}
		a.flatRuns()
		floor := a.runH[1]
		budgets := []soc.Cycles{floor - 1, math.MaxInt64}
		c := r.Intn(len(sh.widths))
		for _, h := range []soc.Cycles{floor, a.runH[min(sh.widths[c], a.maxRun)]} {
			end := h + sh.times[c]
			budgets = append(budgets, end-1, end, end+1)
		}
		for _, budget := range budgets {
			name := func() string {
				return fmt.Sprintf("seed %d (W=%d, skyline %v, shape %v/%v), budget %d",
					seed, w, a.avail, sh.widths, sh.times, budget)
			}
			if got, ok := a.bestFitShortcut(&sh, budget); ok {
				packAnswered++
				if want := a.bestFitScan(&sh, budget); got != want {
					t.Logf("%s: best-fit shortcut %+v, scan %+v", name(), got, want)
					return false
				}
			} else {
				packDeclined++
			}
			want := a.diagonalScan(&sh, budget)
			if got, ok := a.diagonalShortcut(&sh, budget); ok {
				diagAnswered++
				if got != want {
					t.Logf("%s: diagonal shortcut %+v, scan %+v", name(), got, want)
					return false
				}
			} else {
				diagDeclined++
				// The scan returns an in-budget fit whenever one exists.
				_, waste, _ := a.measure(sh.power, want.Wire, want.Width, want.End-want.Start)
				if want.End <= budget && waste == 0 {
					t.Logf("%s: diagonal shortcut declined, scan fits %+v with no waste", name(), want)
					return false
				}
			}
		}
		a.ceiling = 1
		_, packOK := a.bestFitShortcut(&sh, math.MaxInt64)
		_, diagOK := a.diagonalShortcut(&sh, math.MaxInt64)
		if packOK || diagOK {
			t.Logf("seed %d: a shortcut answered under a ceiling", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: cases}); err != nil {
		t.Fatal(err)
	}
	if packAnswered == 0 || packDeclined == 0 || diagAnswered == 0 || diagDeclined == 0 {
		t.Errorf("uncovered outcome: best fit answered %d declined %d, diagonal answered %d declined %d",
			packAnswered, packDeclined, diagAnswered, diagDeclined)
	}
}

// TestSkylineUpdateMatchesRebuild commits random sequences of bands,
// ones touching either end of the bin and the whole bin among them, on
// bins of 1-130 wires (most not powers of two), and after every commit
// requires the prefix sums and every range-max row to equal a
// from-scratch rebuildSkyline over the same free times.
func TestSkylineUpdateMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, w := range []int{1, 2, 3, 5, 6, 7, 12, 13, 16, 31, 33, 64, 100, 127, 130} {
		a, ref := newPackArena(w, 0), newPackArena(w, 0)
		a.beginAttempt(0)
		for i := 0; i < 300; i++ {
			lo := r.Intn(w)
			hi := lo + 1 + r.Intn(w-lo)
			switch r.Intn(5) {
			case 0:
				lo = 0
			case 1:
				hi = w
			case 2:
				lo, hi = 0, w
			}
			start := a.maxAvail(lo, hi-lo)
			a.commit(Rect{Wire: lo, Width: hi - lo, Start: start, End: start + soc.Cycles(r.Intn(50))})
			copy(ref.avail, a.avail)
			ref.rebuildSkyline()
			if !slices.Equal(a.pref, ref.pref) {
				t.Fatalf("W=%d commit %d on [%d,%d): prefix sums %v, rebuild %v", w, i, lo, hi, a.pref, ref.pref)
			}
			for k := range ref.rmq {
				n := w - (1 << k) + 1
				if !slices.Equal(a.rmq[k][:n], ref.rmq[k][:n]) {
					t.Fatalf("W=%d commit %d on [%d,%d): range-max row %d %v, rebuild %v",
						w, i, lo, hi, k, a.rmq[k][:n], ref.rmq[k][:n])
				}
			}
		}
	}
}
