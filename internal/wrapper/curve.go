package wrapper

import (
	"fmt"
	"sort"

	"soctam/internal/soc"
)

// This file implements the memoized wrapper curve: each core's complete
// width -> testing-time staircase T(w) plus its Pareto widths, computed
// once and then served as table lookups. Partition scoring evaluates
// hundreds of thousands of width partitions and the packers sweep dozens
// of budgets over the same SOC; both only ever need T(w) values, so
// re-running Design_wrapper's balancing inside those loops is pure
// waste. A Curve is immutable after construction and safe for
// concurrent readers. See ARCHITECTURE.md §12.

// Curve is one core's memoized wrapper curve over widths 1..MaxWidth:
// the non-increasing testing-time staircase T(w) and the Pareto widths
// at which it strictly steps down. The values are bit-for-bit those of
// TimeTable and ParetoWidths; only the computation is shared.
type Curve struct {
	table  []soc.Cycles
	pareto []int
}

// NewCurve computes the wrapper curve of core c for widths 1..maxWidth.
func NewCurve(c *soc.Core, maxWidth int) (*Curve, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("wrapper: max width %d < 1", maxWidth)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cv := &Curve{}
	initCurve(cv, c, maxWidth, sortedChainsDesc(c), make([]int, 2*maxWidth))
	return cv, nil
}

// initCurve fills cv for core c using chainsDesc (the core's scan chains
// sorted decreasing) and scratch (balancing scratch, len >= 2·maxWidth)
// — the allocation-shared kernel behind NewCurve and Curves.
func initCurve(cv *Curve, c *soc.Core, maxWidth int, chainsDesc, scratch []int) {
	cv.table = make([]soc.Cycles, maxWidth)
	fillTable(c, chainsDesc, cv.table, scratch)
	n := 0
	for w := 1; w <= maxWidth; w++ {
		if w == 1 || cv.table[w-1] < cv.table[w-2] {
			n++
		}
	}
	cv.pareto = make([]int, 0, n)
	for w := 1; w <= maxWidth; w++ {
		if w == 1 || cv.table[w-1] < cv.table[w-2] {
			cv.pareto = append(cv.pareto, w)
		}
	}
}

// MaxWidth returns the largest width the curve covers.
func (cv *Curve) MaxWidth() int { return len(cv.table) }

// Time returns T(w), the core's testing time at TAM width w. It panics
// when w is outside 1..MaxWidth.
func (cv *Curve) Time(w int) soc.Cycles { return cv.table[w-1] }

// Table returns the full staircase, indexed as table[w-1] = T(w). The
// slice is the curve's own backing store: callers must treat it as
// read-only.
func (cv *Curve) Table() []soc.Cycles { return cv.table }

// Pareto returns the widths in 1..MaxWidth at which T strictly improves
// on T(w-1), increasing — the only widths worth offering the core. The
// slice is the curve's own backing store: callers must treat it as
// read-only.
func (cv *Curve) Pareto() []int { return cv.pareto }

// ParetoUpTo returns the Pareto widths not exceeding maxWidth — the
// prefix of Pareto, since whether T steps down at w never depends on
// the widths beyond it. The result aliases the curve's backing store.
func (cv *Curve) ParetoUpTo(maxWidth int) []int {
	i := sort.SearchInts(cv.pareto, maxWidth+1)
	return cv.pareto[:i]
}

// CurveSet is the memoized wrapper curves of every core of one SOC —
// the per-solve precomputation every co-optimization backend can share.
// Immutable after construction and safe for concurrent readers.
type CurveSet struct {
	curves []Curve
	tables [][]soc.Cycles
}

// Curves computes the wrapper curve of every core of s for widths
// 1..maxWidth.
func Curves(s *soc.SOC, maxWidth int) (*CurveSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if maxWidth < 1 {
		return nil, fmt.Errorf("wrapper: max width %d < 1", maxWidth)
	}
	cs := &CurveSet{
		curves: make([]Curve, len(s.Cores)),
		tables: make([][]soc.Cycles, len(s.Cores)),
	}
	scratch := make([]int, 2*maxWidth)
	var chains []int
	for i := range s.Cores {
		chains = sortedChainsInto(&s.Cores[i], chains)
		initCurve(&cs.curves[i], &s.Cores[i], maxWidth, chains, scratch)
		cs.tables[i] = cs.curves[i].table
	}
	return cs, nil
}

// NumCores returns the number of cores the set covers.
func (cs *CurveSet) NumCores() int { return len(cs.curves) }

// MaxWidth returns the largest width every curve of the set covers.
func (cs *CurveSet) MaxWidth() int {
	if len(cs.curves) == 0 {
		return 0
	}
	return cs.curves[0].MaxWidth()
}

// Core returns core i's curve.
func (cs *CurveSet) Core(i int) *Curve { return &cs.curves[i] }

// Tables returns every core's staircase ([i][w-1] = T_i(w)) — the
// [][]soc.Cycles form the partition flow consumes. The rows alias the
// curves' backing stores: callers must treat them as read-only.
func (cs *CurveSet) Tables() [][]soc.Cycles { return cs.tables }
