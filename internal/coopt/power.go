package coopt

import (
	"fmt"

	"soctam/internal/soc"
)

// powerContext carries the per-core test powers and the peak-power
// ceiling through partition evaluation. A nil context means the SOC has
// no power data and no ceiling: every check passes and every peak is 0.
type powerContext struct {
	powers []int
	// ceiling is the effective peak-power limit; 0 records power peaks
	// without constraining anything.
	ceiling int
}

// newPowerContext resolves the effective ceiling (Options.MaxPower wins
// over the SOC's own MaxPower) and snapshots the core powers. It errors
// when a single testable core draws more than the ceiling alone: no
// schedule at all could satisfy it.
func newPowerContext(s *soc.SOC, opt Options) (*powerContext, error) {
	ceiling := opt.effectiveCeiling(s)
	if err := s.CheckPowerCeiling(ceiling); err != nil {
		return nil, fmt.Errorf("coopt: %w", err)
	}
	anyPower := false
	powers := make([]int, len(s.Cores))
	for i := range s.Cores {
		powers[i] = s.Cores[i].Power
		if powers[i] != 0 {
			anyPower = true
		}
	}
	if !anyPower && ceiling == 0 {
		return nil, nil
	}
	return &powerContext{powers: powers, ceiling: ceiling}, nil
}

// maxPower returns the effective ceiling (0 for a nil context).
func (pc *powerContext) maxPower() int {
	if pc == nil {
		return 0
	}
	return pc.ceiling
}

// constrained reports whether a ceiling is actually enforced.
func (pc *powerContext) constrained() bool { return pc != nil && pc.ceiling > 0 }

// powerScratch holds the reusable buffers of one peak computation. Each
// scan worker owns its own: the scan checks feasibility outside its
// lock, so the scratch must never be shared. The zero value is ready.
type powerScratch struct {
	tests  []powerTest
	starts []int // bucket offsets into tests, one per TAM (+1)
	next   []int // per-TAM fill cursors
	events []soc.PowerEvent
}

// powerTest is one core's test inside the per-TAM serial schedule.
type powerTest struct {
	core int
	dur  soc.Cycles
}

// feasible reports whether the serial-per-TAM schedule implied by the
// assignment keeps its concurrent-power peak within the ceiling. ps may
// be nil for cold-path callers; hot paths pass a goroutine-local
// scratch so the check allocates nothing.
func (pc *powerContext) feasible(tables [][]soc.Cycles, parts []int, tamOf []int, ps *powerScratch) bool {
	if !pc.constrained() {
		return true
	}
	return pc.peak(tables, parts, tamOf, ps) <= pc.ceiling
}

// peak computes the peak concurrent test power of the schedule the
// partition flow implies: cores on one TAM run serially, longest test
// first with ties by core index (exactly schedule.Build's order), and
// the TAMs run in parallel from cycle 0. The per-TAM order is produced
// by a counting sort into ps.tests (stable: cores land in index order)
// followed by an insertion sort per bucket — the same order the former
// sort.SliceStable produced, since the (duration desc, core asc) key is
// a total order.
func (pc *powerContext) peak(tables [][]soc.Cycles, parts []int, tamOf []int, ps *powerScratch) int {
	if pc == nil {
		return 0
	}
	if ps == nil {
		ps = &powerScratch{}
	}
	nb := len(parts)
	ps.starts = growInts(ps.starts, nb+1)
	for j := range ps.starts {
		ps.starts[j] = 0
	}
	for _, j := range tamOf {
		ps.starts[j+1]++
	}
	for j := 1; j <= nb; j++ {
		ps.starts[j] += ps.starts[j-1]
	}
	ps.next = growInts(ps.next, nb)
	copy(ps.next, ps.starts[:nb])
	if cap(ps.tests) < len(tamOf) {
		ps.tests = make([]powerTest, len(tamOf))
	} else {
		ps.tests = ps.tests[:len(tamOf)]
	}
	for i, j := range tamOf {
		ps.tests[ps.next[j]] = powerTest{core: i, dur: tables[i][parts[j]-1]}
		ps.next[j]++
	}
	ps.events = ps.events[:0]
	for j := 0; j < nb; j++ {
		bucket := ps.tests[ps.starts[j]:ps.starts[j+1]]
		sortPowerTests(bucket)
		var clock soc.Cycles
		for _, ct := range bucket {
			if p := pc.powers[ct.core]; p != 0 && ct.dur > 0 {
				ps.events = append(ps.events,
					soc.PowerEvent{At: clock, Delta: p},
					soc.PowerEvent{At: clock + ct.dur, Delta: -p})
			}
			clock += ct.dur
		}
	}
	return peakEvents(ps.events)
}

// growInts returns s resized to n, reallocating only when capacity is
// short; contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// sortPowerTests orders one TAM's tests longest first, ties by core
// index — a total order, so this insertion sort reproduces the former
// stable sort exactly without its allocations.
func sortPowerTests(tests []powerTest) {
	for i := 1; i < len(tests); i++ {
		for j := i; j > 0; j-- {
			a, b := &tests[j], &tests[j-1]
			if a.dur > b.dur || (a.dur == b.dur && a.core < b.core) {
				*a, *b = *b, *a
				continue
			}
			break
		}
	}
}

// peakEvents returns the maximum running power sum of the events — what
// soc.PeakConcurrent computes, but sorting in place with an insertion
// sort (the lists are a few dozen events) so the hot path allocates
// nothing. Events tied on both time and delta are interchangeable, so
// the running maximum is order-independent among them.
func peakEvents(events []soc.PowerEvent) int {
	for i := 1; i < len(events); i++ {
		for j := i; j > 0; j-- {
			a, b := &events[j], &events[j-1]
			if a.At < b.At || (a.At == b.At && a.Delta < b.Delta) {
				*a, *b = *b, *a
				continue
			}
			break
		}
	}
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.Delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
