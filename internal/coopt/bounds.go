package coopt

import (
	"soctam/internal/pack"
	"soctam/internal/soc"
)

// LowerBound returns the architecture-independent lower bound on the
// SOC testing time for a total TAM width W under the SOC's own power
// ceiling: no TAM count, width partition, assignment or wrapper design
// can beat it. It is pack.LowerBound, the one bound every backend's
// Result.Gap and Proven are graded against; a run whose
// Options.MaxPower overrides the SOC's ceiling is graded against the
// bound under that override.
func LowerBound(s *soc.SOC, width int) (soc.Cycles, error) {
	tables, err := TimeTables(s, width)
	if err != nil {
		return 0, err
	}
	return pack.LowerBound(s, tables, width, s.PowerCeiling(0)), nil
}

// gapOf is the relative optimality gap Result.Gap reports: how far a
// testing time sits above the lower bound, as a fraction of the bound.
// Attaining (or beating — impossible for a correct bound, but float
// hygiene costs nothing) the bound is gap 0; a degenerate zero bound is
// floored at one cycle so the division is always defined.
func gapOf(t, lb soc.Cycles) float64 {
	if t <= lb {
		return 0
	}
	if lb < 1 {
		lb = 1
	}
	return float64(t-lb) / float64(lb)
}

// grade sets the result's Gap against the lower bound lb and its
// Proven claim. Attaining the bound proves the answer. So does an exact
// engine's scan (exact: every partition's exact solve proven) that ran
// to completion and dropped no partition for power: a dropped
// partition's time-optimal assignment would have beaten the incumbent
// but breached the ceiling, and a slower assignment of it that meets
// the ceiling may still beat the answer.
func (r *Result) grade(lb soc.Cycles, exact bool) {
	r.Gap = gapOf(r.Time, lb)
	r.Proven = r.Gap == 0 || exact && !r.Truncated && r.Stats.PowerInfeasible == 0
}
