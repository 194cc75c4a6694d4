package coopt

import (
	"fmt"

	"soctam/internal/assign"
	"soctam/internal/pack"
	"soctam/internal/schedule"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Validate checks a Result of any engine against the SOC and width it
// answers. A fixed-TAM answer's assignment must validate against its
// partition's instance, and its schedule is the one schedule.Build
// derives; a packing answer's schedule is Result.Packing. Either way
// the schedule must place every core once, inside the width, with no
// two tests overlapping and each lasting its core's testing time at its
// rectangle's width; its makespan must be Time and its peak power
// PeakPower, within MaxPower when a ceiling is set; and Time may not
// beat pack.LowerBound under that ceiling. Every test length comes from
// wrapper.Time on the SOC itself, not from the memoized curves the
// engines read; only the lower bound reads those.
func Validate(s *soc.SOC, width int, res Result) error {
	sch := res.Packing
	if sch == nil {
		in, err := assign.NewInstance(s, res.Partition)
		if err != nil {
			return err
		}
		if err := res.Assignment.Validate(in); err != nil {
			return err
		}
		if sch, err = schedule.Build(s, res.Partition, res.Assignment.TAMOf); err != nil {
			return err
		}
	}
	if sch.TotalWidth > width {
		return fmt.Errorf("coopt: the architecture uses %d wires of %d", sch.TotalWidth, width)
	}
	if err := sch.Validate(len(s.Cores)); err != nil {
		return err
	}
	for i := range sch.Rects {
		r := &sch.Rects[i]
		t, err := wrapper.Time(&s.Cores[r.Core], r.Width)
		if err != nil {
			return err
		}
		if r.Duration() != t {
			return fmt.Errorf("coopt: core %d lasts %d cycles on %d wires, its wrapper takes %d", r.Core+1, r.Duration(), r.Width, t)
		}
	}
	if sch.Makespan != res.Time {
		return fmt.Errorf("coopt: time %d, the schedule ends at %d", res.Time, sch.Makespan)
	}
	peak := sch.PeakPower()
	if peak != res.PeakPower {
		return fmt.Errorf("coopt: peak power %d, the schedule peaks at %d", res.PeakPower, peak)
	}
	if res.MaxPower > 0 && peak > res.MaxPower {
		return fmt.Errorf("coopt: peak power %d over the ceiling %d", peak, res.MaxPower)
	}
	tables, err := TimeTables(s, width)
	if err != nil {
		return err
	}
	if lb := pack.LowerBound(s, tables, width, res.MaxPower); res.Time < lb {
		return fmt.Errorf("coopt: time %d below the lower bound %d", res.Time, lb)
	}
	return nil
}
