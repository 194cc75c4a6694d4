package schedule

import (
	"fmt"
	"sort"

	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Build schedules the SOC's cores on the given architecture: partition
// holds the TAM widths and tamOf the 0-based TAM of every core. TAM j is
// the band of partition[j] wires that starts after TAMs 0..j-1. Its
// cores run back to back from cycle 0, longer tests first (ties by core
// index) — the order does not change the makespan, only the schedule's
// shape. Each core's rectangle is as wide as the wrapper chains it uses
// at its TAM's width, so the wires its wrapper leaves idle stay free.
// The schedule's TotalWidth is the partition's sum; Bound and MaxPower
// stay zero.
func Build(s *soc.SOC, partition []int, tamOf []int) (*pack.Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(tamOf) != len(s.Cores) {
		return nil, fmt.Errorf("schedule: assignment covers %d cores, want %d", len(tamOf), len(s.Cores))
	}
	for _, w := range partition {
		if w < 1 {
			return nil, fmt.Errorf("schedule: TAM width %d < 1", w)
		}
	}
	perTAM := make([][]pack.Rect, len(partition))
	for i := range s.Cores {
		j := tamOf[i]
		if j < 0 || j >= len(partition) {
			return nil, fmt.Errorf("schedule: core %d assigned to TAM %d of %d", i+1, j, len(partition))
		}
		d, err := wrapper.DesignWrapper(&s.Cores[i], partition[j])
		if err != nil {
			return nil, fmt.Errorf("schedule: core %d: %w", i+1, err)
		}
		perTAM[j] = append(perTAM[j], pack.Rect{Core: i, Width: d.UsedWidth(), End: d.Time, Power: s.Cores[i].Power})
	}
	sch := &pack.Schedule{Rects: make([]pack.Rect, 0, len(s.Cores))}
	for j, rects := range perTAM {
		sort.Slice(rects, func(a, b int) bool {
			if rects[a].End != rects[b].End {
				return rects[a].End > rects[b].End
			}
			return rects[a].Core < rects[b].Core
		})
		var clock soc.Cycles
		for _, r := range rects {
			r.Wire, r.Start, r.End = sch.TotalWidth, clock, clock+r.Duration()
			clock = r.End
			sch.Rects = append(sch.Rects, r)
		}
		sch.Makespan = max(sch.Makespan, clock)
		sch.TotalWidth += partition[j]
	}
	sort.Slice(sch.Rects, func(a, b int) bool {
		if sch.Rects[a].Start != sch.Rects[b].Start {
			return sch.Rects[a].Start < sch.Rects[b].Start
		}
		return sch.Rects[a].Wire < sch.Rects[b].Wire
	})
	return sch, nil
}
