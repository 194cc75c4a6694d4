package soc

import (
	"fmt"
	"sort"
)

// PowerEvent is one step of a concurrent-power profile: at time At the
// summed test power changes by Delta (positive when a test starts,
// negative when it ends).
type PowerEvent struct {
	At    Cycles
	Delta int
}

// SortPowerEvents orders a profile by time with downward steps first at
// equal times — the invariant every profile consumer relies on so that
// a test starting exactly where another ends never reads as concurrent.
func SortPowerEvents(events []PowerEvent) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Delta < events[j].Delta
	})
}

// PeakConcurrent sorts the events and returns the maximum running power
// sum (at least 0 — an empty profile peaks at nothing).
func PeakConcurrent(events []PowerEvent) int {
	SortPowerEvents(events)
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.Delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// PowerCeiling resolves the peak-power ceiling a run enforces: override
// when positive, else the SOC's own MaxPower, else 0 (unconstrained).
// Every backend resolves its ceiling here, so the engines of one
// portfolio race, their bounds and their results cannot disagree.
func (s *SOC) PowerCeiling(override int) int {
	if override > 0 {
		return override
	}
	return max(s.MaxPower, 0)
}

// CheckPowerCeiling reports the first core whose test power alone
// exceeds the ceiling: no schedule at all could satisfy it. Cores
// without patterns test in zero cycles and cannot breach anything.
func (s *SOC) CheckPowerCeiling(ceiling int) error {
	if ceiling <= 0 {
		return nil
	}
	for i := range s.Cores {
		if p := s.Cores[i].Power; p > ceiling && s.Cores[i].Patterns > 0 {
			return fmt.Errorf("soc: core %d draws %d power units alone, above the ceiling %d", i+1, p, ceiling)
		}
	}
	return nil
}
