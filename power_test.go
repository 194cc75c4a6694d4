package soctam_test

import (
	"testing"

	"soctam"
	"soctam/internal/coopt"
)

// d695Unconstrained pins today's d695 results (the EXPERIMENTS.md
// tables) so that the power machinery, when disabled, provably changes
// nothing: with MaxPower 0 both backends must reproduce these values
// bit for bit even though every d695 core now carries power data.
var d695Unconstrained = []struct {
	width     int
	partition soctam.Cycles
	packing   soctam.Cycles
}{
	{16, 42787, 42787},
	{32, 21566, 21616},
	{64, 11034, 11309},
}

// TestUnconstrainedReproducesBaselineD695 is the satellite property
// test: MaxPower = 0 (explicitly set and by default) reproduces the
// pre-power partition and packing results exactly on d695.
func TestUnconstrainedReproducesBaselineD695(t *testing.T) {
	s := soctam.D695()
	for _, tc := range d695Unconstrained {
		for _, opt := range []soctam.Options{
			{Workers: 1},
			{Workers: 1, MaxPower: 0},
		} {
			part, err := soctam.Solve(s, tc.width, opt)
			if err != nil {
				t.Fatalf("Solve partition W=%d: %v", tc.width, err)
			}
			if part.Time != tc.partition {
				t.Errorf("partition W=%d: time %d, want baseline %d", tc.width, part.Time, tc.partition)
			}
			if part.MaxPower != 0 {
				t.Errorf("partition W=%d: effective ceiling %d, want 0", tc.width, part.MaxPower)
			}
			opt.Strategy = soctam.StrategyPacking
			packed, err := soctam.Solve(s, tc.width, opt)
			if err != nil {
				t.Fatalf("Solve packing W=%d: %v", tc.width, err)
			}
			if packed.Time != tc.packing {
				t.Errorf("packing W=%d: time %d, want baseline %d", tc.width, packed.Time, tc.packing)
			}
		}
	}
}

// TestPowerConstrainedD695 checks the ceiling end to end on both
// backends: every returned schedule's peak concurrent power stays
// within the ceiling (asserted both by the Result and by re-validating
// the underlying schedule), and tightening the ceiling never speeds the
// SOC up.
func TestPowerConstrainedD695(t *testing.T) {
	s := soctam.D695()
	for _, w := range []int{16, 32, 64} {
		for _, strategy := range []soctam.Strategy{soctam.StrategyPartition, soctam.StrategyPacking} {
			prev := soctam.Cycles(0)
			for _, pmax := range []int{0, 2500, 1800, 1200} {
				res, err := soctam.Solve(s, w, soctam.Options{Workers: 1, MaxPower: pmax, Strategy: strategy})
				if err != nil {
					t.Fatalf("%v W=%d Pmax=%d: %v", strategy, w, pmax, err)
				}
				if pmax > 0 && res.PeakPower > pmax {
					t.Errorf("%v W=%d Pmax=%d: peak power %d above ceiling", strategy, w, pmax, res.PeakPower)
				}
				if res.MaxPower != pmax {
					t.Errorf("%v W=%d: effective ceiling %d, want %d", strategy, w, res.MaxPower, pmax)
				}
				if res.PeakPower <= 0 {
					t.Errorf("%v W=%d Pmax=%d: no peak power reported on a powered SOC", strategy, w, pmax)
				}
				if err := coopt.Validate(s, w, res); err != nil {
					t.Errorf("%v W=%d Pmax=%d: %v", strategy, w, pmax, err)
				}
				// Ceilings tighten monotonically after the unconstrained
				// run: a smaller power budget can never test faster.
				if prev != 0 && res.Time < prev {
					t.Errorf("%v W=%d Pmax=%d: time %d faster than looser ceiling's %d", strategy, w, pmax, res.Time, prev)
				}
				if pmax > 0 {
					prev = res.Time
				}
			}
		}
	}
}

// TestPowerCeilingFromSOC checks the fallback: a ceiling recorded on
// the SOC itself (the .soc maxpower attribute) constrains a run with no
// Options.MaxPower.
func TestPowerCeilingFromSOC(t *testing.T) {
	s := soctam.D695()
	s.MaxPower = 1800
	for _, strategy := range []soctam.Strategy{soctam.StrategyPartition, soctam.StrategyPacking} {
		res, err := soctam.Solve(s, 32, soctam.Options{Workers: 1, Strategy: strategy})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if res.MaxPower != 1800 {
			t.Errorf("%v: effective ceiling %d, want the SOC's 1800", strategy, res.MaxPower)
		}
		if res.PeakPower > 1800 {
			t.Errorf("%v: peak power %d above the SOC ceiling", strategy, res.PeakPower)
		}
	}
}

// TestPowerInfeasibleCore checks the up-front rejection: a ceiling no
// single core fits under cannot be scheduled at all.
func TestPowerInfeasibleCore(t *testing.T) {
	s := soctam.D695() // s38417 draws 1144 power units
	for _, strategy := range []soctam.Strategy{soctam.StrategyPartition, soctam.StrategyPacking} {
		if _, err := soctam.Solve(s, 32, soctam.Options{Workers: 1, MaxPower: 1000, Strategy: strategy}); err == nil {
			t.Errorf("%v: ceiling below a single core's power accepted", strategy)
		}
	}
}
