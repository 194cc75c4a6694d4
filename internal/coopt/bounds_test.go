package coopt

import (
	"testing"

	"soctam/internal/socdata"
)

func TestLowerBoundSoundOnSmallSOC(t *testing.T) {
	// The exhaustive optimum over all B can never beat the bound.
	s := testSOC()
	for _, w := range []int{4, 8, 12, 16} {
		lb, err := LowerBound(s, w)
		if err != nil {
			t.Fatalf("LowerBound(%d): %v", w, err)
		}
		opt, err := Solve(s, w, Options{MaxTAMs: 4, Strategy: StrategyExhaustive})
		if err != nil {
			t.Fatalf("Solve(exhaustive, %d): %v", w, err)
		}
		if !opt.AssignmentOptimal {
			t.Fatalf("W=%d: exhaustive run not optimal", w)
		}
		if lb > opt.Time {
			t.Errorf("W=%d: lower bound %d exceeds exhaustive optimum %d", w, lb, opt.Time)
		}
		if lb <= 0 {
			t.Errorf("W=%d: non-positive lower bound %d", w, lb)
		}
	}
}

func TestLowerBoundMonotoneInWidth(t *testing.T) {
	// More wires can only lower the bound.
	s := socdata.D695()
	prev, err := LowerBound(s, 1)
	if err != nil {
		t.Fatalf("LowerBound(1): %v", err)
	}
	for w := 2; w <= 64; w++ {
		lb, err := LowerBound(s, w)
		if err != nil {
			t.Fatalf("LowerBound(%d): %v", w, err)
		}
		if lb > prev {
			t.Errorf("LowerBound(%d)=%d > LowerBound(%d)=%d", w, lb, w-1, prev)
		}
		prev = lb
	}
}

func TestLowerBoundTightOnP31108Floor(t *testing.T) {
	// Once p31108's bottleneck core pins the testing time, the achieved
	// optimum must sit close above the bottleneck bound (the paper's
	// "theoretical lower bound on testing time for this SOC").
	s := socdata.P31108()
	lb, err := LowerBound(s, 64)
	if err != nil {
		t.Fatalf("LowerBound: %v", err)
	}
	res, err := Solve(s, 64, Options{MaxTAMs: 8})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Time < lb {
		t.Fatalf("achieved %d below lower bound %d", res.Time, lb)
	}
	if float64(res.Time) > 1.10*float64(lb) {
		t.Errorf("achieved %d more than 10%% above lower bound %d; floor not tight", res.Time, lb)
	}
}

func TestLowerBoundErrors(t *testing.T) {
	s := testSOC()
	if _, err := LowerBound(s, 0); err == nil {
		t.Error("zero width accepted")
	}
}
