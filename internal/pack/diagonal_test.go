package pack_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/pack"
	"soctam/internal/socdata"
)

// TestPackDiagonalValid checks the diagonal packer's placement validity
// on both SOCs across widths, and that its makespan respects the one
// lower bound, coopt.LowerBound's.
func TestPackDiagonalValid(t *testing.T) {
	for _, tc := range []struct {
		name   string
		widths []int
	}{
		{"mini", []int{1, 2, 3, 8, 16, 24}},
		{"d695", []int{16, 32, 48, 64}},
	} {
		s := miniSOC()
		if tc.name == "d695" {
			s = socdata.D695()
		}
		for _, w := range tc.widths {
			sch, err := pack.PackDiagonal(s, w, pack.Options{})
			if err != nil {
				t.Fatalf("%s W=%d: %v", tc.name, w, err)
			}
			if err := sch.Validate(len(s.Cores)); err != nil {
				t.Errorf("%s W=%d: invalid schedule: %v", tc.name, w, err)
			}
			lb, err := coopt.LowerBound(s, w)
			if err != nil {
				t.Fatalf("%s W=%d: LowerBound: %v", tc.name, w, err)
			}
			if sch.Bound != lb {
				t.Errorf("%s W=%d: schedule bound %d, LowerBound %d", tc.name, w, sch.Bound, lb)
			}
			if sch.Makespan < lb {
				t.Errorf("%s W=%d: makespan %d below lower bound %d", tc.name, w, sch.Makespan, lb)
			}
		}
	}
}

// TestPackDiagonalDeterministic pins that the diagonal packer has no
// hidden randomness.
func TestPackDiagonalDeterministic(t *testing.T) {
	s := socdata.D695()
	a, err := pack.PackDiagonal(s, 32, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pack.PackDiagonal(s, 32, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("PackDiagonal is not deterministic")
	}
}

// TestPackDiagonalCompetitive keeps the diagonal heuristic honest: on
// d695 at every paper width it stays within 15% of the budgeted-best-fit
// packer. (Neither dominates the other — that is the portfolio's point.)
func TestPackDiagonalCompetitive(t *testing.T) {
	s := socdata.D695()
	for _, w := range []int{16, 24, 32, 40, 48, 56, 64} {
		bf, err := pack.Pack(s, w, pack.Options{})
		if err != nil {
			t.Fatalf("Pack W=%d: %v", w, err)
		}
		diag, err := pack.PackDiagonal(s, w, pack.Options{})
		if err != nil {
			t.Fatalf("PackDiagonal W=%d: %v", w, err)
		}
		if float64(diag.Makespan) > 1.15*float64(bf.Makespan) {
			t.Errorf("W=%d: diagonal %d more than 15%% above best-fit %d", w, diag.Makespan, bf.Makespan)
		}
	}
}

// TestPackDiagonalPowerConstrained checks the diagonal packer under a
// peak-power ceiling: the schedule validates (which enforces the
// ceiling) and tightening the ceiling never shortens the makespan.
func TestPackDiagonalPowerConstrained(t *testing.T) {
	s := socdata.D695() // carries literature per-core power figures
	free, err := pack.PackDiagonal(s, 32, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := free.Makespan
	for _, ceiling := range []int{2200, 1500, 1200} {
		sch, err := pack.PackDiagonal(s, 32, pack.Options{MaxPower: ceiling})
		if err != nil {
			t.Fatalf("ceiling %d: %v", ceiling, err)
		}
		if err := sch.Validate(len(s.Cores)); err != nil {
			t.Errorf("ceiling %d: invalid schedule: %v", ceiling, err)
		}
		if sch.MaxPower != ceiling {
			t.Errorf("ceiling %d: schedule records MaxPower %d", ceiling, sch.MaxPower)
		}
		if sch.Makespan < prev {
			t.Errorf("ceiling %d: makespan %d shorter than looser ceiling's %d", ceiling, sch.Makespan, prev)
		}
		prev = sch.Makespan
	}
}

// TestPackDiagonalGantt smokes the wire-band rendering of a diagonal
// schedule: every wire row present and the makespan reported.
func TestPackDiagonalGantt(t *testing.T) {
	s := socdata.D695()
	sch, err := pack.PackDiagonal(s, 16, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chart := sch.Gantt(72, func(core int) string { return s.Cores[core].Name })
	for wire := 0; wire < 16; wire++ {
		if !strings.Contains(chart, fmt.Sprintf("wire %2d |", wire)) {
			t.Errorf("chart missing wire %d row", wire)
		}
	}
	if !strings.Contains(chart, fmt.Sprintf("makespan: %d cycles", sch.Makespan)) {
		t.Error("chart missing makespan line")
	}
}

// TestPackContextCancelled pins that both packers honor an
// already-cancelled context.
func TestPackContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := socdata.D695()
	if _, err := pack.PackContext(ctx, s, 32, pack.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("PackContext on cancelled ctx: err = %v", err)
	}
	if _, err := pack.PackDiagonalContext(ctx, s, 32, pack.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("PackDiagonalContext on cancelled ctx: err = %v", err)
	}
}
