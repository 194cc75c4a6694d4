package soctam_test

import (
	"bytes"
	"strings"
	"testing"

	"soctam"
	"soctam/internal/coopt"
	"soctam/internal/experiments"
	"soctam/internal/schedule"
)

// TestD695HeuristicNeverBeatsExhaustive sweeps d695 across the paper's
// widths for B=2 and B=3 and checks the fundamental relation of every
// comparison table: the heuristic is never below the exhaustive optimum
// and stays within the paper-like margin above it.
func TestD695HeuristicNeverBeatsExhaustive(t *testing.T) {
	s := soctam.D695()
	for _, b := range []int{2, 3} {
		for _, w := range []int{16, 24, 32, 40, 48, 56, 64} {
			exh, err := soctam.Exhaustive(s, w, b, soctam.Options{})
			if err != nil {
				t.Fatalf("Exhaustive(W=%d,B=%d): %v", w, b, err)
			}
			if !exh.AssignmentOptimal {
				t.Fatalf("W=%d B=%d: exhaustive d695 run not optimal", w, b)
			}
			heur, err := soctam.CoOptimizeFixedTAMs(s, w, b, soctam.Options{})
			if err != nil {
				t.Fatalf("CoOptimizeFixedTAMs(W=%d,B=%d): %v", w, b, err)
			}
			if heur.Time < exh.Time {
				t.Errorf("W=%d B=%d: heuristic %d beats optimum %d", w, b, heur.Time, exh.Time)
			}
			if float64(heur.Time) > 1.20*float64(exh.Time) {
				t.Errorf("W=%d B=%d: heuristic %d more than 20%% above optimum %d",
					w, b, heur.Time, exh.Time)
			}
		}
	}
}

// TestLowerBoundHoldsOnAllBenchmarks checks the architecture-independent
// bound against the full co-optimization flow on every benchmark SOC.
func TestLowerBoundHoldsOnAllBenchmarks(t *testing.T) {
	for name, get := range map[string]func() *soctam.SOC{
		"d695": soctam.D695, "p21241": soctam.P21241,
		"p31108": soctam.P31108, "p93791": soctam.P93791,
	} {
		s := get()
		for _, w := range []int{16, 32, 64} {
			lb, err := soctam.LowerBound(s, w)
			if err != nil {
				t.Fatalf("%s: LowerBound(%d): %v", name, w, err)
			}
			res, err := soctam.Solve(s, w, soctam.Options{MaxTAMs: 6})
			if err != nil {
				t.Fatalf("%s: Solve(%d): %v", name, w, err)
			}
			if res.Time < lb {
				t.Errorf("%s W=%d: achieved %d below lower bound %d", name, w, res.Time, lb)
			}
		}
	}
}

// TestScheduleConsistentWithResult closes the loop: a co-optimization
// result must validate against its SOC, its schedule reproducing the
// result's testing time exactly, for every benchmark SOC.
func TestScheduleConsistentWithResult(t *testing.T) {
	for name, get := range map[string]func() *soctam.SOC{
		"d695": soctam.D695, "p31108": soctam.P31108,
	} {
		s := get()
		res, err := soctam.Solve(s, 24, soctam.Options{MaxTAMs: 4})
		if err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		if err := coopt.Validate(s, 24, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		sch, err := soctam.BuildSchedule(s, res.Partition, res.Assignment.TAMOf)
		if err != nil {
			t.Fatalf("%s: BuildSchedule: %v", name, err)
		}
		if sch.BusyFraction() <= 0.3 {
			t.Errorf("%s: co-optimized architecture only %.0f%% busy", name, 100*sch.BusyFraction())
		}
	}
}

// TestPartitionedBeatsSingleBus pins the paper's Section 1 motivation
// quantitatively on d695: the co-optimized architecture must beat the
// single test bus in both testing time and wire utilization.
func TestPartitionedBeatsSingleBus(t *testing.T) {
	s := soctam.D695()
	const w = 32
	single, err := soctam.CoOptimizeFixedTAMs(s, w, 1, soctam.Options{})
	if err != nil {
		t.Fatalf("single bus: %v", err)
	}
	multi, err := soctam.Solve(s, w, soctam.Options{})
	if err != nil {
		t.Fatalf("co-optimized: %v", err)
	}
	if multi.Time >= single.Time {
		t.Fatalf("multi-TAM %d not better than single bus %d", multi.Time, single.Time)
	}
	busy := func(res soctam.Result) float64 {
		sch, err := schedule.Build(s, res.Partition, res.Assignment.TAMOf)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return sch.BusyFraction()
	}
	if bs, bm := busy(single), busy(multi); bm <= bs {
		t.Errorf("multi-TAM utilization %.2f not above single-bus %.2f", bm, bs)
	}
}

// TestRunAllQuick drives the whole experiment registry end to end into a
// buffer (the cmd/tables code path) with reduced parameters.
func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	opt := experiments.Options{Widths: []int{16}, MaxTAMs: 3, NodeLimit: 100_000}
	if err := experiments.RunAll(opt, &buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"==== figure2 ====", "==== table1 ====", "==== table19 ====",
		"==== power ====", "Power sweep",
		"Table 2(a)", "Table 13", "ranges in test data",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

// TestAnomalyReproduction pins the paper's Section 4.2 observation on
// our p21241: the partition Partition_evaluate returns is not always the
// one with the lowest testing time after exact optimization, but the
// final step may only improve its own partition's time.
func TestAnomalyReproduction(t *testing.T) {
	s := soctam.P21241()
	res, err := coopt.Solve(s, 40, coopt.Options{MaxTAMs: 10})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Time > res.HeuristicTime {
		t.Errorf("final step worsened the heuristic: %d -> %d", res.HeuristicTime, res.Time)
	}
	if res.Time == res.HeuristicTime {
		t.Skip("final step closed no gap at this width; anomaly not observable")
	}
	// The gap the exact step closed is the anomaly margin the paper
	// discusses; it must be material but bounded.
	gap := float64(res.HeuristicTime-res.Time) / float64(res.Time)
	if gap > 0.5 {
		t.Errorf("implausible final-step gap %.1f%%", 100*gap)
	}
}
