package coopt

import (
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestBenchmarkSweepShapes runs the full P_NPAW width sweep on every
// benchmark SOC and asserts the qualitative behaviour the paper reports:
// testing time never increases with total TAM width, and p31108 reaches a
// floor (its bottleneck core's wrapper staircase) before the widest sweep
// point while the other SOCs keep improving.
func TestBenchmarkSweepShapes(t *testing.T) {
	widths := []int{16, 24, 32, 40, 48, 56, 64}
	sweep := func(name string, s *soc.SOC) []soc.Cycles {
		t.Helper()
		times := make([]soc.Cycles, 0, len(widths))
		for _, w := range widths {
			res, err := Solve(s, w, Options{MaxTAMs: 10})
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			t.Logf("%s W=%2d: B=%d partition=%v T=%d (heuristic %d) in %s",
				name, w, res.NumTAMs, res.Partition, res.Time, res.HeuristicTime, res.Elapsed)
			times = append(times, res.Time)
		}
		for i := 1; i < len(times); i++ {
			if times[i] > times[i-1] {
				t.Errorf("%s: T(W=%d)=%d worse than T(W=%d)=%d",
					name, widths[i], times[i], widths[i-1], times[i-1])
			}
		}
		return times
	}

	d695 := sweep("d695", socdata.D695())
	p21241 := sweep("p21241", socdata.P21241())
	p31108 := sweep("p31108", socdata.P31108())
	p93791 := sweep("p93791", socdata.P93791())

	// d695, p21241 and p93791 keep improving over the sweep (at least 3x
	// total reduction in the paper); p31108 flattens.
	for _, tc := range []struct {
		name  string
		times []soc.Cycles
	}{{"d695", d695}, {"p21241", p21241}, {"p93791", p93791}} {
		if ratio := float64(tc.times[0]) / float64(tc.times[len(tc.times)-1]); ratio < 2.5 {
			t.Errorf("%s: only %.2fx reduction from W=16 to W=64, want >= 2.5x", tc.name, ratio)
		}
	}
	n := len(p31108)
	if p31108[n-1] != p31108[n-2] {
		t.Errorf("p31108: no floor at the top of the sweep: %v", p31108)
	}

	// d695's absolute testing times must be close to the paper's
	// published values (the core data is public): the paper reports
	// 42644 cycles at W=16 and 12941 at W=64 (both for B <= 6).
	if d695[0] < 40000 || d695[0] > 46000 {
		t.Errorf("d695 T(16) = %d, want within ~5%% of the paper's 42644", d695[0])
	}
	if d695[len(d695)-1] > 13500 {
		t.Errorf("d695 T(64) = %d, want <= the paper's 12941 ballpark", d695[len(d695)-1])
	}
}
