package coopt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// paperWidths are the total TAM widths of the paper's evaluation.
var paperWidths = []int{16, 24, 32, 40, 48, 56, 64}

// singleTimes runs the three single backends standalone and returns
// their testing times in strategy order.
func singleTimes(t *testing.T, s *soc.SOC, w int, opt Options) [3]soc.Cycles {
	t.Helper()
	var out [3]soc.Cycles
	for i, strat := range []Strategy{StrategyPartition, StrategyPacking, StrategyDiagonal} {
		o := opt
		o.Strategy = strat
		res, err := Solve(s, w, o)
		if err != nil {
			t.Fatalf("%s W=%d: %v", strat, w, err)
		}
		out[i] = res.Time
	}
	return out
}

// TestPortfolioNeverWorseThanSingles is the acceptance check: on every
// benchmark SOC at every paper width the portfolio's testing time is at
// most the best of the three single backends, and identical at any
// Workers setting. (In -short mode only the two smaller SOCs run.)
func TestPortfolioNeverWorseThanSingles(t *testing.T) {
	socs := map[string]*soc.SOC{"d695": socdata.D695(), "p21241": socdata.P21241()}
	if !testing.Short() {
		socs["p31108"] = socdata.P31108()
		socs["p93791"] = socdata.P93791()
	}
	for name, s := range socs {
		for _, w := range paperWidths {
			singles := singleTimes(t, s, w, Options{})
			best := singles[0]
			for _, v := range singles[1:] {
				if v < best {
					best = v
				}
			}
			var ref Result
			for i, workers := range []int{1, 4} {
				res, err := Solve(s, w, Options{Strategy: StrategyPortfolio, Workers: workers})
				if err != nil {
					t.Fatalf("%s W=%d workers=%d: %v", name, w, workers, err)
				}
				if res.Time > best {
					t.Errorf("%s W=%d: portfolio %d worse than best single %d (singles %v)",
						name, w, res.Time, best, singles)
				}
				if res.Time != best {
					t.Errorf("%s W=%d: portfolio %d != min of singles %d", name, w, res.Time, best)
				}
				if i == 0 {
					ref = res
				} else {
					if res.Time != ref.Time || res.Strategy != ref.Strategy {
						t.Errorf("%s W=%d: workers=%d winner (%s, %d) differs from workers=1 (%s, %d)",
							name, w, workers, res.Strategy, res.Time, ref.Strategy, ref.Time)
					}
					if !reflect.DeepEqual(res.Partition, ref.Partition) {
						t.Errorf("%s W=%d: winning partition differs across worker counts", name, w)
					}
				}
			}
		}
	}
}

// TestPortfolioAttribution checks the per-backend accounting: three
// entries in strategy order, exactly one winner, and the winner's time
// and strategy mirrored in the Result.
func TestPortfolioAttribution(t *testing.T) {
	s := socdata.D695()
	res, err := Solve(s, 32, Options{Strategy: StrategyPortfolio})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Portfolio) != 3 {
		t.Fatalf("portfolio has %d entries, want 3", len(res.Portfolio))
	}
	want := []Strategy{StrategyPartition, StrategyPacking, StrategyDiagonal}
	winners := 0
	for i, run := range res.Portfolio {
		if run.Strategy != want[i] {
			t.Errorf("entry %d is %s, want %s", i, run.Strategy, want[i])
		}
		if run.Winner {
			winners++
			if run.Time != res.Time {
				t.Errorf("winner time %d != result time %d", run.Time, res.Time)
			}
			if run.Strategy != res.Strategy {
				t.Errorf("winner strategy %s != result strategy %s", run.Strategy, res.Strategy)
			}
		}
		if run.Err == "" && !run.Cancelled && run.Time == 0 {
			t.Errorf("entry %d (%s): completed with zero time", i, run.Strategy)
		}
		if run.Elapsed <= 0 {
			t.Errorf("entry %d (%s): no elapsed time recorded", i, run.Strategy)
		}
	}
	if winners != 1 {
		t.Errorf("%d winners, want exactly 1", winners)
	}
	// The winning architecture must be intact: either a packing schedule
	// or a partition+assignment.
	if res.Packing == nil && res.Partition == nil {
		t.Error("winner carries neither a packing nor a partition")
	}
}

// TestPortfolioTieBreak forces a tie: at W=1 every backend serializes
// all tests on the single wire, so all three achieve the same time and
// the fixed strategy order must hand the win to the partition flow.
func TestPortfolioTieBreak(t *testing.T) {
	s := socdata.D695()
	res, err := Solve(s, 1, Options{Strategy: StrategyPortfolio})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Portfolio {
		if run.Err == "" && !run.Cancelled && run.Time != res.Time {
			t.Fatalf("W=1 not a three-way tie: %s got %d, result %d", run.Strategy, run.Time, res.Time)
		}
	}
	if res.Strategy != StrategyPartition {
		t.Errorf("tie went to %s, want partition (fixed strategy order)", res.Strategy)
	}
}

// TestPortfolioPowerCeiling checks that the ceiling reaches every racer
// and the winning architecture respects it.
func TestPortfolioPowerCeiling(t *testing.T) {
	s := socdata.D695()
	const ceiling = 1800
	res, err := Solve(s, 32, Options{Strategy: StrategyPortfolio, MaxPower: ceiling})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPower != ceiling {
		t.Errorf("result records ceiling %d, want %d", res.MaxPower, ceiling)
	}
	if res.PeakPower > ceiling {
		t.Errorf("winner peak power %d breaches ceiling %d", res.PeakPower, ceiling)
	}
	free, err := Solve(s, 32, Options{Strategy: StrategyPortfolio})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < free.Time {
		t.Errorf("constrained portfolio %d beats unconstrained %d", res.Time, free.Time)
	}
}

// TestCoOptimizeCancellation pins that a cancelled context stops both
// partition-evaluation paths with context.Canceled.
func TestCoOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := socdata.D695()
	for _, workers := range []int{1, 4} {
		_, err := SolveContext(ctx, s, 32, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled partition solve returned %v, want context.Canceled", workers, err)
		}
	}
}

// TestIncumbentEncoding exercises the atomic incumbent's lexicographic
// (time, order) minimum and its saturation guard.
func TestIncumbentEncoding(t *testing.T) {
	in := newIncumbent()
	if in.beats(100, 0) {
		t.Error("empty incumbent beats something")
	}
	in.offer(100, 2)
	if !in.beats(100, 3) {
		t.Error("(100,2) should beat (100,3)")
	}
	if in.beats(100, 1) {
		t.Error("(100,2) must not beat (100,1)")
	}
	if in.beats(99, 3) {
		t.Error("(100,2) must not beat a strictly better time")
	}
	in.offer(100, 1) // same time, earlier order: takes over
	if !in.beats(100, 2) {
		t.Error("(100,1) should beat (100,2)")
	}
	in.offer(maxEncodable, 0) // saturates: must not clobber
	if !in.beats(100, 2) {
		t.Error("saturated offer clobbered the incumbent")
	}
}
