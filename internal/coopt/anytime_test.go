package coopt

import (
	"math"
	"strings"
	"testing"
	"time"

	"soctam/internal/assign"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// expired is a budget spent before the scan's first poll that holds an
// incumbent: the harshest possible budget. The anytime contract says
// even this returns the first incumbent, never an error.
const expired = time.Nanosecond

// checkAnytimeResult asserts the anytime contract on a deadline-bounded
// result: a complete valid architecture, a non-negative gap, and the
// truncation tag.
func checkAnytimeResult(t *testing.T, s *soc.SOC, width int, strat Strategy, res Result) {
	t.Helper()
	if res.Time <= 0 {
		t.Errorf("%v: truncated result has no testing time: %+v", strat, res)
	}
	if res.Gap < 0 {
		t.Errorf("%v: negative gap %f", strat, res.Gap)
	}
	if !res.Truncated {
		t.Errorf("%v: expired deadline did not mark the result truncated", strat)
	}
	if res.Proven {
		t.Errorf("%v: truncated result claims proven optimality with gap %f", strat, res.Gap)
	}
	if res.Packing != nil {
		if err := res.Packing.Validate(len(s.Cores)); err != nil {
			t.Errorf("%v: truncated packing invalid: %v", strat, err)
		}
		return
	}
	total := 0
	for _, w := range res.Partition {
		total += w
	}
	if total != width {
		t.Errorf("%v: partition %v sums to %d, want %d", strat, res.Partition, total, width)
	}
	if len(res.Assignment.TAMOf) != len(s.Cores) {
		t.Errorf("%v: assignment covers %d cores, want %d", strat, len(res.Assignment.TAMOf), len(s.Cores))
	}
}

// The anytime contract: with a budget spent before the first poll,
// every backend still returns a complete valid architecture
// tagged with its optimality gap — never an error. Workers 1 and the
// parallel pool both hold it (their deadline polls live in different
// places).
func TestExpiredDeadlineReturnsIncumbent(t *testing.T) {
	s := socdata.D695()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"partition-seq", Options{Strategy: StrategyPartition, Workers: 1}},
		{"partition-par", Options{Strategy: StrategyPartition, Workers: 4}},
		{"exhaustive", Options{Strategy: StrategyExhaustive}},
		{"ilp", Options{Strategy: StrategyILP}},
		{"packing", Options{Strategy: StrategyPacking}},
		{"diagonal", Options{Strategy: StrategyDiagonal}},
		{"portfolio", Options{Strategy: StrategyPortfolio}},
	} {
		opt := tc.opt
		opt.Budget = expired
		res, err := Solve(s, 32, opt)
		if err != nil {
			t.Fatalf("%s: deadline-bounded solve failed: %v", tc.name, err)
		}
		checkAnytimeResult(t, s, 32, opt.Strategy, res)
	}
}

// The fixed-TAM-count entry points thread budgets too.
func TestExpiredDeadlineLegacyEntryPoints(t *testing.T) {
	s := socdata.D695()
	opt := Options{Workers: 1, Budget: expired}
	for _, tc := range []struct {
		name  string
		solve func() (Result, error)
	}{
		{"PartitionEvaluate", func() (Result, error) { return PartitionEvaluate(s, 32, 3, opt) }},
		{"Exhaustive", func() (Result, error) { return Exhaustive(s, 16, 2, opt) }},
	} {
		res, err := tc.solve()
		if err != nil {
			t.Fatalf("%s: deadline-bounded solve failed: %v", tc.name, err)
		}
		if res.Time <= 0 || res.Gap < 0 {
			t.Errorf("%s: bad anytime result time=%d gap=%f", tc.name, res.Time, res.Gap)
		}
	}
}

// A generous budget must never run out: the result is bit-for-bit the
// unbounded run's (the no-budget determinism guarantee, exercised
// through the deadline-polling code paths).
func TestGenerousDeadlineMatchesUnbounded(t *testing.T) {
	s := socdata.D695()
	for _, strat := range []Strategy{StrategyPartition, StrategyExhaustive, StrategyILP, StrategyPacking, StrategyDiagonal} {
		width := 32
		if strat == StrategyExhaustive || strat == StrategyILP {
			width = 16
		}
		base, err := Solve(s, width, Options{Strategy: strat, Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		bounded, err := Solve(s, width, Options{Strategy: strat, Workers: 1, Budget: time.Hour})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if bounded.Truncated {
			t.Errorf("%v: generous budget marked the run truncated", strat)
		}
		if base.Time != bounded.Time || base.NumTAMs != bounded.NumTAMs {
			t.Errorf("%v: deadline-polled run differs: %d cycles / %d TAMs vs %d / %d",
				strat, bounded.Time, bounded.NumTAMs, base.Time, base.NumTAMs)
		}
		if base.Gap != bounded.Gap || base.Proven != bounded.Proven {
			t.Errorf("%v: gap/proven differ: %f/%v vs %f/%v",
				strat, bounded.Gap, bounded.Proven, base.Gap, base.Proven)
		}
	}
}

// A budget bounds the partition flow's exact final step too. On
// p93791/W=16 the scan ends well inside a budget that the node-capped
// step would overrun many times over, so the step stops at the deadline
// with its best assignment in hand: the solve returns long before an
// unbounded one, and the result is truncated, unproven, valid and no
// slower than the heuristic's.
func TestBudgetBoundsExactStep(t *testing.T) {
	s := socdata.P93791()
	const width = 16
	t0 := time.Now()
	scanned, err := Solve(s, width, Options{SkipFinal: true})
	if err != nil {
		t.Fatal(err)
	}
	scanTime := time.Since(t0)
	t0 = time.Now()
	full, err := Solve(s, width, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullTime := time.Since(t0)
	if full.AssignmentOptimal || fullTime < 20*scanTime {
		t.Fatalf("premise: the step is node-capped (optimal %t) and far slower than the scan (%s against %s)",
			full.AssignmentOptimal, fullTime, scanTime)
	}
	budget := time.Duration(math.Sqrt(float64(scanTime) * float64(fullTime)))
	res, err := Solve(s, width, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkAnytimeResult(t, s, width, StrategyPartition, res)
	if res.Elapsed > fullTime/2 {
		t.Errorf("budget %s: the solve took %s, the unbounded one %s; the step ran on past the deadline",
			budget, res.Elapsed, fullTime)
	}
	if res.HeuristicTime != scanned.HeuristicTime {
		t.Errorf("budget %s cut the scan (heuristic %d, unbounded %d); want only the step cut",
			budget, res.HeuristicTime, scanned.HeuristicTime)
	}
	if res.AssignmentOptimal || res.Time > res.HeuristicTime {
		t.Errorf("cut step: time %d against heuristic %d, optimal %t", res.Time, res.HeuristicTime, res.AssignmentOptimal)
	}
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	in, err := assign.FromTimeTable(tables, res.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if _, span, err := in.Times.Makespan(res.Assignment.TAMOf); err != nil || span != res.Time {
		t.Errorf("cut step's assignment spans %d (%v), result reports %d", span, err, res.Time)
	}
}

// Budget resolves into the one deadline the engines read, Budget from
// now; no budget leaves no deadline.
func TestResolveDeadline(t *testing.T) {
	r := Options{Budget: time.Hour}.resolveDeadline()
	if d := time.Until(r.deadline); d < 59*time.Minute || d > 61*time.Minute {
		t.Errorf("deadline landed %s out, want ~1h", d)
	}
	if r := (Options{}).resolveDeadline(); !r.deadline.IsZero() {
		t.Errorf("no budget resolved to deadline %v", r.deadline)
	}
}

// An exhaustive run that completes is proven optimal even when its gap
// against the architecture-independent lower bound is positive.
func TestExhaustiveProvenWithoutDeadline(t *testing.T) {
	res, err := Solve(socdata.D695(), 12, Options{Strategy: StrategyExhaustive, MaxTAMs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("unbounded exhaustive run marked truncated")
	}
	if !res.Proven {
		t.Errorf("completed exhaustive run not proven (gap %f)", res.Gap)
	}
}

// Progress framing under truncation: every backend still emits exactly
// one terminal event, it comes after the backend's last improvement,
// and a truncation terminates with "done" (the run succeeded — it has
// an answer), never "cancelled".
func TestProgressFramingUnderDeadline(t *testing.T) {
	s := socdata.D695()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"partition-seq", Options{Strategy: StrategyPartition, Workers: 1}},
		{"partition-par", Options{Strategy: StrategyPartition, Workers: 4}},
		{"exhaustive", Options{Strategy: StrategyExhaustive}},
		{"ilp", Options{Strategy: StrategyILP}},
		{"packing", Options{Strategy: StrategyPacking}},
		{"diagonal", Options{Strategy: StrategyDiagonal}},
		{"portfolio", Options{Strategy: StrategyPortfolio}},
	} {
		var events []ProgressEvent
		opt := tc.opt
		opt.Budget = expired
		// The sink serializes delivery, so a plain append is safe.
		opt.Progress = func(ev ProgressEvent) { events = append(events, ev) }
		res, err := Solve(s, 32, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		terminal := map[string]int{}
		lastImproved := map[string]int{}
		terminalAt := map[string]int{}
		for i, ev := range events {
			switch ev.Kind {
			case ProgressBackendDone, ProgressBackendCancelled:
				terminal[ev.Backend]++
				terminalAt[ev.Backend] = i
			case ProgressImproved:
				lastImproved[ev.Backend] = i
			}
		}
		if len(terminal) == 0 {
			t.Fatalf("%s: no terminal events in %d events", tc.name, len(events))
		}
		for backend, n := range terminal {
			if n != 1 {
				t.Errorf("%s: backend %s got %d terminal events, want exactly 1", tc.name, backend, n)
			}
			if li, ok := lastImproved[backend]; ok && li > terminalAt[backend] {
				t.Errorf("%s: backend %s improved at event %d after its terminal at %d",
					tc.name, backend, li, terminalAt[backend])
			}
		}
		if tc.opt.Strategy != StrategyPortfolio {
			// A single engine truncating is a success: its one terminal
			// event must be "done" carrying the returned time. (A portfolio
			// racer can legitimately be skipped once an earlier one attains
			// the lower bound.)
			name := tc.opt.Strategy.String()
			found := false
			for _, ev := range events {
				if ev.Backend == name && ev.Kind == ProgressBackendDone {
					found = true
					if ev.Err != "" {
						t.Errorf("%s: done event carries error %q", tc.name, ev.Err)
					}
					if ev.Time != res.Time {
						t.Errorf("%s: done event time %d != result time %d", tc.name, ev.Time, res.Time)
					}
				}
				if ev.Kind == ProgressBackendCancelled {
					t.Errorf("%s: truncated single-engine run emitted cancelled", tc.name)
				}
			}
			if !found {
				t.Errorf("%s: no done event for backend %s", tc.name, name)
			}
		}
	}
}

// FuzzParseSpec hammers the strategy-spec parser with arbitrary
// spellings: it must never panic, and every accepted spec must have a
// canonical form that re-parses to the same (strategy, subset) pair,
// insensitive to case and surrounding whitespace.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"partition", "packing", "diagonal", "exhaustive", "portfolio",
		"Portfolio", " PARTITION ", "portfolio:partition,exhaustive",
		"portfolio: partition , diagonal ", "portfolio:diagonal,diagonal",
		"portfolio:", "portfolio:,", "", ":", "portfolio:nope",
		"portfolio:partition,packing,diagonal,exhaustive",
		"PORTFOLIO:Exhaustive", "partition,packing", "portfolio::partition",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		strat, subset, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if subset != "" && strat != StrategyPortfolio {
			t.Fatalf("ParseSpec(%q) returned subset %q for strategy %v", spec, subset, strat)
		}
		// The canonical spelling must be a fixed point.
		canon := strat.String()
		if subset != "" {
			canon = "portfolio:" + subset
		}
		s2, sub2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical spelling %q of %q does not re-parse: %v", canon, spec, err)
		}
		if s2 != strat || sub2 != subset {
			t.Fatalf("canonical %q re-parsed to (%v,%q), want (%v,%q)", canon, s2, sub2, strat, subset)
		}
		// Case and surrounding whitespace are presentation, not meaning.
		for _, variant := range []string{strings.ToUpper(spec), " " + spec + "\t"} {
			s3, sub3, err := ParseSpec(variant)
			if err != nil {
				t.Fatalf("variant %q of accepted %q rejected: %v", variant, spec, err)
			}
			if s3 != strat || sub3 != subset {
				t.Fatalf("variant %q parsed to (%v,%q), want (%v,%q)", variant, s3, sub3, strat, subset)
			}
		}
	})
}
