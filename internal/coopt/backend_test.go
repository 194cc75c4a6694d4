package coopt

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestSolversListing pins the discovery surface: the table's engines
// in rank order (the tie-break order), then the portfolio combinator,
// with the strategy each row answers to and the capability flags the
// redesign promises.
func TestSolversListing(t *testing.T) {
	infos := Solvers()
	want := []struct {
		name     string
		strategy Strategy
	}{
		{"partition", StrategyPartition},
		{"packing", StrategyPacking},
		{"diagonal", StrategyDiagonal},
		{"exhaustive", StrategyExhaustive},
		{"ilp", StrategyILP},
		{"portfolio", StrategyPortfolio},
	}
	if len(infos) != len(want) {
		t.Fatalf("Solvers() lists %d backends, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i].name || info.Strategy != want[i].strategy {
			t.Errorf("Solvers()[%d] = %q/%v, want %q/%v", i, info.Name, info.Strategy, want[i].name, want[i].strategy)
		}
		if info.Strategy.String() != info.Name {
			t.Errorf("%s: Strategy.String() = %q", info.Name, info.Strategy)
		}
		if info.Description == "" {
			t.Errorf("%s: empty description", info.Name)
		}
		if !info.PowerAware || !info.Cancellable {
			t.Errorf("%s: every built-in backend is power-aware and cancellable, got %+v", info.Name, info)
		}
		if info.Exact != (info.Name == "exhaustive" || info.Name == "ilp") {
			t.Errorf("%s: Exact = %t", info.Name, info.Exact)
		}
		if info.Combinator != (info.Name == "portfolio") {
			t.Errorf("%s: Combinator = %t", info.Name, info.Combinator)
		}
	}
}

// TestFixedTAMEntryPointsSolveLikeSolve checks that the fixed-TAM-count
// entry points are Solve narrowed to one B: each delivers the engine's
// start → improved* → done framing, and at B = 1 (where the sweep of
// B = 1..MaxTAMs has nothing to carry across TAM counts) it returns
// exactly what Solve returns with MaxTAMs 1.
func TestFixedTAMEntryPointsSolveLikeSolve(t *testing.T) {
	s := socdata.D695()
	for _, tc := range []struct {
		strat Strategy
		fixed func(opt Options) (Result, error)
	}{
		{StrategyPartition, func(opt Options) (Result, error) { return PartitionEvaluate(s, 16, 1, opt) }},
		{StrategyExhaustive, func(opt Options) (Result, error) { return Exhaustive(s, 16, 1, opt) }},
	} {
		var events []ProgressEvent
		got, err := tc.fixed(Options{Workers: 1, Progress: func(ev ProgressEvent) { events = append(events, ev) }})
		if err != nil {
			t.Fatalf("%v: %v", tc.strat, err)
		}
		checkFraming(t, tc.strat.String(), events, got)
		want, err := Solve(s, 16, Options{Workers: 1, MaxTAMs: 1, Strategy: tc.strat})
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v at B=1: fixed-B entry point %+v != Solve %+v", tc.strat, got, want)
		}
	}
}

// TestParseStrategyFolding checks that a bare strategy name parses
// whatever its case and surrounding whitespace, and names no subset.
func TestParseStrategyFolding(t *testing.T) {
	for spelling, want := range map[string]Strategy{
		" partition":   StrategyPartition,
		"Packing ":     StrategyPacking,
		"\tDIAGONAL\t": StrategyDiagonal,
		"Exhaustive":   StrategyExhaustive,
		" ILP ":        StrategyILP,
		" PORTFOLIO ":  StrategyPortfolio,
	} {
		got, subset, err := ParseSpec(spelling)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spelling, err)
			continue
		}
		if got != want || subset != "" {
			t.Errorf("ParseSpec(%q) = (%v, %q), want (%v, \"\")", spelling, got, subset, want)
		}
	}
}

// TestParseStrategy covers the name round-trip over every Solvers name
// and the unknown-name error listing every valid name.
func TestParseStrategy(t *testing.T) {
	for _, info := range Solvers() {
		strat, subset, err := ParseSpec(info.Name)
		if err != nil || strat != info.Strategy || subset != "" || strat.String() != info.Name {
			t.Errorf("ParseSpec(%q) = (%v, %q, %v), want (%v, \"\", nil)", info.Name, strat, subset, err, info.Strategy)
		}
	}
	_, _, err := ParseSpec("simulated-annealing")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, info := range Solvers() {
		if !strings.Contains(err.Error(), info.Name) {
			t.Errorf("error %q does not list valid strategy %q", err, info.Name)
		}
	}
}

// TestParseSpec covers the spec syntax: bare names, the portfolio
// subset's canonical ordering by rank, and the duplicate/unknown/empty
// error cases.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		strategy Strategy
		subset   string
		wantErr  string
	}{
		{"partition", StrategyPartition, "", ""},
		{" Exhaustive ", StrategyExhaustive, "", ""},
		{"portfolio", StrategyPortfolio, "", ""},
		{"portfolio:partition,exhaustive", StrategyPortfolio, "partition,exhaustive", ""},
		{"Portfolio: Exhaustive , partition", StrategyPortfolio, "partition,exhaustive", ""},
		{"portfolio:diagonal,packing,partition", StrategyPortfolio, "partition,packing,diagonal", ""},
		{"portfolio:packing", StrategyPortfolio, "packing", ""},
		{"portfolio:", 0, "", "empty backend name"},
		{"portfolio:partition,,packing", 0, "", "empty backend name"},
		{"portfolio:partition,partition", 0, "", "listed twice"},
		{"portfolio:partition,portfolio", 0, "", "unknown backend"},
		{"portfolio:warp-drive", 0, "", "unknown backend"},
		{"simulated-annealing", 0, "", "unknown strategy"},
	} {
		strat, subset, err := ParseSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseSpec(%q) error = %v, want containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if strat != tc.strategy || subset != tc.subset {
			t.Errorf("ParseSpec(%q) = (%v, %q), want (%v, %q)", tc.spec, strat, subset, tc.strategy, tc.subset)
		}
	}
}

// registerBlockerForTest appends a table row for an engine that blocks
// until its context fires — the deterministic cancellation victim for
// the attribution tests. It is marked Exact so the bare portfolio's
// default subset never picks it up; only an explicit spec races it. The
// row is truncated away at test cleanup.
func registerBlockerForTest(t *testing.T) {
	t.Helper()
	n := len(engines)
	engines = append(engines, engine{
		info: BackendInfo{
			Name:        "blocker",
			Strategy:    Strategy(200),
			Description: "test-only engine that blocks until cancelled",
			Cancellable: true,
			Exact:       true,
		},
		solve: func(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
			<-ctx.Done()
			return Result{}, ctx.Err()
		},
	})
	t.Cleanup(func() { engines = engines[:n] })
}

// lbTightSOC returns a SOC on which the heuristic backends achieve the
// architecture-independent lower bound exactly at the given width:
// 2*width identical single-chain cores whose time tables are flat in w,
// so W width-1 TAMs with two cores each meet the wire-volume bound. A
// racer that completes at the bound makes the portfolio monitor's
// cancellation test fire deterministically against any still-running
// higher-rank racer.
func lbTightSOC(width int) *soc.SOC {
	s := &soc.SOC{Name: "lbtight"}
	for i := 0; i < 2*width; i++ {
		s.Cores = append(s.Cores, soc.Core{
			Name:       fmt.Sprintf("c%d", i+1),
			Patterns:   10,
			ScanChains: []int{50},
		})
	}
	return s
}

// TestPortfolioDeterministicCancellationAttribution is the satellite
// acceptance test: a racer that provably cannot win is cancelled, its
// cancellation is recorded in Result.Portfolio, and the winner's
// architecture is bit-for-bit the winner's standalone result.
func TestPortfolioDeterministicCancellationAttribution(t *testing.T) {
	registerBlockerForTest(t)
	const width = 4
	s := lbTightSOC(width)
	lb, err := LowerBound(s, width)
	if err != nil {
		t.Fatal(err)
	}

	for _, subset := range []string{"partition,blocker", "packing,blocker", "partition,packing,diagonal,blocker"} {
		res, err := Solve(s, width, Options{Strategy: StrategyPortfolio, Portfolio: subset})
		if err != nil {
			t.Fatalf("subset %q: %v", subset, err)
		}
		if res.Time != lb {
			t.Fatalf("subset %q: winner %d cycles, want the lower bound %d (the premise of deterministic cancellation)",
				subset, res.Time, lb)
		}
		n := len(strings.Split(subset, ","))
		if len(res.Portfolio) != n {
			t.Fatalf("subset %q: %d attribution entries, want %d", subset, len(res.Portfolio), n)
		}
		last := res.Portfolio[n-1]
		if last.Strategy.String() != "blocker" {
			t.Errorf("subset %q: last entry is %s, want the blocker (registration order)", subset, last.Strategy)
		}
		if !last.Cancelled {
			t.Errorf("subset %q: blocker not recorded as cancelled: %+v", subset, last)
		}
		if last.Winner || last.Time != 0 || last.Err != "" {
			t.Errorf("subset %q: cancelled racer carries a result: %+v", subset, last)
		}
		// The winner must be unaffected by the cancellation: its entry and
		// the Result match its standalone solve bit for bit.
		winner := -1
		for i, run := range res.Portfolio {
			if run.Winner {
				if winner >= 0 {
					t.Fatalf("subset %q: two winners", subset)
				}
				winner = i
			}
		}
		if winner < 0 {
			t.Fatalf("subset %q: no winner", subset)
		}
		alone, err := Solve(s, width, Options{Strategy: res.Portfolio[winner].Strategy})
		if err != nil {
			t.Fatalf("subset %q: standalone winner: %v", subset, err)
		}
		if alone.Time != res.Time || !reflect.DeepEqual(alone.Partition, res.Partition) ||
			!reflect.DeepEqual(alone.Assignment.TAMOf, res.Assignment.TAMOf) {
			t.Errorf("subset %q: winner differs from its standalone run", subset)
		}
	}
}

// TestPortfolioSubsetsWithExhaustive races explicit subsets — including
// the newly raceable exhaustive engine — on d695 at small widths and
// checks the portfolio invariant (winner time = min of the subset's
// standalone times, ties to the earlier-ranked backend) plus the
// attribution bookkeeping for every entry.
func TestPortfolioSubsetsWithExhaustive(t *testing.T) {
	s := socdata.D695()
	for _, tc := range []struct {
		width  int
		subset string
	}{
		{8, "partition,exhaustive"},
		{12, "partition,exhaustive"},
		{12, "exhaustive"},
		{16, "packing,diagonal"},
		{12, "partition,packing,diagonal,exhaustive"},
	} {
		res, err := Solve(s, tc.width, Options{Strategy: StrategyPortfolio, Portfolio: tc.subset})
		if err != nil {
			t.Fatalf("W=%d %q: %v", tc.width, tc.subset, err)
		}
		names := strings.Split(tc.subset, ",")
		if len(res.Portfolio) != len(names) {
			t.Fatalf("W=%d %q: %d entries, want %d", tc.width, tc.subset, len(res.Portfolio), len(names))
		}
		winners := 0
		var wantTime soc.Cycles
		var wantStrategy Strategy
		haveWant := false
		for i, name := range names {
			run := res.Portfolio[i]
			if run.Strategy.String() != name {
				t.Errorf("W=%d %q: entry %d is %s, want %s", tc.width, tc.subset, i, run.Strategy, name)
			}
			if run.Winner {
				winners++
			}
			if run.Cancelled {
				if run.Time != 0 || run.Winner {
					t.Errorf("W=%d %q: cancelled %s carries a result: %+v", tc.width, tc.subset, name, run)
				}
				continue
			}
			if run.Err != "" {
				t.Errorf("W=%d %q: %s failed: %s", tc.width, tc.subset, name, run.Err)
				continue
			}
			strat, _, err := ParseSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := Solve(s, tc.width, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("W=%d %s standalone: %v", tc.width, name, err)
			}
			if alone.Time != run.Time {
				t.Errorf("W=%d %q: %s raced to %d cycles, standalone %d", tc.width, tc.subset, name, run.Time, alone.Time)
			}
			if !haveWant || alone.Time < wantTime {
				haveWant, wantTime, wantStrategy = true, alone.Time, strat
			}
		}
		if winners != 1 {
			t.Errorf("W=%d %q: %d winners, want 1", tc.width, tc.subset, winners)
		}
		if res.Time != wantTime || res.Strategy != wantStrategy {
			t.Errorf("W=%d %q: portfolio (%s, %d) != expected winner (%s, %d)",
				tc.width, tc.subset, res.Strategy, res.Time, wantStrategy, wantTime)
		}
	}
}

// TestPortfolioBadSubset pins Solve's error on an unusable spec.
func TestPortfolioBadSubset(t *testing.T) {
	s := socdata.D695()
	for _, subset := range []string{"warp-drive", "partition,partition", "portfolio"} {
		if _, err := Solve(s, 16, Options{Strategy: StrategyPortfolio, Portfolio: subset}); err == nil {
			t.Errorf("subset %q accepted", subset)
		}
	}
}

func mustTables(t *testing.T, s *soc.SOC, width int) [][]soc.Cycles {
	t.Helper()
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestProgressStreamSequential pins the per-backend event discipline on
// the sequential partition flow: one start, improvements with strictly
// decreasing times and increasing partition counts (as many as
// Stats.Improved), then exactly one done carrying the final time.
func TestProgressStreamSequential(t *testing.T) {
	s := socdata.D695()
	var events []ProgressEvent
	res, err := Solve(s, 24, Options{Workers: 1, Progress: func(ev ProgressEvent) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	checkFraming(t, "partition", events, res)
	if improved := len(events) - 2; improved != res.Stats.Improved {
		t.Errorf("%d improvement events, Stats.Improved = %d", improved, res.Stats.Improved)
	}
}

// checkFraming asserts one enumerating engine's event discipline: a
// start, improvements with strictly decreasing times and increasing
// partition counts ending at the heuristic winner, then exactly one
// done carrying the final time.
func checkFraming(t *testing.T, backend string, events []ProgressEvent, res Result) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("%s: only %d events", backend, len(events))
	}
	if events[0].Kind != ProgressBackendStart || events[0].Backend != backend {
		t.Errorf("first event %+v, want %s start", events[0], backend)
	}
	last := events[len(events)-1]
	if last.Kind != ProgressBackendDone || last.Backend != backend || last.Time != res.Time {
		t.Errorf("last event %+v, want %s done with %d cycles", last, backend, res.Time)
	}
	var prevTime soc.Cycles
	prevCount := 0
	for i, ev := range events[1 : len(events)-1] {
		if ev.Kind != ProgressImproved || ev.Backend != backend {
			t.Fatalf("unexpected mid-stream event %+v", ev)
		}
		if i > 0 && ev.Time >= prevTime {
			t.Errorf("improvement did not improve: %d after %d", ev.Time, prevTime)
		}
		if ev.Partitions <= prevCount {
			t.Errorf("partition counts not increasing: %d after %d", ev.Partitions, prevCount)
		}
		prevTime, prevCount = ev.Time, ev.Partitions
	}
	// The last improvement is the heuristic winner.
	if len(events) > 2 && prevTime != res.HeuristicTime {
		t.Errorf("final incumbent %d != heuristic time %d", prevTime, res.HeuristicTime)
	}
}

// TestProgressStreamSerialized checks the delivery discipline the
// redesign documents: the hook never runs concurrently with itself,
// even with every backend racing on the worker pool, and each racer
// contributes one start plus one terminal event.
func TestProgressStreamSerialized(t *testing.T) {
	s := socdata.D695()
	var mu sync.Mutex
	inHook := false
	starts := map[string]int{}
	terminals := map[string]int{}
	improvedTimes := map[string][]soc.Cycles{}
	hook := func(ev ProgressEvent) {
		mu.Lock()
		if inHook {
			mu.Unlock()
			t.Error("progress hook entered concurrently")
			return
		}
		inHook = true
		mu.Unlock()
		switch ev.Kind {
		case ProgressBackendStart:
			starts[ev.Backend]++
		case ProgressBackendDone, ProgressBackendCancelled:
			terminals[ev.Backend]++
		case ProgressImproved:
			improvedTimes[ev.Backend] = append(improvedTimes[ev.Backend], ev.Time)
		}
		mu.Lock()
		inHook = false
		mu.Unlock()
	}
	if _, err := Solve(s, 32, Options{Strategy: StrategyPortfolio, Workers: 4, Progress: hook}); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"partition", "packing", "diagonal"} {
		if starts[backend] != 1 || terminals[backend] != 1 {
			t.Errorf("%s: %d starts, %d terminal events, want 1/1", backend, starts[backend], terminals[backend])
		}
	}
	for backend, times := range improvedTimes {
		for i := 1; i < len(times); i++ {
			if times[i] >= times[i-1] {
				t.Errorf("%s: improvements not strictly decreasing: %v", backend, times)
			}
		}
	}
}

// TestProgressCancelledEvent pins the cancelled-event path: the blocker
// racer's terminal event is a cancellation, not a done.
func TestProgressCancelledEvent(t *testing.T) {
	registerBlockerForTest(t)
	const width = 4
	s := lbTightSOC(width)
	var kinds []string
	hook := func(ev ProgressEvent) {
		if ev.Backend == "blocker" {
			kinds = append(kinds, ev.Kind.String())
		}
	}
	if _, err := Solve(s, width, Options{
		Strategy: StrategyPortfolio, Portfolio: "partition,blocker", Progress: hook,
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kinds, []string{"start", "cancelled"}) {
		t.Errorf("blocker events %v, want [start cancelled]", kinds)
	}
}
