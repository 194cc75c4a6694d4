package coopt

import (
	"reflect"
	"testing"

	"soctam/internal/assign"
	"soctam/internal/partition"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// testSOC is a small heterogeneous SOC: scan-heavy, I/O-heavy, pattern-
// heavy and balanced cores, so different widths genuinely favor
// different cores.
func testSOC() *soc.SOC {
	return &soc.SOC{Name: "mini", Cores: []soc.Core{
		{Name: "scan", Inputs: 20, Outputs: 10, Patterns: 60, ScanChains: []int{40, 40, 30, 30}},
		{Name: "wide", Inputs: 120, Outputs: 90, Patterns: 25},
		{Name: "mem", Inputs: 10, Outputs: 10, Patterns: 500},
		{Name: "mix", Inputs: 30, Outputs: 30, Patterns: 40, ScanChains: []int{25, 25}},
		{Name: "tiny", Inputs: 5, Outputs: 3, Patterns: 15, ScanChains: []int{12}},
		{Name: "bulk", Inputs: 60, Outputs: 60, Patterns: 80, ScanChains: []int{50, 50, 50}},
	}}
}

func TestTimeTables(t *testing.T) {
	s := testSOC()
	tables, err := TimeTables(s, 16)
	if err != nil {
		t.Fatalf("TimeTables: %v", err)
	}
	if len(tables) != len(s.Cores) {
		t.Fatalf("got %d tables, want %d", len(tables), len(s.Cores))
	}
	for i, table := range tables {
		if len(table) != 16 {
			t.Fatalf("core %d: table length %d, want 16", i+1, len(table))
		}
		for w := 1; w < 16; w++ {
			if table[w] > table[w-1] {
				t.Errorf("core %d: T(%d) > T(%d)", i+1, w+1, w)
			}
		}
	}
	if _, err := TimeTables(s, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := TimeTables(&soc.SOC{}, 8); err == nil {
		t.Error("empty SOC accepted")
	}
}

func TestPartitionEvaluateFixedB(t *testing.T) {
	res, err := PartitionEvaluate(testSOC(), 12, 2, Options{})
	if err != nil {
		t.Fatalf("PartitionEvaluate: %v", err)
	}
	if res.NumTAMs != 2 || len(res.Partition) != 2 {
		t.Fatalf("NumTAMs = %d partition %v, want 2 TAMs", res.NumTAMs, res.Partition)
	}
	if res.Partition[0]+res.Partition[1] != 12 {
		t.Errorf("partition %v does not sum to 12", res.Partition)
	}
	if res.Partition[0] > res.Partition[1] {
		t.Errorf("partition %v not canonical", res.Partition)
	}
	if res.Stats.Enumerated != res.Stats.Completed+res.Stats.Aborted {
		t.Errorf("stats inconsistent: %+v", res.Stats)
	}
	if res.Stats.Improved < 1 || res.Stats.Completed < 1 {
		t.Errorf("stats show no work: %+v", res.Stats)
	}
	if res.Time > res.HeuristicTime {
		t.Errorf("final time %d worse than heuristic %d", res.Time, res.HeuristicTime)
	}
	if !res.AssignmentOptimal {
		t.Error("final step did not prove optimality on this tiny instance")
	}
	if err := Validate(testSOC(), 12, res); err != nil {
		t.Errorf("final answer invalid: %v", err)
	}
}

func TestEarlyAbortDoesNotChangeResult(t *testing.T) {
	// The lines 18–20 abort, and the lookahead that skips the calls it
	// would stop, may cut work, never change the answer: the heuristic
	// time is the least unbounded Core_assign time over every partition
	// the sweep covers.
	cases := []struct {
		s     *soc.SOC
		width int
	}{
		{testSOC(), 14},
		{socdata.D695(), 16},
		{socdata.D695(), 32},
		{socdata.P21241(), 24},
	}
	const maxTAMs = 4
	for _, tc := range cases {
		tables, err := TimeTables(tc.s, tc.width)
		if err != nil {
			t.Fatalf("%s: TimeTables: %v", tc.s.Name, err)
		}
		var want soc.Cycles
		for b := 1; b <= maxTAMs; b++ {
			partition.Enumerate(tc.width, b, func(parts []int) bool {
				in, err := assign.FromTimeTable(tables, parts)
				if err != nil {
					t.Fatalf("%s: FromTimeTable(%v): %v", tc.s.Name, parts, err)
				}
				if a, _ := assign.CoreAssign(in, 0); want == 0 || a.Time < want {
					want = a.Time
				}
				return true
			})
		}
		res, err := Solve(tc.s, tc.width, Options{Workers: 1, SkipFinal: true, MaxTAMs: maxTAMs})
		if err != nil {
			t.Fatalf("%s W=%d: Solve: %v", tc.s.Name, tc.width, err)
		}
		if res.HeuristicTime != want {
			t.Errorf("%s W=%d: heuristic time %d, the unbounded scan's least %d",
				tc.s.Name, tc.width, res.HeuristicTime, want)
		}
		if res.Stats.Aborted == 0 {
			t.Errorf("%s W=%d: the early abort never fired", tc.s.Name, tc.width)
		}
	}
}

func TestEnumerationStrategiesSameBest(t *testing.T) {
	// Both enumeration strategies cover every unique partition, so the
	// best heuristic testing time must be identical; only the work
	// differs (canonical < odometer).
	s := testSOC()
	results := map[Enumeration]Result{}
	for _, enum := range []Enumeration{EnumCanonical, EnumOdometer} {
		res, err := PartitionEvaluate(s, 12, 3, Options{SkipFinal: true, Enumeration: enum})
		if err != nil {
			t.Fatalf("PartitionEvaluate(%v): %v", enum, err)
		}
		results[enum] = res
	}
	if a, b := results[EnumCanonical].HeuristicTime, results[EnumOdometer].HeuristicTime; a != b {
		t.Errorf("canonical best %d != odometer best %d", a, b)
	}
	canN := results[EnumCanonical].Stats.Enumerated
	odoN := results[EnumOdometer].Stats.Enumerated
	if canN > odoN {
		t.Errorf("enumeration counts out of order: canonical %d, odometer %d", canN, odoN)
	}
	if want := partition.Count(12, 3); int64(canN) != want {
		t.Errorf("canonical enumerated %d partitions, want P(12,3) = %d", canN, want)
	}
}

func TestSkipFinal(t *testing.T) {
	res, err := PartitionEvaluate(testSOC(), 10, 2, Options{SkipFinal: true})
	if err != nil {
		t.Fatalf("PartitionEvaluate: %v", err)
	}
	if res.Time != res.HeuristicTime {
		t.Errorf("SkipFinal: final %d != heuristic %d", res.Time, res.HeuristicTime)
	}
	if res.AssignmentOptimal {
		t.Error("SkipFinal claims proven optimality")
	}
}

func TestCoOptimizeVsExhaustive(t *testing.T) {
	// The heuristic flow may never beat the exhaustive optimum, and on
	// this small SOC it should land within 25% of it.
	s := testSOC()
	opt := Options{MaxTAMs: 3}
	heur, err := Solve(s, 12, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	exactOpt := opt
	exactOpt.Strategy = StrategyExhaustive
	exact, err := Solve(s, 12, exactOpt)
	if err != nil {
		t.Fatalf("Solve(exhaustive): %v", err)
	}
	if !exact.AssignmentOptimal {
		t.Fatal("exhaustive run not fully optimal")
	}
	if heur.Time < exact.Time {
		t.Errorf("heuristic %d beats exhaustive optimum %d", heur.Time, exact.Time)
	}
	if float64(heur.Time) > 1.25*float64(exact.Time) {
		t.Errorf("heuristic %d more than 25%% above optimum %d", heur.Time, exact.Time)
	}
}

func TestExhaustiveFixedB(t *testing.T) {
	s := testSOC()
	res, err := Exhaustive(s, 10, 2, Options{})
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	if res.Stats.Enumerated != 5 { // partitions of 10 into 2 parts
		t.Errorf("evaluated %d partitions, want 5", res.Stats.Enumerated)
	}
	if !res.AssignmentOptimal {
		t.Error("small exhaustive run not optimal")
	}
	// A heuristic run at the same B cannot do better.
	heur, err := PartitionEvaluate(s, 10, 2, Options{})
	if err != nil {
		t.Fatalf("PartitionEvaluate: %v", err)
	}
	if heur.Time < res.Time {
		t.Errorf("heuristic %d beats exhaustive %d at fixed B", heur.Time, res.Time)
	}
}

func TestCoOptimizeWiderNeverWorse(t *testing.T) {
	// More TAM wires can only help: T(W=16) <= T(W=8).
	s := testSOC()
	t8, err := Solve(s, 8, Options{MaxTAMs: 3})
	if err != nil {
		t.Fatalf("Solve(8): %v", err)
	}
	t16, err := Solve(s, 16, Options{MaxTAMs: 3})
	if err != nil {
		t.Fatalf("Solve(16): %v", err)
	}
	if t16.Time > t8.Time {
		t.Errorf("T(16) = %d worse than T(8) = %d", t16.Time, t8.Time)
	}
}

func TestCoOptimizeDeterministic(t *testing.T) {
	s := testSOC()
	a, err := Solve(s, 12, Options{MaxTAMs: 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	b, err := Solve(s, 12, Options{MaxTAMs: 4})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if a.Time != b.Time || !reflect.DeepEqual(a.Partition, b.Partition) ||
		!reflect.DeepEqual(a.Assignment.TAMOf, b.Assignment.TAMOf) {
		t.Error("the partition flow is not deterministic")
	}
}

// TestCoOptimizeILPFinal holds the final exact step (assign.SolveExact,
// the combinatorial branch and bound) to the paper's Section 3.2 ILP:
// solving the winning partition's 0/1 model through the simplex must
// prove the same optimum.
func TestCoOptimizeILPFinal(t *testing.T) {
	s := testSOC()
	bb, err := Solve(s, 10, Options{MaxTAMs: 2})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !bb.AssignmentOptimal {
		t.Error("final exact step did not mark the assignment optimal")
	}
	ilpA, optimal, err := assign.SolveILP(mustInstance(t, bb), assign.ILPOptions{})
	if err != nil {
		t.Fatalf("SolveILP: %v", err)
	}
	if !optimal || ilpA.Time != bb.Time {
		t.Errorf("final step disagrees: B&B %d vs ILP %d (proven %t)", bb.Time, ilpA.Time, optimal)
	}
	// The heuristic flow cannot prove its answer (its gap against the
	// volume bound stays positive here); the registered exact engine
	// must prove that the answer was in fact the optimum.
	exact, err := Solve(s, 10, Options{MaxTAMs: 2, Strategy: StrategyILP})
	if err != nil {
		t.Fatalf("Solve(ilp): %v", err)
	}
	if !exact.Proven {
		t.Errorf("exact engine returned unproven result (gap %f)", exact.Gap)
	}
	if exact.Time != bb.Time {
		t.Errorf("heuristic flow returned %d cycles, exact engine proves %d", bb.Time, exact.Time)
	}
}

func TestMaxTAMsCappedByWidth(t *testing.T) {
	// Width 3 cannot host 10 TAMs; the sweep must cap B at W.
	res, err := Solve(testSOC(), 3, Options{MaxTAMs: 10})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.NumTAMs > 3 {
		t.Errorf("NumTAMs = %d with width 3", res.NumTAMs)
	}
}

func TestErrors(t *testing.T) {
	s := testSOC()
	if _, err := PartitionEvaluate(s, 0, 2, Options{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := PartitionEvaluate(s, 4, 8, Options{}); err == nil {
		t.Error("B > W accepted")
	}
	if _, err := Exhaustive(s, 4, 8, Options{}); err == nil {
		// Enumerate(4,8) yields nothing; the run must fail loudly rather
		// than return an empty result.
		t.Error("exhaustive with B > W returned no error")
	}
	if _, err := Solve(&soc.SOC{}, 8, Options{}); err == nil {
		t.Error("empty SOC accepted")
	}
}

// mustInstance rebuilds the assign instance for a result's partition.
func mustInstance(t *testing.T, res Result) *assign.Instance {
	t.Helper()
	tables, err := TimeTables(testSOC(), res.TotalWidth)
	if err != nil {
		t.Fatalf("TimeTables: %v", err)
	}
	in, err := assign.FromTimeTable(tables, res.Partition)
	if err != nil {
		t.Fatalf("FromTimeTable: %v", err)
	}
	return in
}
