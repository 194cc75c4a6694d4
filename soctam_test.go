package soctam_test

import (
	"strings"
	"testing"

	"soctam"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quickstart: co-optimize d695 under a 32-wire budget.
	s := soctam.D695()
	res, err := soctam.Solve(s, 32, soctam.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.NumTAMs < 1 || res.NumTAMs > 10 {
		t.Errorf("NumTAMs = %d, want 1..10", res.NumTAMs)
	}
	sum := 0
	for _, w := range res.Partition {
		sum += w
	}
	if sum != 32 {
		t.Errorf("partition %v does not sum to 32", res.Partition)
	}
	// The paper's d695 results at W=32 land around 21.5-25k cycles.
	if res.Time < 15000 || res.Time > 30000 {
		t.Errorf("testing time %d outside the d695 W=32 ballpark", res.Time)
	}
	if len(res.Assignment.TAMOf) != len(s.Cores) {
		t.Errorf("assignment covers %d cores, want %d", len(res.Assignment.TAMOf), len(s.Cores))
	}
}

func TestWrapperAPIs(t *testing.T) {
	s := soctam.D695()
	core := &s.Cores[4] // s38584
	d, err := soctam.DesignWrapper(core, 16)
	if err != nil {
		t.Fatalf("DesignWrapper: %v", err)
	}
	if d.UsedWidth() > 16 || d.Time <= 0 {
		t.Errorf("odd design: used %d, time %d", d.UsedWidth(), d.Time)
	}
	tt, err := soctam.TestTime(core, 16)
	if err != nil || tt != d.Time {
		t.Errorf("TestTime = %d (err %v), want %d", tt, err, d.Time)
	}
	table, err := soctam.TimeTable(core, 16)
	if err != nil || table[15] != d.Time {
		t.Errorf("TimeTable[15] = %d (err %v), want %d", table[15], err, d.Time)
	}
	pw, err := soctam.ParetoWidths(core, 16)
	if err != nil || len(pw) == 0 {
		t.Errorf("ParetoWidths = %v (err %v)", pw, err)
	}
}

func TestAssignmentAPIs(t *testing.T) {
	s := soctam.D695()
	in, err := soctam.NewInstance(s, []int{16, 8, 8})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	heur, ok := soctam.CoreAssign(in, 0)
	if !ok {
		t.Fatal("CoreAssign aborted without a bound")
	}
	exact, optimal, err := soctam.SolveAssignment(in, 0)
	if err != nil {
		t.Fatalf("SolveAssignment: %v", err)
	}
	if !optimal {
		t.Error("d695 3-TAM instance not solved to optimality")
	}
	if exact.Time > heur.Time {
		t.Errorf("exact %d worse than heuristic %d", exact.Time, heur.Time)
	}
}

func TestParseRoundTripThroughFacade(t *testing.T) {
	s := soctam.D695()
	text := s.EncodeString()
	back, err := soctam.ParseSOCString(text)
	if err != nil {
		t.Fatalf("ParseSOCString: %v", err)
	}
	if back.Name != "d695" || len(back.Cores) != 10 {
		t.Errorf("round trip lost data: %s with %d cores", back.Name, len(back.Cores))
	}
	if !strings.Contains(text, "s38584") {
		t.Errorf("encoded text missing core names:\n%s", text)
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	for name, get := range map[string]func() *soctam.SOC{
		"d695": soctam.D695, "p21241": soctam.P21241,
		"p31108": soctam.P31108, "p93791": soctam.P93791,
	} {
		s := get()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestExhaustiveMatchesHeuristicOnFixedPartition(t *testing.T) {
	s := soctam.D695()
	exh, err := soctam.Exhaustive(s, 16, 2, soctam.Options{})
	if err != nil {
		t.Fatalf("Exhaustive: %v", err)
	}
	heur, err := soctam.CoOptimizeFixedTAMs(s, 16, 2, soctam.Options{})
	if err != nil {
		t.Fatalf("CoOptimizeFixedTAMs: %v", err)
	}
	if heur.Time < exh.Time {
		t.Errorf("heuristic %d beats exhaustive optimum %d", heur.Time, exh.Time)
	}
}
