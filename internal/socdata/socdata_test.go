package socdata

import (
	"reflect"
	"testing"

	"soctam/internal/soc"
)

func TestD695Shape(t *testing.T) {
	s := D695()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(s.Cores) != 10 {
		t.Fatalf("d695 has %d cores, want 10", len(s.Cores))
	}
	if got := s.NumScanTestable(); got != 8 {
		t.Errorf("scan-testable cores = %d, want 8 (the ISCAS'89 circuits)", got)
	}
	// Known flip-flop totals of the ISCAS'89 circuits.
	ff := map[string]int{
		"s838": 32, "s9234": 211, "s38584": 1426, "s13207": 638,
		"s15850": 534, "s5378": 179, "s35932": 1728, "s38417": 1636,
	}
	for i := range s.Cores {
		c := &s.Cores[i]
		if want, ok := ff[c.Name]; ok && c.ScanCells() != want {
			t.Errorf("%s: %d scan cells, want %d", c.Name, c.ScanCells(), want)
		}
	}
	// The reconstruction's complexity must sit within 1% of the nominal
	// 695 (ARCHITECTURE.md documents the ~699 recall error).
	if got := s.TestComplexity(); got < 688 || got > 702 {
		t.Errorf("test complexity = %d, want ~695", got)
	}
}

func TestFigure2Data(t *testing.T) {
	widths, times := Figure2()
	if !reflect.DeepEqual(widths, []int{32, 16, 8}) {
		t.Errorf("widths = %v, want [32 16 8]", widths)
	}
	if err := times.Validate(); err != nil {
		t.Fatalf("times invalid: %v", err)
	}
	if times.NumJobs() != 5 || times.NumMachines() != 3 {
		t.Errorf("matrix %dx%d, want 5x3", times.NumJobs(), times.NumMachines())
	}
	// Spot values from the paper's Fig. 2(a).
	if times[0][0] != 50 || times[4][2] != 125 || times[2][1] != 100 {
		t.Error("Figure 2(a) values wrong")
	}
}

func synthCases() []struct {
	name string
	spec SynthSpec
	s    *soc.SOC
} {
	return []struct {
		name string
		spec SynthSpec
		s    *soc.SOC
	}{
		{"p21241", P21241Spec(), P21241()},
		{"p31108", P31108Spec(), P31108()},
		{"p93791", P93791Spec(), P93791()},
	}
}

func TestSynthesizedCoreCounts(t *testing.T) {
	for _, tc := range synthCases() {
		if err := tc.s.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", tc.name, err)
			continue
		}
		r := Summarize(tc.s)
		if r.NumLogic != tc.spec.NumLogic || r.NumMemory != tc.spec.NumMemory {
			t.Errorf("%s: %d logic + %d memory, want %d + %d",
				tc.name, r.NumLogic, r.NumMemory, tc.spec.NumLogic, tc.spec.NumMemory)
		}
	}
}

func TestSynthesizedRangesMatchPaperTables(t *testing.T) {
	// Tables 4, 8 and 14: every published range endpoint must be attained
	// exactly, and no core may fall outside a published range.
	for _, tc := range synthCases() {
		r := Summarize(tc.s)
		checks := []struct {
			what      string
			got, want Range
		}{
			{"logic patterns", r.LogicPatterns, tc.spec.LogicPatterns},
			{"logic I/Os", r.LogicIO, tc.spec.LogicIO},
			{"logic scan chains", r.LogicChains, tc.spec.LogicChains},
			{"logic chain lengths", r.LogicChainLen, tc.spec.LogicChainLen},
			{"memory patterns", r.MemPatterns, tc.spec.MemPatterns},
			{"memory I/Os", r.MemIO, tc.spec.MemIO},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("%s: %s range %v, want %v", tc.name, c.what, c.got, c.want)
			}
		}
	}
}

func TestSynthesizedComplexityMatchesName(t *testing.T) {
	for _, tc := range synthCases() {
		got := tc.s.TestComplexity()
		tol := tc.spec.Complexity / 200 // 0.5%
		if diff := got - tc.spec.Complexity; diff < -tol || diff > tol {
			t.Errorf("%s: complexity %d, want %d +/- %d", tc.name, got, tc.spec.Complexity, tol)
		}
	}
}

func TestSynthesisDeterministic(t *testing.T) {
	a, err := Synthesize(P93791Spec())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, err := Synthesize(P93791Spec())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("synthesis is not deterministic")
	}
}

func TestP31108Bottleneck(t *testing.T) {
	// The paper: "the testing time for Core 18 in p31108 reaches a
	// minimum value ... Core 18 is always assigned to a TAM ... which
	// does not have any other cores assigned to it". Our synthetic
	// p31108 places its largest logic core at position 18.
	s := P31108()
	if len(s.Cores) != 19 {
		t.Fatalf("p31108 has %d cores, want 19", len(s.Cores))
	}
	core18 := &s.Cores[17]
	if !core18.ScanTestable() {
		t.Fatal("core 18 is not a logic core")
	}
	for i := range s.Cores {
		c := &s.Cores[i]
		if c.ScanTestable() && c.TestDataVolume() > core18.TestDataVolume() {
			t.Errorf("core %d (%s) has larger volume than core 18", i+1, c.Name)
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(SynthSpec{Name: "empty", Complexity: 5}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := P21241Spec()
	spec.Complexity = 0
	if _, err := Synthesize(spec); err == nil {
		t.Error("zero complexity accepted")
	}
	// A target far above what the ranges can produce must fail loudly.
	spec = P21241Spec()
	spec.Complexity = 1 << 40
	if _, err := Synthesize(spec); err == nil {
		t.Error("unreachable complexity accepted")
	}
}

func TestSynthesizedSOCsRoundTrip(t *testing.T) {
	// Generated SOCs must survive the .soc text format.
	for _, tc := range synthCases() {
		back, err := soc.ParseString(tc.s.EncodeString())
		if err != nil {
			t.Errorf("%s: round-trip: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(tc.s, back) {
			t.Errorf("%s: round-trip changed the SOC", tc.name)
		}
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{5, 10}
	if r.clamp(3) != 5 || r.clamp(12) != 10 || r.clamp(7) != 7 {
		t.Error("clamp wrong")
	}
	var acc rangeAcc
	acc.add(4)
	acc.add(9)
	acc.add(2)
	if acc.r != (Range{2, 9}) {
		t.Errorf("rangeAcc = %v, want {2 9}", acc.r)
	}
}

// TestBenchmarkDigestsPinned pins the content digest of every built-in
// benchmark. The digest is the service's cache key and a cluster's
// routing key, so nodes of different builds must compute the same one:
// a change here must come with a digestVersion bump in internal/soc.
func TestBenchmarkDigestsPinned(t *testing.T) {
	want := map[string]string{
		"d695":   "sha256:eccf37eff45e35af83980f55cd8d80cf359ab1440583843d8bc403e8df272894",
		"p21241": "sha256:6521084fff3f9da8c435a24cc3dba1b35609e1f60932e7f32b005f3a30755c53",
		"p31108": "sha256:8fd3f228711dba97eff70a51865d44af320952b59b2422db23fdc2917980334d",
		"p93791": "sha256:7667228fa9515d822352f14a6671a926cb349a1e4e00b8b606357da55348a2d6",
	}
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Digest(); got != want[name] {
			t.Errorf("%s digest = %s, want %s", name, got, want[name])
		}
	}
}
