package soctam_test

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"soctam"
)

var updateILPGolden = flag.Bool("update-ilp-golden", false,
	"rewrite testdata/golden_ilp.json from the current tree")

// ilpGoldenEntry pins one StrategyILP result bit for bit: the engine is
// sequential and deterministic, so everything result-relevant — the
// partition, the concrete assignment, the proof bit, the gap — must
// replay exactly, not just the testing time.
type ilpGoldenEntry struct {
	SOC        string  `json:"soc"`
	Width      int     `json:"width"`
	Time       int64   `json:"time"`
	NumTAMs    int     `json:"num_tams"`
	Partition  []int   `json:"partition"`
	Assignment []int   `json:"assignment"`
	Proven     bool    `json:"proven"`
	Optimal    bool    `json:"optimal"`
	Gap        float64 `json:"gap"`
	PeakPower  int     `json:"peak_power"`
	MaxPower   int     `json:"max_power"`
}

// ilpGoldenMatrix is the (SOC, width) grid the golden file covers:
// every benchmark SOC, at widths where the engine answers in
// milliseconds — plus d695 at the full 32-wire budget, where the
// exhaustive baseline is already painful but the pruned search is not.
var ilpGoldenMatrix = []struct {
	soc    string
	widths []int
}{
	{"d695", []int{6, 16, 32}},
	{"p21241", []int{6, 8, 10}},
	{"p31108", []int{6, 16}},
	{"p93791", []int{6}},
}

// TestILPGoldenReplay replays testdata/golden_ilp.json against the
// registered ILP engine. Regenerate with
//
//	go test -run TestILPGoldenReplay -update-ilp-golden .
//
// and review the diff as carefully as a code change: any drift here
// means the "same optimum on every instance" claim silently changed.
// In -short mode only the two smaller SOCs replay (as in the
// pre-registry golden gate).
func TestILPGoldenReplay(t *testing.T) {
	const path = "testdata/golden_ilp.json"
	if *updateILPGolden {
		var entries []ilpGoldenEntry
		for _, m := range ilpGoldenMatrix {
			s, err := soctam.BenchmarkSOC(m.soc)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range m.widths {
				res, err := soctam.Solve(s, w, soctam.Options{Strategy: soctam.StrategyILP})
				if err != nil {
					t.Fatalf("%s W=%d: %v", m.soc, w, err)
				}
				entries = append(entries, ilpGoldenEntry{
					SOC:        m.soc,
					Width:      w,
					Time:       int64(res.Time),
					NumTAMs:    res.NumTAMs,
					Partition:  res.Partition,
					Assignment: res.Assignment.TAMOf,
					Proven:     res.Proven,
					Optimal:    res.AssignmentOptimal,
					Gap:        res.Gap,
					PeakPower:  res.PeakPower,
					MaxPower:   res.MaxPower,
				})
			}
		}
		raw, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(entries), path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []ilpGoldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	wantEntries := 0
	for _, m := range ilpGoldenMatrix {
		wantEntries += len(m.widths)
	}
	if len(entries) != wantEntries {
		t.Fatalf("golden file has %d entries, want %d", len(entries), wantEntries)
	}
	socs := make(map[string]*soctam.SOC)
	for _, e := range entries {
		if testing.Short() && (e.SOC == "p31108" || e.SOC == "p93791") {
			continue
		}
		s, ok := socs[e.SOC]
		if !ok {
			s, err = soctam.BenchmarkSOC(e.SOC)
			if err != nil {
				t.Fatal(err)
			}
			socs[e.SOC] = s
		}
		res, err := soctam.Solve(s, e.Width, soctam.Options{Strategy: soctam.StrategyILP})
		if err != nil {
			t.Fatalf("%s W=%d: %v", e.SOC, e.Width, err)
		}
		if int64(res.Time) != e.Time || res.NumTAMs != e.NumTAMs {
			t.Errorf("%s W=%d: %d cycles / %d TAMs, golden %d / %d",
				e.SOC, e.Width, res.Time, res.NumTAMs, e.Time, e.NumTAMs)
		}
		if !reflect.DeepEqual(res.Partition, e.Partition) {
			t.Errorf("%s W=%d: partition %v, golden %v", e.SOC, e.Width, res.Partition, e.Partition)
		}
		if !reflect.DeepEqual(res.Assignment.TAMOf, e.Assignment) {
			t.Errorf("%s W=%d: assignment %v, golden %v", e.SOC, e.Width, res.Assignment.TAMOf, e.Assignment)
		}
		if res.Proven != e.Proven || res.AssignmentOptimal != e.Optimal || res.Gap != e.Gap {
			t.Errorf("%s W=%d: proven/optimal/gap %t/%t/%g, golden %t/%t/%g",
				e.SOC, e.Width, res.Proven, res.AssignmentOptimal, res.Gap, e.Proven, e.Optimal, e.Gap)
		}
		if res.PeakPower != e.PeakPower || res.MaxPower != e.MaxPower {
			t.Errorf("%s W=%d: peak/max power %d/%d, golden %d/%d",
				e.SOC, e.Width, res.PeakPower, res.MaxPower, e.PeakPower, e.MaxPower)
		}
	}
}

// TestILPStrategyEndToEnd covers the exact engine through the library
// surface, mirroring the exhaustive engine's end-to-end gate:
// -strategy ilp reproduces the exhaustive optimum, and the
// portfolio:packing,ilp spec races the fast heuristic against the
// proof without ever doing worse than either.
func TestILPStrategyEndToEnd(t *testing.T) {
	s := soctam.D695()
	viaILP, err := soctam.Solve(s, 16, soctam.Options{Strategy: soctam.StrategyILP})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := soctam.Solve(s, 16, soctam.Options{Strategy: soctam.StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if viaILP.Time != direct.Time {
		t.Errorf("Solve(ilp) %d cycles != Solve(exhaustive) %d", viaILP.Time, direct.Time)
	}
	if viaILP.Strategy != soctam.StrategyILP || !viaILP.Proven {
		t.Errorf("Solve(ilp) strategy %s, proven %t", viaILP.Strategy, viaILP.Proven)
	}

	strat, subset, err := soctam.ParseStrategySpec("portfolio:packing,ilp")
	if err != nil {
		t.Fatal(err)
	}
	race, err := soctam.Solve(s, 16, soctam.Options{Strategy: strat, Portfolio: subset})
	if err != nil {
		t.Fatal(err)
	}
	packing, err := soctam.Solve(s, 16, soctam.Options{Strategy: soctam.StrategyPacking})
	if err != nil {
		t.Fatal(err)
	}
	want := viaILP.Time
	if packing.Time < want {
		want = packing.Time
	}
	if race.Time != want {
		t.Errorf("race returned %d cycles, want min(packing %d, ilp %d)",
			race.Time, packing.Time, viaILP.Time)
	}
	if len(race.Portfolio) != 2 {
		t.Fatalf("race has %d attribution entries, want 2", len(race.Portfolio))
	}
}
