package soctam_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"soctam"
)

// goldenEntry is one pre-redesign reference result: every deterministic
// result-relevant field of a PR 4 Solve call, captured from the tree
// before the backend registry existed.
type goldenEntry struct {
	SOC           string `json:"soc"`
	Width         int    `json:"width"`
	Strategy      string `json:"strategy"`
	Time          int64  `json:"time"`
	HeuristicTime int64  `json:"heuristic_time"`
	NumTAMs       int    `json:"num_tams"`
	Partition     []int  `json:"partition,omitempty"`
	Assignment    []int  `json:"assignment,omitempty"`
	Winner        string `json:"winner,omitempty"`
	PeakPower     int    `json:"peak_power"`
	MaxPower      int    `json:"max_power"`
	Optimal       bool   `json:"optimal"`
}

// TestSolveMatchesPreRegistryGolden is the redesign's acceptance gate:
// for all four pre-registry strategies on every benchmark SOC at every
// paper width, Solve through the backend registry reproduces the PR 4
// results bit for bit — testing time, heuristic time, partition,
// assignment, power accounting and (for the portfolio) the winning
// backend. testdata/golden_solve.json was generated from the tree at
// PR 4, before any registry code existed. In -short mode only the two
// smaller SOCs replay.
//
// Every entry replays twice — once sequentially (Workers = 1, the
// paper's evaluation order) and once on the worker pool — because the
// pool's strided workers score partitions out of order, abort one cycle
// above the incumbent and settle ties by sequence number, and both
// paths must reproduce the golden results bit for bit.
func TestSolveMatchesPreRegistryGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_solve.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4*7*4 {
		t.Fatalf("golden file has %d entries, want %d", len(entries), 4*7*4)
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
		strat, err := soctam.ParseStrategy(e.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} { // sequential, then the pool
			res, err := soctam.Solve(s, e.Width, soctam.Options{Strategy: strat, Workers: workers})
			if err != nil {
				t.Fatalf("%s W=%d %s workers=%d: %v", e.SOC, e.Width, e.Strategy, workers, err)
			}
			if int64(res.Time) != e.Time || int64(res.HeuristicTime) != e.HeuristicTime {
				t.Errorf("%s W=%d %s workers=%d: time %d/%d, golden %d/%d",
					e.SOC, e.Width, e.Strategy, workers, res.Time, res.HeuristicTime, e.Time, e.HeuristicTime)
			}
			if res.NumTAMs != e.NumTAMs || !reflect.DeepEqual(res.Partition, canonNil(e.Partition)) {
				t.Errorf("%s W=%d %s workers=%d: partition %v (%d TAMs), golden %v (%d)",
					e.SOC, e.Width, e.Strategy, workers, res.Partition, res.NumTAMs, e.Partition, e.NumTAMs)
			}
			if !reflect.DeepEqual(res.Assignment.TAMOf, canonNil(e.Assignment)) {
				t.Errorf("%s W=%d %s workers=%d: assignment %v, golden %v",
					e.SOC, e.Width, e.Strategy, workers, res.Assignment.TAMOf, e.Assignment)
			}
			if res.PeakPower != e.PeakPower || res.MaxPower != e.MaxPower || res.AssignmentOptimal != e.Optimal {
				t.Errorf("%s W=%d %s workers=%d: peak/max/optimal %d/%d/%t, golden %d/%d/%t",
					e.SOC, e.Width, e.Strategy, workers, res.PeakPower, res.MaxPower, res.AssignmentOptimal,
					e.PeakPower, e.MaxPower, e.Optimal)
			}
			if e.Winner != "" && res.Strategy.String() != e.Winner {
				t.Errorf("%s W=%d %s workers=%d: winner %s, golden %s",
					e.SOC, e.Width, e.Strategy, workers, res.Strategy, e.Winner)
			}
		}
	}
}

// canonNil maps an empty golden slice onto nil so DeepEqual compares
// "no partition" consistently (JSON round-trips nil as absent).
func canonNil(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	return s
}

// TestExhaustiveStrategyEndToEnd covers the promoted engine through the
// library surface: -strategy exhaustive equals the best of the fixed-B
// Exhaustive runs over B = 1..MaxTAMs (the first B attaining it — the
// sweep shares no bound across TAM counts), and a portfolio spec racing
// it returns the exact optimum when the exact optimum is strictly
// better.
func TestExhaustiveStrategyEndToEnd(t *testing.T) {
	s := soctam.D695()
	viaSolve, err := soctam.Solve(s, 16, soctam.Options{Strategy: soctam.StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	var direct soctam.Result
	for b := 1; b <= 10; b++ {
		fixed, err := soctam.Exhaustive(s, 16, b, soctam.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if b == 1 || fixed.Time < direct.Time {
			direct = fixed
		}
	}
	if viaSolve.Time != direct.Time || !reflect.DeepEqual(viaSolve.Partition, direct.Partition) {
		t.Errorf("Solve(exhaustive) (%d, %v) != best fixed-B Exhaustive (%d, %v)",
			viaSolve.Time, viaSolve.Partition, direct.Time, direct.Partition)
	}
	if viaSolve.Strategy != soctam.StrategyExhaustive || !viaSolve.AssignmentOptimal {
		t.Errorf("Solve(exhaustive) strategy %s, optimal %t", viaSolve.Strategy, viaSolve.AssignmentOptimal)
	}

	strat, subset, err := soctam.ParseStrategySpec("portfolio:partition,exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	race, err := soctam.Solve(s, 16, soctam.Options{Strategy: strat, Portfolio: subset})
	if err != nil {
		t.Fatal(err)
	}
	partitionOnly, err := soctam.Solve(s, 16, soctam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Time
	if partitionOnly.Time < want {
		want = partitionOnly.Time
	}
	if race.Time != want {
		t.Errorf("race returned %d cycles, want min(partition %d, exhaustive %d)",
			race.Time, partitionOnly.Time, direct.Time)
	}
	if len(race.Portfolio) != 2 {
		t.Fatalf("race has %d attribution entries, want 2", len(race.Portfolio))
	}
}
