package coopt

import (
	"context"
	"reflect"
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestParallelMatchesSequential checks that the worker pool is invisible
// in the outcome: at every worker count and enumeration strategy the
// chosen partition, assignment and testing times equal the Workers=1
// path (only the Completed/Aborted split of Stats may differ).
func TestParallelMatchesSequential(t *testing.T) {
	s := testSOC()
	for _, enum := range []Enumeration{EnumCanonical, EnumOdometer} {
		seq, err := Solve(s, 14, Options{MaxTAMs: 4, Workers: 1, Enumeration: enum})
		if err != nil {
			t.Fatalf("sequential (%v): %v", enum, err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Solve(s, 14, Options{MaxTAMs: 4, Workers: workers, Enumeration: enum})
			if err != nil {
				t.Fatalf("workers=%d (%v): %v", workers, enum, err)
			}
			if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime {
				t.Errorf("workers=%d (%v): time %d/%d, sequential %d/%d",
					workers, enum, par.Time, par.HeuristicTime, seq.Time, seq.HeuristicTime)
			}
			if !reflect.DeepEqual(par.Partition, seq.Partition) {
				t.Errorf("workers=%d (%v): partition %v, sequential %v",
					workers, enum, par.Partition, seq.Partition)
			}
			if !reflect.DeepEqual(par.Assignment.TAMOf, seq.Assignment.TAMOf) {
				t.Errorf("workers=%d (%v): assignment %v, sequential %v",
					workers, enum, par.Assignment.TAMOf, seq.Assignment.TAMOf)
			}
			if par.Stats.Enumerated != seq.Stats.Enumerated {
				t.Errorf("workers=%d (%v): enumerated %d, sequential %d",
					workers, enum, par.Stats.Enumerated, seq.Stats.Enumerated)
			}
		}
	}
}

// TestParallelMatchesSequentialD695 is the acceptance check on the real
// benchmark: parallel Solve returns the same testing time (and winning
// partition) as Workers=1 on d695. Run with -race to exercise the pool.
func TestParallelMatchesSequentialD695(t *testing.T) {
	s := socdata.D695()
	for _, width := range []int{24, 32} {
		seq, err := Solve(s, width, Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential W=%d: %v", width, err)
		}
		par, err := Solve(s, width, Options{Workers: 4})
		if err != nil {
			t.Fatalf("parallel W=%d: %v", width, err)
		}
		if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime {
			t.Errorf("W=%d: parallel time %d/%d, sequential %d/%d",
				width, par.Time, par.HeuristicTime, seq.Time, seq.HeuristicTime)
		}
		if !reflect.DeepEqual(par.Partition, seq.Partition) {
			t.Errorf("W=%d: parallel partition %v, sequential %v", width, par.Partition, seq.Partition)
		}
	}
}

// TestParallelMatchesSequentialW64 holds the pool to one worker on the
// four paper SOCs at W=64, where nearly every partition aborts and
// p31108's incumbent sits at the lower bound with thousands of ties
// behind it: the pool aborts the ties enumerated after the incumbent's
// partition at the incumbent and completes the earlier ones, and the
// time, partition and assignment must not move.
func TestParallelMatchesSequentialW64(t *testing.T) {
	if testing.Short() {
		t.Skip("W=64 scans")
	}
	for _, name := range []string{"d695", "p21241", "p31108", "p93791"} {
		s, err := socdata.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Solve(s, 64, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s, 1 worker: %v", name, err)
		}
		par, err := Solve(s, 64, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s, 4 workers: %v", name, err)
		}
		if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime ||
			!reflect.DeepEqual(par.Partition, seq.Partition) || !reflect.DeepEqual(par.Assignment, seq.Assignment) {
			t.Errorf("%s: 4 workers %d (heuristic %d) on %v %s, 1 worker %d (heuristic %d) on %v %s", name,
				par.Time, par.HeuristicTime, par.Partition, par.Assignment.Vector(),
				seq.Time, seq.HeuristicTime, seq.Partition, seq.Assignment.Vector())
		}
		if par.Stats.Enumerated != seq.Stats.Enumerated {
			t.Errorf("%s: 4 workers enumerated %d, 1 worker %d", name, par.Stats.Enumerated, seq.Stats.Enumerated)
		}
	}
}

// TestOfferRefusesLateTies pins the pool's tie rule at the incumbent: a
// tie enumerated after the incumbent's partition cannot win, so bound
// aborts it at the incumbent and offer refuses it before the power
// check, never booking it PowerInfeasible; an earlier tie is bounded one
// cycle above and still reaches the check.
func TestOfferRefusesLateTies(t *testing.T) {
	s := testSOC()
	for i := range s.Cores {
		s.Cores[i].Power = 10
	}
	sc, err := newScan(context.Background(), s, 16, Options{MaxPower: 30}, nil,
		scanPlan{backend: partitionBackendName, workers: 2, poll: heuristicPoll})
	if err != nil {
		t.Fatal(err)
	}
	w := &sc.workers[0]
	// One TAM tests the cores one at a time, at power 10; six TAMs of
	// one core each test all of them at once, at 60.
	serial, spread := []int{16}, []int{1, 1, 1, 1, 1, 11}
	if !sc.offer(w, 100, serial, []int{0, 0, 0, 0, 0, 0}, 10) {
		t.Fatal("the first offer did not become the incumbent")
	}
	if got := sc.bound(20); got != 100 {
		t.Errorf("bound of a later partition %d, want the incumbent's 100", got)
	}
	if got := sc.bound(5); got != 101 {
		t.Errorf("bound of an earlier partition %d, want 101", got)
	}
	if sc.offer(w, 100, spread, []int{0, 1, 2, 3, 4, 5}, 20) || w.stats.PowerInfeasible != 0 {
		t.Errorf("a later tie was taken or power-checked: PowerInfeasible %d", w.stats.PowerInfeasible)
	}
	if sc.offer(w, 100, spread, []int{0, 1, 2, 3, 4, 5}, 5) || w.stats.PowerInfeasible != 1 {
		t.Errorf("an earlier infeasible tie was taken or not power-checked: PowerInfeasible %d", w.stats.PowerInfeasible)
	}
	if !sc.offer(w, 100, serial, []int{0, 0, 0, 0, 0, 0}, 5) || sc.bestSeq.Load() != 5 {
		t.Errorf("an earlier feasible tie did not take the incumbent: sequence %d", sc.bestSeq.Load())
	}
}

// TestParallelZeroTimeSOC pins the degenerate case where every
// partition scores 0 cycles: a genuine 0-cycle best must not collide
// with the "no best yet" sentinel, so the winning partition stays the
// first enumerated one at any worker count.
func TestParallelZeroTimeSOC(t *testing.T) {
	s := &soc.SOC{Name: "zero", Cores: []soc.Core{
		{Outputs: 2, Patterns: 0},
		{Outputs: 3, Patterns: 0},
	}}
	seq, err := Solve(s, 6, Options{MaxTAMs: 3, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if seq.Time != 0 {
		t.Fatalf("zero-time SOC scored %d cycles", seq.Time)
	}
	for _, workers := range []int{2, 8} {
		par, err := Solve(s, 6, Options{MaxTAMs: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
			t.Errorf("workers=%d: %d %v, sequential %d %v",
				workers, par.Time, par.Partition, seq.Time, seq.Partition)
		}
	}
}

// TestParallelPartitionEvaluate covers the fixed-B entry point.
func TestParallelPartitionEvaluate(t *testing.T) {
	s := testSOC()
	seq, err := PartitionEvaluate(s, 16, 3, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := PartitionEvaluate(s, 16, 3, Options{Workers: 4})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
		t.Errorf("parallel %d %v, sequential %d %v", par.Time, par.Partition, seq.Time, seq.Partition)
	}
	if _, err := PartitionEvaluate(s, 4, 8, Options{Workers: 4}); err == nil {
		t.Error("parallel path accepted B > W")
	}
}

// TestWorkersOption pins the Workers resolution rules.
func TestWorkersOption(t *testing.T) {
	if got := (Options{Workers: -3}).workers(); got != 1 {
		t.Errorf("Workers=-3 resolved to %d, want 1", got)
	}
	if got := (Options{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers=5 resolved to %d, want 5", got)
	}
	if got := (Options{}).workers(); got < 1 {
		t.Errorf("default workers %d < 1", got)
	}
}

// TestSolveDispatch checks the unified entry point against its backends.
func TestSolveDispatch(t *testing.T) {
	s := testSOC()
	part, err := Solve(s, 12, Options{MaxTAMs: 3})
	if err != nil {
		t.Fatalf("Solve(partition): %v", err)
	}
	if part.Strategy != StrategyPartition {
		t.Errorf("Solve(partition) answered by %v", part.Strategy)
	}
	// The sweep and the fixed-B entry point run the same B loop: the
	// sweep's heuristic winner is the best per-B heuristic winner.
	var bestHeur soc.Cycles
	for b := 1; b <= 3; b++ {
		fixed, err := PartitionEvaluate(s, 12, b, Options{})
		if err != nil {
			t.Fatalf("PartitionEvaluate(B=%d): %v", b, err)
		}
		if b == 1 || fixed.HeuristicTime < bestHeur {
			bestHeur = fixed.HeuristicTime
		}
	}
	if part.HeuristicTime != bestHeur {
		t.Errorf("Solve(partition) heuristic time %d, best fixed-B heuristic time %d", part.HeuristicTime, bestHeur)
	}
	packed, err := Solve(s, 12, Options{Strategy: StrategyPacking})
	if err != nil {
		t.Fatalf("Solve(packing): %v", err)
	}
	if packed.Strategy != StrategyPacking || packed.Packing == nil {
		t.Fatalf("Solve(packing) returned no schedule: %+v", packed)
	}
	if err := Validate(s, 12, packed); err != nil {
		t.Errorf("packing answer invalid: %v", err)
	}
	if packed.Partition != nil || packed.Packing.TotalWidth != 12 {
		t.Errorf("packing result carries partition %v / width %d", packed.Partition, packed.Packing.TotalWidth)
	}
}

// TestStrategyString names the strategies.
func TestStrategyString(t *testing.T) {
	if StrategyPartition.String() != "partition" || StrategyPacking.String() != "packing" {
		t.Error("strategy names wrong")
	}
	if Strategy(7).String() != "Strategy(7)" {
		t.Error("unknown strategy string")
	}
}

// TestParallelMatchesSequentialPower extends the worker-pool invisibility
// guarantee to power-constrained runs: the feasibility filter is
// partition-intrinsic, so the chosen partition and testing time must not
// depend on the worker count under any ceiling.
func TestParallelMatchesSequentialPower(t *testing.T) {
	s := socdata.D695()
	for _, pmax := range []int{2500, 1800, 1200} {
		seq, err := Solve(s, 32, Options{Workers: 1, MaxPower: pmax})
		if err != nil {
			t.Fatalf("sequential Pmax=%d: %v", pmax, err)
		}
		if seq.PeakPower > pmax {
			t.Errorf("sequential Pmax=%d: peak %d above ceiling", pmax, seq.PeakPower)
		}
		for _, workers := range []int{2, 4} {
			par, err := Solve(s, 32, Options{Workers: workers, MaxPower: pmax})
			if err != nil {
				t.Fatalf("workers=%d Pmax=%d: %v", workers, pmax, err)
			}
			if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
				t.Errorf("workers=%d Pmax=%d: %d on %v, sequential %d on %v",
					workers, pmax, par.Time, par.Partition, seq.Time, seq.Partition)
			}
			if par.PeakPower != seq.PeakPower {
				t.Errorf("workers=%d Pmax=%d: peak %d, sequential %d", workers, pmax, par.PeakPower, seq.PeakPower)
			}
		}
	}
}
