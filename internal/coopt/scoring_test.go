package coopt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"soctam/internal/assign"
	"soctam/internal/partition"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestPartitionSearchPinned pins the partition flow's whole Figure 3
// search, not just its answer: with one worker and no final step, the
// heuristic time and every Stats count must equal the figures recorded
// before Core_assign moved to per-width core orders, so a changed pick
// or a changed abort point on any of the 296,320 W=64 partitions fails
// here even when the winner survives it. Beside the canonical
// enumeration's sorted partitions, a cell covers the odometer's
// unsorted ones; each was recorded before the lookahead skipped
// Core_assign on partitions it must abort.
func TestPartitionSearchPinned(t *testing.T) {
	for _, tc := range []struct {
		soc      string
		width    int
		enum     Enumeration
		maxPower int
		heur     int64
		want     Stats
	}{
		{"d695", 64, EnumCanonical, 0, 11034, Stats{Enumerated: 296320, Completed: 47, Aborted: 296273, Improved: 47}},
		{"p21241", 64, EnumCanonical, 0, 326184, Stats{Enumerated: 296320, Completed: 77, Aborted: 296243, Improved: 77}},
		{"p31108", 64, EnumCanonical, 0, 602021, Stats{Enumerated: 296320, Completed: 48, Aborted: 296272, Improved: 48}},
		{"p93791", 48, EnumCanonical, 0, 1745344, Stats{Enumerated: 49037, Completed: 40, Aborted: 48997, Improved: 40}},
		{"p93791", 64, EnumCanonical, 0, 1501359, Stats{Enumerated: 296320, Completed: 55, Aborted: 296265, Improved: 55}},
		{"d695", 32, EnumCanonical, 1800, 29518, Stats{Enumerated: 5013, Completed: 873, Aborted: 4140, Improved: 10, PowerInfeasible: 863}},
		{"p93791", 40, EnumOdometer, 0, 2195422, Stats{Enumerated: 3519554, Completed: 17, Aborted: 3519537, Improved: 17}},
	} {
		if testing.Short() && (tc.width == 64 || tc.enum == EnumOdometer) {
			continue
		}
		s, err := socdata.ByName(tc.soc)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s W=%d %v P=%d", tc.soc, tc.width, tc.enum, tc.maxPower)
		res, err := Solve(s, tc.width, Options{Workers: 1, SkipFinal: true, Enumeration: tc.enum, MaxPower: tc.maxPower})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if int64(res.HeuristicTime) != tc.heur || res.Stats != tc.want {
			t.Errorf("%s: heuristic %d stats %+v; want %d, %+v", name, res.HeuristicTime, res.Stats, tc.heur, tc.want)
		}
	}
}

// TestPartitionFlowOnRandomSOCs is the partition slice of the random-SOC
// differential check: SOCs synthesized from p93791's parameter ranges
// (4-40 cores, W 8-32), every other one under a power ceiling between
// the largest core power and the total, solved with a small node limit
// so the final exact step stays cheap. One worker and four must agree
// on the time, the heuristic time, the partition and the assignment,
// and the answer must validate.
func TestPartitionFlowOnRandomSOCs(t *testing.T) {
	want := 200
	if testing.Short() {
		want = 50
	}
	r := rand.New(rand.NewSource(2))
	base := socdata.P93791Spec()
	cases := 0
	for attempt := 0; cases < want; attempt++ {
		if attempt == 10*want {
			t.Fatalf("only %d of %d synthesized SOCs were accepted", cases, attempt)
		}
		n := 4 + r.Intn(37)
		spec := base
		spec.Name = fmt.Sprintf("rand%d", attempt)
		spec.NumLogic = max(2, n*base.NumLogic/(base.NumLogic+base.NumMemory))
		spec.NumMemory = n - spec.NumLogic
		spec.Complexity = base.Complexity * n / (base.NumLogic + base.NumMemory)
		spec.Seed = r.Int63()
		w := 8 + r.Intn(25)
		ceilingDraw := r.Float64()
		s, err := socdata.Synthesize(spec)
		if err != nil {
			continue
		}
		cases++
		opt := Options{NodeLimit: 2000}
		if cases%2 == 0 {
			top, total := 0, 0
			for _, c := range s.Cores {
				top = max(top, c.Power)
				total += c.Power
			}
			opt.MaxPower = top + int(ceilingDraw*float64(total-top))
		}
		name := fmt.Sprintf("%s (%d cores) W=%d P=%d", spec.Name, n, w, opt.MaxPower)

		seqOpt, parOpt := opt, opt
		seqOpt.Workers, parOpt.Workers = 1, 4
		seq, err := Solve(s, w, seqOpt)
		if err != nil {
			t.Fatalf("%s, 1 worker: %v", name, err)
		}
		par, err := Solve(s, w, parOpt)
		if err != nil {
			t.Fatalf("%s, 4 workers: %v", name, err)
		}
		if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime ||
			!reflect.DeepEqual(par.Partition, seq.Partition) || !reflect.DeepEqual(par.Assignment, seq.Assignment) {
			t.Errorf("%s: 4 workers %d (heuristic %d) on %v %s, 1 worker %d (heuristic %d) on %v %s", name,
				par.Time, par.HeuristicTime, par.Partition, par.Assignment.Vector(),
				seq.Time, seq.HeuristicTime, seq.Partition, seq.Assignment.Vector())
		}
		if err := Validate(s, w, seq); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLookaheadSound is the differential check of the partition
// engine's lookahead (assign.Orders.Aborts) on the random-SOC draw
// (randomCases) and on a hand-built SOC at W=24 whose cores include two
// of zero time and a tied pair. Every partition of each case's width
// into at most 6 parts is asked under each enumeration's part order, at
// bounds of g quarters of its unbounded time for g = 1..5, and wherever
// the lookahead rejects, Core_assign on a fresh instance must abort at
// that bound. Each enumeration must see rejects, so neither passes
// vacuously.
func TestLookaheadSound(t *testing.T) {
	cases := randomCases(t)
	if testing.Short() {
		cases = cases[:50]
	}
	hand := testSOC()
	hand.Cores = append(hand.Cores,
		soc.Core{Name: "zero2", Outputs: 2},
		soc.Core{Name: "zero3", Outputs: 3},
		soc.Core{Name: "mem2", Inputs: 10, Outputs: 10, Patterns: 500})
	cases = append(cases, randomCase{name: "hand-built", s: hand, width: 24})
	const maxParts = 6
	enums := []Enumeration{EnumCanonical, EnumOdometer}
	var rejects [2]int // by enumeration
	for _, rc := range cases {
		tables, err := TimeTables(rc.s, rc.width)
		if err != nil {
			t.Fatal(err)
		}
		orders := assign.NewOrders(tables, maxParts)
		var sc assign.Scratch
		var src source
		for e, enum := range enums {
			for b := 1; b <= min(maxParts, rc.width); b++ {
				if err := src.reset(enum, rc.width, b); err != nil {
					t.Fatal(err)
				}
				for parts, ok := src.next(); ok; parts, ok = src.next() {
					full, _ := orders.CoreAssign(&sc, parts, 0)
					// Core_assign's picks do not depend on the bound, so a
					// call that aborts at one bound aborts at every smaller
					// one: the largest rejected bound is the one to check.
					var top soc.Cycles
					for g := soc.Cycles(1); g <= 5; g++ {
						if bound := full.Time * g / 4; orders.Aborts(&sc, parts, bound) {
							rejects[e]++
							top = bound
						}
					}
					if top == 0 {
						continue
					}
					in, err := assign.FromTimeTable(tables, parts)
					if err != nil {
						t.Fatal(err)
					}
					if a, ok := assign.CoreAssign(in, top); ok {
						t.Fatalf("%s: %v (%v) rejected at bound %d, but Core_assign completes at %d",
							rc.name, parts, enum, top, a.Time)
					}
				}
			}
		}
	}
	for e, enum := range enums {
		if rejects[e] == 0 {
			t.Errorf("%v: the lookahead rejected nothing", enum)
		}
	}
	t.Logf("rejects (by enumeration): %v", rejects)
}

// TestOrdersSharedAcrossGoroutines scores every partition of p93791's
// W=24 into at most 6 TAMs from several goroutines sharing one set of
// per-width orders, each on its own scratch and at its own bound, and
// holds every result to the instance feed's on a fresh instance. It is
// the race detector's view of the worker pool's sharing: run it with
// -race -count=10 after touching the orders or the scoring kernel.
func TestOrdersSharedAcrossGoroutines(t *testing.T) {
	s := socdata.P93791()
	const width = 24
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]int
	for b := 1; b <= 6; b++ {
		partition.Enumerate(width, b, func(p []int) bool {
			parts = append(parts, append([]int(nil), p...))
			return true
		})
	}
	// Goroutine g runs at a bound of g quarters of the partition's
	// unbounded time (0 = none).
	const goroutines = 4
	type outcome struct {
		bound soc.Cycles
		a     assign.Assignment
		ok    bool
	}
	want := make([][goroutines]outcome, len(parts))
	for k, p := range parts {
		in, err := assign.FromTimeTable(tables, p)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := assign.CoreAssign(in, 0)
		for g := range goroutines {
			bound := full.Time * soc.Cycles(g) / goroutines
			a, ok := assign.CoreAssign(in, bound)
			want[k][g] = outcome{bound, a, ok}
		}
	}
	orders := assign.NewOrders(tables, 0)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc assign.Scratch
			var stats Stats
			for step := range parts {
				k := (step + g*len(parts)/goroutines) % len(parts) // start apart
				w := want[k][g]
				a, ok := scoreOne(orders, &sc, parts[k], w.bound, &stats)
				if ok != w.ok || !reflect.DeepEqual(a, w.a) {
					t.Errorf("goroutine %d, %v at bound %d: got %v %d ok=%t, want %v %d ok=%t",
						g, parts[k], w.bound, a.TAMOf, a.Time, ok, w.a.TAMOf, w.a.Time, w.ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
