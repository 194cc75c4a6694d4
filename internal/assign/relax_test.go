package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soctam/internal/lp"
	"soctam/internal/sched"
	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

// referenceRelaxationBound is the two-phase relaxation bound the
// crash-started Relaxation replaced: build the Section 3.2 model, solve
// it from scratch, round up. It is the oracle the property below holds
// RelaxationBound and Relaxation.Prunes to.
func referenceRelaxationBound(in *Instance) (bound soc.Cycles, ok bool, err error) {
	model := BuildILP(in)
	sol, err := model.Prob.Solve()
	if err != nil {
		return 0, false, err
	}
	if sol.Status != lp.Optimal {
		return 0, false, nil
	}
	return soc.Cycles(math.Ceil(sol.Objective - 1e-6)), true, nil
}

// relaxInstance draws an instance shaped to stress the relaxation: 1-30
// cores on 1-10 TAMs, times from a range between 1-3 and 1-5M, with
// forced ties (a core's time repeated on the next TAM) and duplicate
// TAM columns.
func relaxInstance(r *rand.Rand) *Instance {
	n, nb := 1+r.Intn(30), 1+r.Intn(10)
	hi := []int{3, 100, 10_000, 5_000_000}[r.Intn(4)]
	in := &Instance{Widths: make([]int, nb), Times: make(sched.Matrix, n)}
	for j := range in.Widths {
		in.Widths[j] = 1 + r.Intn(32)
	}
	for i := range in.Times {
		row := make([]soc.Cycles, nb)
		for j := range row {
			switch {
			case j > 0 && r.Intn(4) == 0:
				row[j] = row[j-1]
			default:
				row[j] = soc.Cycles(1 + r.Intn(hi))
			}
		}
		in.Times[i] = row
	}
	if nb > 1 && r.Intn(3) == 0 {
		src, dst := r.Intn(nb), r.Intn(nb)
		in.Widths[dst] = in.Widths[src]
		for i := range in.Times {
			in.Times[i][dst] = in.Times[i][src]
		}
	}
	return in
}

// TestRelaxationMatchesReference is the proof that the crash-started
// relaxation changes no prune decision of the ILP engine: on random
// instances its bound and ok equal the two-phase reference, and with
// one Relaxation reused across every shape, Prunes(in, c) equals the
// reference's ok && bound >= c at every cutoff near the bound and near
// the greedy makespan — the places a stop level or the greedy skip
// could err.
func TestRelaxationMatchesReference(t *testing.T) {
	var rel Relaxation
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := relaxInstance(r)
		want, wantOK, err := referenceRelaxationBound(in)
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		got, ok, err := RelaxationBound(in)
		if err != nil || got != want || ok != wantOK {
			t.Logf("seed %d (%dx%d): bound %d ok %t err %v, reference %d ok %t",
				seed, in.NumCores(), in.NumTAMs(), got, ok, err, want, wantOK)
			return false
		}
		greedy, _ := CoreAssign(in, 0)
		for _, c := range []soc.Cycles{1, want - 1, want, want + 1, greedy.Time, greedy.Time + 1} {
			prune, err := rel.Prunes(in, greedy, c)
			if err != nil || prune != (wantOK && want >= c) {
				t.Logf("seed %d (%dx%d): Prunes(%d) = %t err %v, reference bound %d ok %t",
					seed, in.NumCores(), in.NumTAMs(), c, prune, err, want, wantOK)
				return false
			}
		}
		return true
	}
	count := 1000
	if testing.Short() {
		count = 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// TestPrunesAllocatesNothing: once its scratch has grown, the prune
// query the ILP engine asks per partition allocates nothing, whether
// the greedy settles it, the stop level does, or the LP runs to its
// optimum. The instance is p21241's best W=24 partition.
func TestPrunesAllocatesNothing(t *testing.T) {
	s := socdata.P21241()
	widths := []int{1, 2, 3, 9, 9}
	tables := make([][]soc.Cycles, len(s.Cores))
	for i := range s.Cores {
		var err error
		if tables[i], err = wrapper.TimeTable(&s.Cores[i], 24); err != nil {
			t.Fatal(err)
		}
	}
	var in Instance
	if err := FromTimeTableInto(&in, tables, widths); err != nil {
		t.Fatal(err)
	}
	greedy, _ := CoreAssign(&in, 0)
	var rel Relaxation
	for _, c := range []soc.Cycles{greedy.Time + 1, greedy.Time, 1} {
		want, _ := rel.Prunes(&in, greedy, c)
		allocs := testing.AllocsPerRun(50, func() {
			if got, err := rel.Prunes(&in, greedy, c); err != nil || got != want {
				t.Fatalf("Prunes(%d) = %t, %v; want %t", c, got, err, want)
			}
		})
		if allocs != 0 {
			t.Errorf("warm Prunes(%d) allocates %.1f times per call, want 0", c, allocs)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := FromTimeTableInto(&in, tables, widths); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm FromTimeTableInto allocates %.1f times per call, want 0", allocs)
	}
}
