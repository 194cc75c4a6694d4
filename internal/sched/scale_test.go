package sched_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"soctam/internal/assign"
	"soctam/internal/sched"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// matchesReference requires BranchAndBound's Result, node count
// included, to equal the reference's under opt.
func matchesReference(t *testing.T, name string, m sched.Matrix, opt sched.Options) {
	t.Helper()
	want, werr := sched.ReferenceBranchAndBound(m, opt)
	got, gerr := sched.BranchAndBound(m, opt)
	if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s, limit %d, cutoff %d, warm %t:\n got %+v (%v)\nwant %+v (%v)",
			name, opt.NodeLimit, opt.Cutoff, opt.WarmAssign != nil, got, gerr, want, werr)
	}
}

// p93791's two node-capped final steps, W=16 [3 3 5 5] and W=48
// [3 4 5 6 15 15], are the searches whose node cost the solver pays
// most. Both run to any cap, so their answers depend on every node
// visited: the search must walk the reference's tree there, with and
// without the exact step's warm start (Core_assign plus LocalImprove,
// as assign.SolveExact seeds it), and with cutoffs at the capped answer
// and one below it.
func TestBranchAndBoundMatchesReferenceOnP93791(t *testing.T) {
	s := socdata.P93791()
	for _, widths := range [][]int{{3, 3, 5, 5}, {3, 4, 5, 6, 15, 15}} {
		in, err := assign.NewInstance(s, widths)
		if err != nil {
			t.Fatal(err)
		}
		greedy, _ := assign.CoreAssign(in, 0)
		for _, warm := range [][]int{nil, assign.LocalImprove(in, greedy).TAMOf} {
			for _, limit := range []int64{1_000, 200_000} {
				capped, err := sched.BranchAndBound(in.Times, sched.Options{WarmAssign: warm, NodeLimit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if capped.Optimal || capped.Nodes != limit {
					t.Fatalf("%v, limit %d: %d nodes, optimal %t; the search must hit the cap",
						widths, limit, capped.Nodes, capped.Optimal)
				}
				for _, cutoff := range []soc.Cycles{0, capped.Makespan, capped.Makespan - 1} {
					opt := sched.Options{WarmAssign: warm, NodeLimit: limit, Cutoff: cutoff}
					matchesReference(t, fmt.Sprintf("p93791 %v", widths), in.Times, opt)
				}
			}
		}
	}
}

// Two jobs of about 2^61 cycles on four machines put
// (incumbent-1)·machines above math.MaxInt64, so the bound's threshold
// saturates, and the search must still walk the reference's tree. The
// five small jobs are slow on machines 0 and 3, where two of them
// outlast a big job, so the search has to place them.
func TestBranchAndBoundMatchesReferenceNearOverflow(t *testing.T) {
	const big = soc.Cycles(1) << 61
	const far = 3 * (soc.Cycles(1) << 59)
	m := sched.Matrix{
		{big + 5, big + 9, big + 2, big + 11},
		{big + 7, big + 3, big + 8, big + 40},
		{far, 3, 5, far},
		{far, 4, 2, far},
		{far, 6, 6, far},
		{far, 1, 7, far},
		{far, 5, 3, far},
	}
	_, greedy, err := sched.Greedy(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sched.ReferenceBranchAndBound(m, sched.Options{})
	if err != nil || !full.Optimal {
		t.Fatalf("reference did not prove the optimum: %+v %v", full, err)
	}
	if full.Makespan-1 <= math.MaxInt64/4 || full.Nodes < 10 {
		t.Fatalf("optimum %d after %d nodes; the test needs (optimum-1)*4 past math.MaxInt64 and a real search",
			full.Makespan, full.Nodes)
	}
	for _, limit := range []int64{1, 2, 5, 50, 0} {
		for _, cutoff := range []soc.Cycles{0, full.Makespan - 1, full.Makespan, full.Makespan + 1, greedy} {
			matchesReference(t, "near overflow", m, sched.Options{NodeLimit: limit, Cutoff: cutoff})
		}
	}
}
