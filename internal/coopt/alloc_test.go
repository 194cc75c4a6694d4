package coopt

import (
	"testing"

	"soctam/internal/assign"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestPartitionScoringZeroAlloc pins the per-partition scoring kernel —
// Core_assign from the solve's per-width orders with its tie-break
// rules, the stats bookkeeping — at zero allocations on d695 once the
// worker's scratch is warm. The B = 1..MaxTAMs sweep scores hundreds
// of thousands of partitions through this kernel, so a single
// allocation per call is a regression.
func TestPartitionScoringZeroAlloc(t *testing.T) {
	s := socdata.D695()
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	orders := assign.NewOrders(tables)
	parts := []int{4, 8, 8, 12}
	for _, opt := range []Options{{}, {PlainCoreAssign: true}} {
		var w worker
		score := func() {
			if _, ok := scoreOne(orders, &w.asg, parts, 0, opt, &w.stats); !ok {
				t.Fatal("unbounded scoring aborted")
			}
		}
		score() // warm
		if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
			t.Errorf("scoreOne (plain=%v) allocates %.1f/op when warm, want 0",
				opt.PlainCoreAssign, allocs)
		}
	}
}

// TestPowerFeasibilityZeroAlloc pins the power-feasibility check of a
// would-be improvement at zero allocations with a warm worker scratch:
// the scan runs it outside its lock, on the worker's own scratch, so it
// must neither share buffers nor churn them.
func TestPowerFeasibilityZeroAlloc(t *testing.T) {
	s := socdata.D695()
	for i := range s.Cores {
		s.Cores[i].Power = 10 + 7*i
	}
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := newPowerContext(s, Options{MaxPower: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{4, 8, 8, 12}
	inst, err := assign.FromTimeTable(tables, parts)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := assign.CoreAssign(inst, 0)
	if !ok {
		t.Fatal("assignment failed")
	}
	var ps powerScratch
	pc.feasible(tables, parts, a.TAMOf, &ps) // warm
	allocs := testing.AllocsPerRun(100, func() {
		pc.feasible(tables, parts, a.TAMOf, &ps)
	})
	if allocs != 0 {
		t.Errorf("power feasibility allocates %.1f/op when warm, want 0", allocs)
	}
}

// BenchmarkPartitionScoring measures the per-partition scoring kernel on
// d695 — the innermost unit of the Figure 3 sweep, whose cost bounds
// every co-optimization run.
func BenchmarkPartitionScoring(b *testing.B) {
	s := socdata.D695()
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		b.Fatal(err)
	}
	parts := []int{4, 8, 8, 12}
	orders := assign.NewOrders(tables)
	var w worker
	var last soc.Cycles
	scoreOne(orders, &w.asg, parts, 0, Options{}, &w.stats) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := scoreOne(orders, &w.asg, parts, 0, Options{}, &w.stats)
		if !ok {
			b.Fatal("unbounded scoring aborted")
		}
		last = a.Time
	}
	_ = last
}
