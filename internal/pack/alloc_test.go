package pack

import (
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestSkylinePlacementZeroAlloc pins one full best-fit placement pass on
// d695 — placement keys and their sort, flat-run summaries and the
// shortcuts, skyline queries, waste measurement, commits, the
// best-schedule fold — at zero allocations per attempt once the arena
// is warm. This is the invariant the packers' budget sweep relies on:
// only the arena construction and the final clone may allocate.
func TestSkylinePlacementZeroAlloc(t *testing.T) {
	s := socdata.D695()
	const width = 32
	shapes, tables, err := coreShapes(s, width, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := LowerBound(s, tables, width, 0)
	a := newPackArena(width, len(shapes))
	a.shapeKeys(shapes, budget)
	for _, ord := range packOrders { // warm every order's path
		packOnce(a, shapes, budget, ord, 0)
	}
	for _, ord := range packOrders {
		ord := ord
		allocs := testing.AllocsPerRun(20, func() {
			a.shapeKeys(shapes, budget)
			packOnce(a, shapes, budget, ord, 0)
		})
		if allocs != 0 {
			t.Errorf("packOnce(order %d) allocates %.1f/op on a warm arena, want 0", ord, allocs)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		a.shapeKeys(shapes, budget)
		packOnceDiagonal(a, shapes, budget, 0)
	})
	if allocs != 0 {
		t.Errorf("packOnceDiagonal allocates %.1f/op on a warm arena, want 0", allocs)
	}
}

// TestPowerTimelineZeroAlloc pins the incremental power timeline —
// insert, window peak, earliest feasible start — at zero allocations
// once its segment and range-max buffers are warm.
func TestPowerTimelineZeroAlloc(t *testing.T) {
	run := func(tl *powerTimeline) {
		tl.reset()
		for i := 0; i < 32; i++ {
			start := soc.Cycles(i * 13 % 97)
			tl.insert(start, start+soc.Cycles(10+i%7), 5+i%11)
		}
		for i := 0; i < 32; i++ {
			at := soc.Cycles(i * 7 % 120)
			tl.windowPeak(at, at+9)
			tl.earliestStart(60, 8, at, 15)
		}
	}
	var tl powerTimeline
	run(&tl) // warm
	if allocs := testing.AllocsPerRun(20, func() { run(&tl) }); allocs != 0 {
		t.Errorf("power timeline allocates %.1f/op when warm, want 0", allocs)
	}
}

// BenchmarkSkylinePlacement measures one warm best-fit placement attempt
// on d695 at W=32 — the packers' innermost unit of work, repeated per
// budget and order across the sweep.
func BenchmarkSkylinePlacement(b *testing.B) {
	s := socdata.D695()
	const width = 32
	shapes, tables, err := coreShapes(s, width, nil)
	if err != nil {
		b.Fatal(err)
	}
	budget := LowerBound(s, tables, width, 0)
	a := newPackArena(width, len(shapes))
	a.shapeKeys(shapes, budget)
	packOnce(a, shapes, budget, byWidth, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packOnce(a, shapes, budget, byWidth, 0)
	}
}

// BenchmarkPowerTimeline measures a committed-rectangle insert plus the
// placement-candidate queries against it, on a warm timeline (one full
// 64-insert cycle pre-grows every buffer, so the loop is allocation
// free).
func BenchmarkPowerTimeline(b *testing.B) {
	var tl powerTimeline
	step := func(i int) {
		if i%64 == 0 {
			tl.reset()
		}
		start := soc.Cycles(i * 13 % 97)
		tl.insert(start, start+soc.Cycles(10+i%7), 5+i%11)
		tl.windowPeak(start, start+9)
		tl.earliestStart(1<<30, 8, start, 15)
	}
	for i := 0; i < 64; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
