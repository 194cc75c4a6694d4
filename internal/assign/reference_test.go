package assign

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

// referenceScratch and grow carry the buffers of referenceCoreAssign.
type referenceScratch struct {
	tamOf     []int
	loads     []soc.Cycles
	lookAhead []int
}

// grow returns s resized to n, reallocating only when the capacity is
// short; contents are unspecified.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// referenceCoreAssign is the Figure 1 body the per-width orders
// replaced, kept verbatim as the oracle of TestCoreAssignMatchesReference:
// every pick scans all unassigned cores, and the line 15 lookahead
// target is computed eagerly for every TAM.
func referenceCoreAssign(in *Instance, bestKnown soc.Cycles, sc *referenceScratch) (Assignment, bool) {
	n, nb := in.NumCores(), in.NumTAMs()
	sc.tamOf = grow(sc.tamOf, n)
	if cap(sc.loads) < nb {
		sc.loads = make([]soc.Cycles, nb)
	} else {
		sc.loads = sc.loads[:nb]
	}
	for j := range sc.loads {
		sc.loads[j] = 0
	}
	a := Assignment{TAMOf: sc.tamOf, Loads: sc.loads}
	for i := range a.TAMOf {
		a.TAMOf[i] = -1
	}
	// lookAhead[j] = widest TAM strictly narrower than TAM j (-1 if none):
	// the paper's line 15 tie-break target.
	sc.lookAhead = grow(sc.lookAhead, nb)
	lookAhead := sc.lookAhead
	for j := range lookAhead {
		lookAhead[j] = -1
		for k := 0; k < nb; k++ {
			if in.Widths[k] < in.Widths[j] &&
				(lookAhead[j] < 0 || in.Widths[k] > in.Widths[lookAhead[j]]) {
				lookAhead[j] = k
			}
		}
	}
	for remaining := n; remaining > 0; remaining-- {
		// Lines 10–12: TAM with minimum load; ties to the maximum width.
		j := 0
		for k := 1; k < nb; k++ {
			switch {
			case a.Loads[k] < a.Loads[j]:
				j = k
			case a.Loads[k] == a.Loads[j] && in.Widths[k] > in.Widths[j]:
				j = k
			}
		}
		// Lines 13–16: unassigned core with maximum time on TAM j; ties
		// look ahead to the widest narrower TAM.
		best := -1
		tied := false
		for i := 0; i < n; i++ {
			if a.TAMOf[i] >= 0 {
				continue
			}
			switch {
			case best < 0 || in.Times[i][j] > in.Times[best][j]:
				best, tied = i, false
			case in.Times[i][j] == in.Times[best][j]:
				tied = true
			}
		}
		if tied && lookAhead[j] >= 0 {
			k := lookAhead[j]
			top := in.Times[best][j]
			for i := 0; i < n; i++ {
				if a.TAMOf[i] >= 0 || in.Times[i][j] != top {
					continue
				}
				if in.Times[i][k] > in.Times[best][k] {
					best = i
				}
			}
		}
		// Line 17: assign.
		a.TAMOf[best] = j
		a.Loads[j] += in.Times[best][j]
		if a.Loads[j] > a.Time {
			a.Time = a.Loads[j]
		}
		// Lines 18–20: abort if the best-known time is already matched.
		if bestKnown > 0 && a.Time >= bestKnown {
			return a, false
		}
	}
	return a, true
}

// tieTables draws testing-time tables shaped to stress the pick: 1–40
// cores over widths 1..W (W up to 16), times from a range between 1–3
// and 1–5M, with about a quarter of the rows copies of an earlier row
// so equal times tie across cores on every width.
func tieTables(r *rand.Rand) [][]soc.Cycles {
	n, width := 1+r.Intn(40), 1+r.Intn(16)
	hi := []int{3, 100, 10_000, 5_000_000}[r.Intn(4)]
	tables := make([][]soc.Cycles, n)
	for i := range tables {
		if i > 0 && r.Intn(4) == 0 {
			tables[i] = slices.Clone(tables[r.Intn(i)])
			continue
		}
		row := make([]soc.Cycles, width)
		for w := range row {
			row[w] = soc.Cycles(1 + r.Intn(hi))
		}
		tables[i] = row
	}
	return tables
}

// tieWidths draws 1–10 TAM widths in 1..width, sorted ascending (the
// partition enumerators' order) in half the draws and unsorted in the
// rest; repeated widths are common at small width.
func tieWidths(r *rand.Rand, width int) []int {
	widths := make([]int, 1+r.Intn(10))
	for j := range widths {
		widths[j] = 1 + r.Intn(width)
	}
	if r.Intn(2) == 0 {
		slices.Sort(widths)
	}
	return widths
}

// TestCoreAssignMatchesReference is the proof that the per-width
// orders changed no pick: on random instances with forced ties and at
// bounds that abort at the first pick, halfway, exactly at the final
// time and never, CoreAssign through the instance feed (fresh and
// reused scratch) and through the partition feed
// (Orders over the tables) returns the reference body's TAMOf, Loads,
// Time and ok — partial assignments included. The instance feed is
// also run on an instance whose widths are drawn apart from its
// columns, so equal widths need not mean equal times.
func TestCoreAssignMatchesReference(t *testing.T) {
	var warm Scratch // reused across every draw and both feeds
	var ref referenceScratch
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tables := tieTables(r)
		widths := tieWidths(r, len(tables[0]))
		in, err := FromTimeTable(tables, widths)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		loose := &Instance{Widths: tieWidths(r, 32), Times: make([][]soc.Cycles, len(tables))}
		for i, row := range tables {
			loose.Times[i] = make([]soc.Cycles, len(loose.Widths))
			for j := range loose.Times[i] {
				loose.Times[i][j] = row[r.Intn(len(row))]
			}
		}
		orders := NewOrders(tables, 0)
		full, _ := referenceCoreAssign(in, 0, &ref)
		t0 := full.Time
		for _, bound := range []soc.Cycles{0, 1, t0 / 2, t0, t0 + 1} {
			var want Assignment
			var wantOK bool
			check := func(feed string, in *Instance, got Assignment, ok bool) bool {
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Logf("seed %d %s bound %d on %v:\n got %v %v %d ok=%t\nwant %v %v %d ok=%t",
						seed, feed, bound, in.Widths,
						got.TAMOf, got.Loads, got.Time, ok, want.TAMOf, want.Loads, want.Time, wantOK)
					return false
				}
				return true
			}
			want, wantOK = referenceCoreAssign(in, bound, &ref)
			if a, ok := CoreAssign(in, bound); !check("instance", in, a, ok) {
				return false
			}
			if a, ok := warm.instance(in, bound); !check("instance/warm", in, a, ok) {
				return false
			}
			if a, ok := orders.CoreAssign(&warm, widths, bound); !check("partition", in, a, ok) {
				return false
			}
			want, wantOK = referenceCoreAssign(loose, bound, &ref)
			if a, ok := warm.instance(loose, bound); !check("instance/loose", loose, a, ok) {
				return false
			}
		}
		return true
	}
	count := 5_000
	if testing.Short() {
		count = 1_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// TestCoreAssignAllocations pins the kernel's allocations on p93791's
// 32 cores: a warm scratch allocates nothing on either feed or in the
// lookahead, and a fresh one (the public CoreAssign) allocates at most
// its three buffers.
func TestCoreAssignAllocations(t *testing.T) {
	s := socdata.P93791()
	const width = 64
	tables := make([][]soc.Cycles, len(s.Cores))
	for i := range s.Cores {
		var err error
		if tables[i], err = wrapper.TimeTable(&s.Cores[i], width); err != nil {
			t.Fatal(err)
		}
	}
	widths := []int{3, 5, 8, 9, 15, 24}
	in, err := FromTimeTable(tables, widths)
	if err != nil {
		t.Fatal(err)
	}
	orders := NewOrders(tables, len(widths))
	unsorted := []int{15, 3, 24, 9, 5, 8}
	const never = soc.Cycles(1) << 40 // no pick reaches it, so Aborts walks every one
	var sc Scratch
	for name, run := range map[string]func(){
		"instance":           func() { sc.instance(in, 0) },
		"partition":          func() { orders.CoreAssign(&sc, widths, 0) },
		"lookahead":          func() { orders.Aborts(&sc, widths, never) },
		"lookahead/unsorted": func() { orders.Aborts(&sc, unsorted, never) },
	} {
		run() // warm
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: warm scratch allocates %.1f/op, want 0", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { CoreAssign(in, 0) }); allocs > 3 {
		t.Errorf("CoreAssign on a fresh scratch allocates %.1f/op, want at most 3", allocs)
	}
}
