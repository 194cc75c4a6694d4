package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"soctam/internal/soc"
)

func randomMatrix(r *rand.Rand, maxJobs, maxMachines, maxTime int) Matrix {
	n := 1 + r.Intn(maxJobs)
	nm := 1 + r.Intn(maxMachines)
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]soc.Cycles, nm)
		for j := range m[i] {
			m[i][j] = soc.Cycles(r.Intn(maxTime))
		}
	}
	return m
}

func TestValidate(t *testing.T) {
	if err := (Matrix{}).Validate(); err == nil {
		t.Error("empty matrix accepted")
	}
	if err := (Matrix{{}}).Validate(); err == nil {
		t.Error("zero-machine matrix accepted")
	}
	if err := (Matrix{{1, 2}, {3}}).Validate(); err == nil {
		t.Error("ragged matrix accepted")
	}
	if err := (Matrix{{1, -2}}).Validate(); err == nil {
		t.Error("negative time accepted")
	}
	if err := (Matrix{{1, 2}, {3, 4}}).Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
}

func TestMakespan(t *testing.T) {
	m := Matrix{{10, 20}, {30, 5}, {7, 7}}
	loads, span, err := m.Makespan([]int{0, 1, 0})
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if loads[0] != 17 || loads[1] != 5 || span != 17 {
		t.Errorf("loads %v span %d, want [17 5] 17", loads, span)
	}
	if _, _, err := m.Makespan([]int{0, 1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, _, err := m.Makespan([]int{0, 1, 2}); err == nil {
		t.Error("out-of-range machine accepted")
	}
}

func TestGreedyBasic(t *testing.T) {
	// Figure 2 flavored: greedy must produce a valid schedule no worse
	// than putting everything on one machine.
	m := Matrix{{50, 100}, {75, 95}, {90, 100}, {60, 75}, {120, 120}}
	assign, span, err := Greedy(m)
	if err != nil {
		t.Fatalf("Greedy: %v", err)
	}
	if _, got, _ := m.Makespan(assign); got != span {
		t.Errorf("reported span %d != recomputed %d", span, got)
	}
	var all0 soc.Cycles
	for _, row := range m {
		all0 += row[0]
	}
	if span > all0 {
		t.Errorf("greedy span %d worse than trivial %d", span, all0)
	}
}

func TestBruteForceSmall(t *testing.T) {
	// 2 jobs, 2 machines: job0 fast on m0, job1 fast on m1.
	m := Matrix{{1, 10}, {10, 1}}
	assign, span, err := BruteForce(m)
	if err != nil {
		t.Fatalf("BruteForce: %v", err)
	}
	if span != 1 || assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assign %v span %d, want [0 1] 1", assign, span)
	}
}

func TestBruteForceRefusesLarge(t *testing.T) {
	m := make(Matrix, 21)
	for i := range m {
		m[i] = []soc.Cycles{1}
	}
	if _, _, err := BruteForce(m); err == nil {
		t.Error("brute force accepted 21 jobs")
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 8, 4, 100)
		_, want, err := BruteForce(m)
		if err != nil {
			return false
		}
		res, err := BranchAndBound(m, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !res.Optimal {
			t.Logf("seed %d: not optimal", seed)
			return false
		}
		if res.Makespan != want {
			t.Logf("seed %d: B&B %d, brute force %d", seed, res.Makespan, want)
			return false
		}
		_, span, err := m.Makespan(res.Assign)
		return err == nil && span == res.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBranchAndBoundIdenticalMachines(t *testing.T) {
	// All machines identical: symmetry breaking must still find the
	// optimum. 6 jobs of length 1..6 on 3 identical machines: total 21,
	// perfectly splittable to 7.
	m := make(Matrix, 6)
	for i := range m {
		v := soc.Cycles(i + 1)
		m[i] = []soc.Cycles{v, v, v}
	}
	res, err := BranchAndBound(m, Options{})
	if err != nil {
		t.Fatalf("BranchAndBound: %v", err)
	}
	if !res.Optimal || res.Makespan != 7 {
		t.Errorf("makespan %d optimal=%v, want 7 true", res.Makespan, res.Optimal)
	}
}

func TestBranchAndBoundWarmStart(t *testing.T) {
	m := Matrix{{50, 100}, {75, 95}, {90, 100}, {60, 75}, {120, 120}}
	_, span, _ := BruteForce(m)
	// Warm start with the optimal schedule itself.
	opt, _, _ := BruteForce(m)
	res, err := BranchAndBound(m, Options{WarmAssign: opt})
	if err != nil {
		t.Fatalf("BranchAndBound: %v", err)
	}
	if res.Makespan != span || !res.Optimal {
		t.Errorf("warm-started makespan %d optimal=%v, want %d true", res.Makespan, res.Optimal, span)
	}
	// Invalid warm start must be rejected.
	if _, err := BranchAndBound(m, Options{WarmAssign: []int{0}}); err == nil {
		t.Error("short warm start accepted")
	}
}

func TestBranchAndBoundNodeLimit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := randomMatrix(r, 15, 4, 1000)
	res, err := BranchAndBound(m, Options{NodeLimit: 3})
	if err != nil {
		t.Fatalf("BranchAndBound: %v", err)
	}
	if res.Optimal {
		t.Error("3-node search claims optimality")
	}
	// Result must still be a valid schedule.
	_, span, err := m.Makespan(res.Assign)
	if err != nil || span != res.Makespan {
		t.Errorf("limited result invalid: %v span %d vs %d", err, span, res.Makespan)
	}
}

func TestLowerBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 7, 3, 50)
		_, opt, err := BruteForce(m)
		if err != nil {
			return false
		}
		return m.LowerBound() <= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGreedyNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 7, 3, 50)
		_, opt, err := BruteForce(m)
		if err != nil {
			return false
		}
		_, span, err := Greedy(m)
		if err != nil {
			return false
		}
		return span >= opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeriveClasses(t *testing.T) {
	m := Matrix{{1, 2, 1, 2}, {3, 4, 3, 4}}
	classes := deriveClasses(m)
	if classes[0] != classes[2] || classes[1] != classes[3] || classes[0] == classes[1] {
		t.Errorf("classes = %v, want {a,b,a,b}", classes)
	}
}

func TestErrorsPropagate(t *testing.T) {
	bad := Matrix{{1}, {2, 3}}
	if _, _, err := Greedy(bad); err == nil {
		t.Error("Greedy accepted ragged matrix")
	}
	if _, err := BranchAndBound(bad, Options{}); err == nil {
		t.Error("BranchAndBound accepted ragged matrix")
	}
	if _, _, err := BruteForce(bad); err == nil {
		t.Error("BruteForce accepted ragged matrix")
	}
}

// The Cutoff option turns the search into a decision procedure: prove
// "no makespan strictly below c" or return one. Check both sides of
// the cutoff against brute force, plus the no-op generous case.
func TestBranchAndBoundCutoff(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatrix(r, 7, 3, 100)
		_, want, err := BruteForce(m)
		if err != nil {
			return false
		}
		if want == 0 {
			// An all-zero optimum collides with Cutoff's "none" sentinel
			// (real makespans are positive); nothing to decide here.
			return true
		}

		at, err := BranchAndBound(m, Options{Cutoff: want})
		if err != nil {
			t.Logf("seed %d: cutoff at optimum: %v", seed, err)
			return false
		}
		if at.Assign != nil || !at.Optimal {
			t.Logf("seed %d: cutoff at optimum %d returned assign=%v optimal=%v",
				seed, want, at.Assign, at.Optimal)
			return false
		}

		above, err := BranchAndBound(m, Options{Cutoff: want + 1})
		if err != nil || above.Assign == nil || !above.Optimal {
			t.Logf("seed %d: cutoff above optimum: %+v err=%v", seed, above, err)
			return false
		}
		if above.Makespan != want {
			t.Logf("seed %d: cutoff solve found %d, optimum is %d", seed, above.Makespan, want)
			return false
		}
		if _, span, err := m.Makespan(above.Assign); err != nil || span != want {
			return false
		}

		generous, err := BranchAndBound(m, Options{Cutoff: want + 10000})
		if err != nil || generous.Makespan != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A warm start at or above the cutoff must not leak through as a found
// solution: the warm incumbent only seeds the bound.
func TestBranchAndBoundCutoffWarmStart(t *testing.T) {
	m := Matrix{{10, 20}, {10, 20}, {10, 20}}
	// Optimal: two jobs on machine 0, one on machine 1 -> makespan 20.
	warm := []int{0, 0, 0} // makespan 30, above any useful cutoff
	res, err := BranchAndBound(m, Options{WarmAssign: warm, Cutoff: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign != nil || !res.Optimal {
		t.Errorf("cutoff 20 with warm 30: assign=%v optimal=%v, want proven none", res.Assign, res.Optimal)
	}
	res, err = BranchAndBound(m, Options{WarmAssign: warm, Cutoff: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign == nil || res.Makespan != 20 {
		t.Errorf("cutoff 21: %+v, want the 20-cycle optimum", res)
	}
}

// tieMatrix draws an instance for TestBranchAndBoundMatchesReference:
// 6-18 jobs on 2-10 machines with times in a small range, so equal
// resulting loads are common, and about a third of the columns copied
// from a lower-indexed one, so machines have identical twins.
func tieMatrix(r *rand.Rand) Matrix {
	n, nm := 6+r.Intn(13), 2+r.Intn(9)
	maxTime := 2 + r.Intn(15)
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]soc.Cycles, nm)
		for j := range m[i] {
			m[i][j] = soc.Cycles(1 + r.Intn(maxTime))
		}
	}
	for j := 1; j < nm; j++ {
		if r.Intn(3) == 0 {
			q := r.Intn(j)
			for i := range m {
				m[i][j] = m[i][q]
			}
		}
	}
	return m
}

// BranchAndBound must walk exactly the tree the reference walks: every
// budget, warm start and cutoff gives the same Result, node count
// included, so node-capped answers cannot move.
func TestBranchAndBoundMatchesReference(t *testing.T) {
	limits := []int64{1, 2, 50, 1000, 0}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := tieMatrix(r)
		full, err := referenceBranchAndBound(m, Options{})
		if err != nil || !full.Optimal {
			t.Logf("seed %d: reference did not prove the optimum: %+v %v", seed, full, err)
			return false
		}
		var warm []int
		switch r.Intn(3) {
		case 1: // usually worse than greedy
			warm = make([]int, len(m))
			for i := range warm {
				warm[i] = r.Intn(m.NumMachines())
			}
		case 2: // usually better than greedy
			seeded, err := referenceBranchAndBound(m, Options{NodeLimit: 200})
			if err != nil {
				return false
			}
			warm = seeded.Assign
		}
		opt := full.Makespan
		for _, limit := range limits {
			for _, cutoff := range []soc.Cycles{0, opt - 1, opt, opt + 1} {
				o := Options{WarmAssign: warm, NodeLimit: limit, Cutoff: cutoff}
				want, werr := referenceBranchAndBound(m, o)
				got, gerr := BranchAndBound(m, o)
				if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
					t.Logf("seed %d %+v:\n got %+v (%v)\nwant %+v (%v)", seed, o, got, gerr, want, werr)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// A node allocates nothing: a search capped at 100,000 nodes makes
// exactly as many allocations as one capped at 1,000.
func TestBranchAndBoundNodesDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := make(Matrix, 24)
	for i := range m {
		m[i] = make([]soc.Cycles, 6)
		for j := range m[i] {
			m[i][j] = soc.Cycles(100 + r.Intn(900))
		}
	}
	allocs := func(limit int64) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := BranchAndBound(m, Options{NodeLimit: limit})
			if err != nil || res.Nodes != limit {
				t.Fatalf("limit %d: %d nodes, err %v; the instance must hit the cap", limit, res.Nodes, err)
			}
		})
	}
	if small, large := allocs(1_000), allocs(100_000); small != large {
		t.Errorf("allocations grow with nodes: %v at 1,000 nodes, %v at 100,000", small, large)
	}
}

// referenceBranchAndBound is BranchAndBound as it was before its nodes
// stopped allocating: a per-node sort.SliceStable with a closure and a
// symmetry scan over every lower-indexed machine. It is the oracle for
// TestBranchAndBoundMatchesReference, which requires the rewrite to
// walk the same tree: same nodes, same order, same answers.
func referenceBranchAndBound(m Matrix, opt Options) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	n, nm := m.NumJobs(), m.NumMachines()
	nodeLimit := opt.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 5_000_000
	}
	classes := deriveClasses(m)

	// Seed the incumbent with the greedy schedule, improved by the
	// caller's warm start if better.
	bestAssign, incumbent, err := Greedy(m)
	if err != nil {
		return Result{}, err
	}
	if opt.WarmAssign != nil {
		_, warmSpan, err := m.Makespan(opt.WarmAssign)
		if err != nil {
			return Result{}, fmt.Errorf("sched: warm start: %w", err)
		}
		if warmSpan < incumbent {
			incumbent = warmSpan
			bestAssign = append([]int(nil), opt.WarmAssign...)
		}
	}
	found := true
	if opt.Cutoff != 0 && incumbent >= opt.Cutoff {
		// Neither seed beats the cutoff: search below it instead, and
		// only a schedule the search itself finds counts as a result.
		incumbent = opt.Cutoff
		found = false
	}

	// Branch jobs in decreasing order of their minimum time: big rocks
	// first shrinks the tree dramatically.
	order := make([]int, n)
	minTime := make([]soc.Cycles, n)
	for i, row := range m {
		order[i] = i
		k := row[0]
		for _, v := range row[1:] {
			if v < k {
				k = v
			}
		}
		minTime[i] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return minTime[order[a]] > minTime[order[b]] })

	// suffixMin[d] = total minimum work of jobs order[d:].
	suffixMin := make([]soc.Cycles, n+1)
	for d := n - 1; d >= 0; d-- {
		suffixMin[d] = suffixMin[d+1] + minTime[order[d]]
	}

	loads := make([]soc.Cycles, nm)
	cur := make([]int, n)
	var nodes int64
	complete := true
	// Per-depth machine-order scratch: recursion levels must not share a
	// buffer, since inner levels re-sort it while outer loops range it.
	machineOrders := make([][]int, n)
	for d := range machineOrders {
		machineOrders[d] = make([]int, nm)
	}

	var rec func(d int, total soc.Cycles)
	rec = func(d int, total soc.Cycles) {
		if nodes >= nodeLimit {
			complete = false
			return
		}
		nodes++
		if d == n {
			span := soc.Cycles(0)
			for _, l := range loads {
				if l > span {
					span = l
				}
			}
			if span < incumbent {
				incumbent = span
				copy(bestAssign, cur)
				found = true
			}
			return
		}
		// Remaining-work bound: even spreading the remaining minimum work
		// over all machines cannot beat the incumbent -> prune.
		avg := (total + suffixMin[d] + soc.Cycles(nm) - 1) / soc.Cycles(nm)
		if avg >= incumbent {
			return
		}
		i := order[d]
		row := m[i]
		machineOrder := machineOrders[d]
		for j := range machineOrder {
			machineOrder[j] = j
		}
		sort.SliceStable(machineOrder, func(a, b int) bool {
			return loads[machineOrder[a]]+row[machineOrder[a]] < loads[machineOrder[b]]+row[machineOrder[b]]
		})
		for _, j := range machineOrder {
			// Symmetry breaking: among identical machines with identical
			// current loads, only the lowest-indexed one is tried.
			dup := false
			for q := 0; q < j; q++ {
				if classes[q] == classes[j] && loads[q] == loads[j] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			newLoad := loads[j] + row[j]
			if newLoad >= incumbent {
				continue
			}
			loads[j] = newLoad
			cur[i] = j
			rec(d+1, total+row[j])
			loads[j] = newLoad - row[j]
			if nodes >= nodeLimit {
				complete = false
				return
			}
		}
	}
	rec(0, 0)

	if !found {
		return Result{Nodes: nodes, Optimal: complete}, nil
	}
	return Result{Assign: bestAssign, Makespan: incumbent, Nodes: nodes, Optimal: complete}, nil
}

// fuzzBytes reads a fuzz input one byte at a time, as zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzBranchAndBound draws from each input a tie-heavy matrix (at most
// 12 jobs × 6 machines, times 0-16, some columns copies of a
// lower-indexed one), an optional warm start, a node cap and a cutoff,
// and requires the reference's exact Result, node count included.
func FuzzBranchAndBound(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 8+r.Intn(90))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n, nm, maxTime := 1+b.next()%12, 1+b.next()%6, 1+b.next()%16
		m := make(Matrix, n)
		for i := range m {
			m[i] = make([]soc.Cycles, nm)
			for j := range m[i] {
				m[i][j] = soc.Cycles(b.next() % (maxTime + 1))
			}
		}
		for j := 1; j < nm; j++ {
			if c := b.next(); c%3 == 0 {
				q := (c / 3) % j
				for i := range m {
					m[i][j] = m[i][q]
				}
			}
		}
		var opt Options
		if b.next()%2 == 1 {
			opt.WarmAssign = make([]int, n)
			for i := range opt.WarmAssign {
				opt.WarmAssign[i] = b.next() % nm
			}
		}
		// A cap of 0 is the default 5,000,000; the trees here are far
		// smaller.
		opt.NodeLimit = int64(b.next()<<8 | b.next())
		opt.Cutoff = soc.Cycles(b.next())
		want, werr := referenceBranchAndBound(m, opt)
		got, gerr := BranchAndBound(m, opt)
		if werr != nil || gerr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %+v:\n got %+v (%v)\nwant %+v (%v)", m, opt, got, gerr, want, werr)
		}
	})
}
