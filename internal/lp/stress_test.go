package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestBealeCyclingExample pins the classic LP on which Dantzig's rule
// cycles forever without an anti-cycling safeguard (E.M.L. Beale, 1955):
//
//	min  -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4
//	s.t.  1/4 x1 -  60 x2 - 1/25 x3 + 9 x4 <= 0
//	      1/2 x1 -  90 x2 - 1/50 x3 + 3 x4 <= 0
//	                            x3          <= 1
//
// The optimum is -1/20 at x = (1/25, 0, 1, 0).
func TestBealeCyclingExample(t *testing.T) {
	p := &Problem{
		NumVars:   4,
		Objective: []float64{-0.75, 150, -0.02, 6},
	}
	p.AddConstraint([]float64{0.25, -60, -1.0 / 25, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -1.0 / 50, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal (anti-cycling failed?)", s.Status)
	}
	if math.Abs(s.Objective-(-0.05)) > 1e-9 {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
	if math.Abs(s.X[2]-1) > 1e-9 {
		t.Errorf("x3 = %v, want 1", s.X[2])
	}
	checkSlackStart(t, new(Workspace), p, s)
}

// checkSlackStart solves p — every row LE with a non-negative RHS — by
// SolveFrom from the all-slack basis and reports whether it reproduces
// Solve's result want. With no artificials Solve runs phase 2 alone from
// that same basis, so the two must agree to the last bit.
func checkSlackStart(t *testing.T, w *Workspace, p *Problem, want Solution) bool {
	t.Helper()
	basis := make([]int, len(p.Constraints))
	for i := range basis {
		basis[i] = Slack
	}
	stop := math.Inf(-1)
	if p.Maximize {
		stop = math.Inf(1)
	}
	got, err := w.SolveFrom(p, basis, stop)
	if err != nil {
		t.Errorf("SolveFrom: %v", err)
		return false
	}
	if got.Status != want.Status || got.Objective != want.Objective || got.Iterations != want.Iterations ||
		(want.Status == Optimal && !slices.Equal(got.X, want.X)) {
		t.Errorf("all-slack start: %v obj %v x %v in %d pivots; Solve: %v obj %v x %v in %d pivots",
			got.Status, got.Objective, got.X, got.Iterations, want.Status, want.Objective, want.X, want.Iterations)
		return false
	}
	return true
}

// TestKleeMintyCube solves the n=6 Klee–Minty cube — the worst case for
// Dantzig pivoting — to confirm the solver terminates at the optimum
// even when the pivot path is long.
func TestKleeMintyCube(t *testing.T) {
	const n = 6
	p := &Problem{NumVars: n, Maximize: true, Objective: make([]float64, n)}
	for j := 0; j < n; j++ {
		p.Objective[j] = math.Pow(2, float64(n-1-j))
	}
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		for j := 0; j < i; j++ {
			row[j] = math.Pow(2, float64(i+1-j))
		}
		row[i] = 1
		p.AddConstraint(row, LE, math.Pow(5, float64(i+1)))
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := math.Pow(5, n)
	if s.Status != Optimal || math.Abs(s.Objective-want) > 1e-6*want {
		t.Fatalf("got %v obj %v, want optimal %v", s.Status, s.Objective, want)
	}
	checkSlackStart(t, new(Workspace), p, s)
}

// TestHighlyDegenerateRandomLPs builds LPs whose constraints all pass
// through the origin (maximally degenerate vertex) plus a box; the
// solver must always terminate with the proven-feasible optimum, from
// the two-phase start and from the all-slack basis alike (one reused
// workspace serves every shape).
func TestHighlyDegenerateRandomLPs(t *testing.T) {
	var w Workspace
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = float64(r.Intn(11) - 5)
		}
		// Rows through the origin: a·x <= 0 with mixed signs.
		for k := 2 + r.Intn(5); k > 0; k-- {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(r.Intn(9) - 4)
			}
			p.AddConstraint(row, LE, 0)
		}
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.AddConstraint(row, LE, 5)
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			t.Logf("seed %d: %v / %v", seed, err, s.Status)
			return false
		}
		if !p.Feasible(s.X, 1e-6) {
			return false
		}
		if !checkSlackStart(t, &w, p, s) {
			t.Logf("seed %d: all-slack start disagrees", seed)
			return false
		}
		// The origin is always feasible, so the minimum is <= 0.
		return s.Objective <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLargeAssignmentRelaxation sizes the simplex like the biggest P_AW
// relaxation the experiments solve (32 cores x 6 TAMs) and checks the
// relaxation optimum is a valid fractional lower bound.
func TestLargeAssignmentRelaxation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n, b = 32, 6
	nv := n*b + 1
	p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
	p.Objective[n*b] = 1
	times := make([][]float64, n)
	for i := range times {
		times[i] = make([]float64, b)
		base := float64(1000 + r.Intn(100000))
		for j := range times[i] {
			times[i][j] = base * float64(j+1)
		}
		row := make([]float64, nv)
		for j := 0; j < b; j++ {
			row[i*b+j] = 1
		}
		p.AddConstraint(row, EQ, 1)
	}
	for j := 0; j < b; j++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[i*b+j] = times[i][j]
		}
		row[n*b] = -1
		p.AddConstraint(row, LE, 0)
	}
	s, err := p.Solve()
	if err != nil || s.Status != Optimal {
		t.Fatalf("status %v err %v", s.Status, err)
	}
	if s.Objective <= 0 {
		t.Errorf("relaxation bound %v, want positive", s.Objective)
	}
	// Fractional optimum <= any integral schedule, e.g. everything on
	// machine 0.
	var all0 float64
	for i := range times {
		all0 += times[i][0]
	}
	if s.Objective > all0+1e-6 {
		t.Errorf("relaxation %v above a feasible schedule %v", s.Objective, all0)
	}
}

// buildPAW assembles the Section 3.2 assignment relaxation for a random
// n-core, b-TAM testing-time matrix: x_ij in [0,1] with per-core
// convexity rows (EQ — a degenerate vertex at every integral point) and
// per-TAM load rows coupled to the makespan variable. It mirrors
// assign.BuildILP's layout, which this package cannot import (assign
// and ilp sit above lp in the dependency order).
func buildPAW(times [][]float64) *Problem {
	n, b := len(times), len(times[0])
	nv := n*b + 1
	p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
	p.Objective[n*b] = 1
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for j := 0; j < b; j++ {
			row[i*b+j] = 1
		}
		p.AddConstraint(row, EQ, 1)
	}
	for j := 0; j < b; j++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[i*b+j] = times[i][j]
		}
		row[n*b] = -1
		p.AddConstraint(row, LE, 0)
	}
	return p
}

// randPAWTimes draws a wrapper-curve-shaped time matrix: per-core base
// times spread over several orders of magnitude, non-increasing in the
// TAM index, with frequent exact ties (flat curve segments) — the
// degeneracy pattern real wrapper curves feed the simplex.
func randPAWTimes(r *rand.Rand, n, b int) [][]float64 {
	times := make([][]float64, n)
	for i := range times {
		times[i] = make([]float64, b)
		t := float64(1 + r.Intn(1<<uint(3+r.Intn(14))))
		for j := 0; j < b; j++ {
			times[i][j] = t
			// Flat segments with probability 1/2: ties across columns.
			if r.Intn(2) == 0 {
				t = math.Ceil(t * (0.5 + r.Float64()/2))
			}
		}
	}
	return times
}

// TestRandomPAWRelaxations drives the simplex over randomized P_AW
// instances and checks the invariants every relaxation must satisfy:
// termination at a proven-feasible Optimal despite the EQ-row
// degeneracy, a bound between the best single entry and a trivially
// feasible integral schedule, and exact reproducibility (the solver is
// deterministic — two runs must agree to the last bit, or the cache
// keys built on these bounds drift).
func TestRandomPAWRelaxations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, b := 2+r.Intn(8), 2+r.Intn(4)
		times := randPAWTimes(r, n, b)
		p := buildPAW(times)
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			t.Logf("seed %d: status %v err %v", seed, s.Status, err)
			return false
		}
		if !p.Feasible(s.X, 1e-6) {
			t.Logf("seed %d: optimum not feasible", seed)
			return false
		}
		// A fractional schedule may split a core across TAMs (so the
		// bottleneck-core bound does not apply), but it cannot beat the
		// volume bound — every core ships at least its cheapest time,
		// spread over b TAMs — nor exceed the all-on-TAM-0 schedule.
		var vol, all0 float64
		for i := range times {
			fastest := times[i][0]
			for _, v := range times[i] {
				if v < fastest {
					fastest = v
				}
			}
			vol += fastest
			all0 += times[i][0]
		}
		lo := vol / float64(b)
		if s.Objective < lo-1e-6 || s.Objective > all0+1e-6 {
			t.Logf("seed %d: bound %v outside [%v, %v]", seed, s.Objective, lo, all0)
			return false
		}
		again, err := buildPAW(times).Solve()
		if err != nil || again.Objective != s.Objective {
			t.Logf("seed %d: replay drifted %v -> %v (err %v)", seed, s.Objective, again.Objective, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
