// Package lp_test cross-checks the simplex against the layers built on
// top of it. These tests live in the external test package because the
// in-package suite cannot import internal/ilp (ilp depends on lp); out
// here the full chain — simplex relaxation, branch-and-bound, brute
// enumeration — can be run on one instance and forced to agree.
package lp_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soctam/internal/ilp"
	"soctam/internal/lp"
)

// buildPAWModel assembles the Section 3.2 assignment ILP (binary x_ij,
// continuous makespan) for a testing-time matrix, mirroring
// assign.BuildILP's layout.
func buildPAWModel(times [][]float64) *ilp.Model {
	n, b := len(times), len(times[0])
	nv := n*b + 1
	m := &ilp.Model{
		Prob:    lp.Problem{NumVars: nv, Objective: make([]float64, nv)},
		Integer: make([]bool, nv),
	}
	m.Prob.Objective[n*b] = 1
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for j := 0; j < b; j++ {
			m.Integer[i*b+j] = true
			row[i*b+j] = 1
		}
		m.Prob.AddConstraint(row, lp.EQ, 1)
	}
	for j := 0; j < b; j++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[i*b+j] = times[i][j]
		}
		row[n*b] = -1
		m.Prob.AddConstraint(row, lp.LE, 0)
	}
	return m
}

// enumeratePAW computes the exact integer optimum by brute force over
// all b^n assignments — the ground truth both solvers must match.
func enumeratePAW(times [][]float64) float64 {
	n, b := len(times), len(times[0])
	loads := make([]float64, b)
	best := math.Inf(1)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			span := 0.0
			for _, l := range loads {
				if l > span {
					span = l
				}
			}
			if span < best {
				best = span
			}
			return
		}
		for j := 0; j < b; j++ {
			loads[j] += times[i][j]
			walk(i + 1)
			loads[j] -= times[i][j]
		}
	}
	walk(0)
	return best
}

// assignmentBasis is the feasible basis of buildPAWModel's relaxation
// at the integral assignment tamOf: x_{i,tamOf[i]} basic in core row i,
// the makespan basic in the load row of the most-loaded TAM (the first
// on ties), and every other load row's slack basic.
func assignmentBasis(times [][]float64, tamOf []int) []int {
	n, b := len(times), len(times[0])
	basis := make([]int, n+b)
	loads := make([]float64, b)
	for i, j := range tamOf {
		basis[i] = i*b + j
		loads[j] += times[i][j]
	}
	top := 0
	for j := range loads {
		basis[n+j] = lp.Slack
		if loads[j] > loads[top] {
			top = j
		}
	}
	basis[n+top] = n * b
	return basis
}

// TestPAWRelaxationAgainstILPEnumeration draws random wrapper-shaped
// P_AW instances and forces the three layers to agree: the enumerated
// integer optimum is the truth, the branch-and-bound must hit it
// exactly, and the simplex relaxation must bound it from below without
// ever exceeding it — on every instance, including the tie-heavy ones
// that make the EQ rows maximally degenerate. Phase 2 started from a
// random integral assignment (one reused workspace) must reach the
// two-phase relaxation optimum.
func TestPAWRelaxationAgainstILPEnumeration(t *testing.T) {
	var w lp.Workspace
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, b := 2+r.Intn(5), 2+r.Intn(2) // up to 6 cores x 3 TAMs: 729 points
		times := make([][]float64, n)
		for i := range times {
			times[i] = make([]float64, b)
			v := float64(1 + r.Intn(1<<uint(3+r.Intn(12))))
			for j := 0; j < b; j++ {
				times[i][j] = v
				if r.Intn(2) == 0 { // flat wrapper-curve segments: ties
					v = math.Ceil(v * (0.5 + r.Float64()/2))
				}
			}
		}
		truth := enumeratePAW(times)

		res, err := ilp.Solve(buildPAWModel(times), ilp.Options{})
		if err != nil || res.Status != ilp.Optimal || !res.Proven {
			t.Logf("seed %d: ilp status %v proven %t err %v", seed, res.Status, res.Proven, err)
			return false
		}
		if math.Abs(res.Objective-truth) > 1e-6 {
			t.Logf("seed %d: ilp %v != enumerated optimum %v", seed, res.Objective, truth)
			return false
		}

		rel, err := buildPAWModel(times).Prob.Solve()
		if err != nil || rel.Status != lp.Optimal {
			t.Logf("seed %d: relaxation status %v err %v", seed, rel.Status, err)
			return false
		}
		if rel.Objective > truth+1e-6 {
			t.Logf("seed %d: relaxation %v above integer optimum %v", seed, rel.Objective, truth)
			return false
		}
		// Times are integral, so the rounded-up relaxation is still a
		// valid bound — the exact form the coopt engine prunes with.
		if math.Ceil(rel.Objective-1e-6) > truth+1e-6 {
			t.Logf("seed %d: ceil(relaxation) %v above optimum %v", seed, math.Ceil(rel.Objective-1e-6), truth)
			return false
		}

		tamOf := make([]int, n)
		for i := range tamOf {
			tamOf[i] = r.Intn(b)
		}
		model := buildPAWModel(times)
		warm, err := w.SolveFrom(&model.Prob, assignmentBasis(times, tamOf), math.Inf(-1))
		if err != nil || warm.Status != lp.Optimal {
			t.Logf("seed %d: assignment start %v: status %v err %v", seed, tamOf, warm.Status, err)
			return false
		}
		if math.Abs(warm.Objective-rel.Objective) > 1e-9*math.Max(1, math.Abs(rel.Objective)) {
			t.Logf("seed %d: assignment start %v reached %v, two-phase %v", seed, tamOf, warm.Objective, rel.Objective)
			return false
		}
		return model.Prob.Feasible(warm.X, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
