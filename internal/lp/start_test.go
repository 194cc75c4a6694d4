package lp_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soctam/internal/lp"
)

// TestSolveFromStopLevel pins the stop level's contract on random P_AW
// relaxations started from an integral assignment: the run reports
// Stopped exactly when the optimum is at or below the level, a stopped
// run's objective lies between the optimum and the level, and a level
// at or above the starting objective stops before the first pivot.
func TestSolveFromStopLevel(t *testing.T) {
	var w lp.Workspace
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, b := 1+r.Intn(8), 1+r.Intn(4)
		times := make([][]float64, n)
		tamOf := make([]int, n)
		loads := make([]float64, b)
		for i := range times {
			times[i] = make([]float64, b)
			for j := range times[i] {
				times[i][j] = float64(1 + r.Intn(1000))
			}
			tamOf[i] = r.Intn(b)
			loads[tamOf[i]] += times[i][tamOf[i]]
		}
		start := 0.0
		for _, l := range loads {
			start = math.Max(start, l)
		}
		model := buildPAWModel(times)
		basis := assignmentBasis(times, tamOf)
		full, err := w.SolveFrom(&model.Prob, basis, math.Inf(-1))
		if err != nil || full.Status != lp.Optimal {
			t.Logf("seed %d: status %v err %v", seed, full.Status, err)
			return false
		}
		opt := full.Objective
		for _, tc := range []struct {
			level float64
			stop  bool
		}{
			{opt, true},
			{opt + 0.5, true},
			{start, true},
			{math.Inf(1), true},
			{opt - 1e-6*math.Max(1, opt), false},
			{opt - 1, false},
		} {
			got, err := w.SolveFrom(&model.Prob, basis, tc.level)
			if err != nil {
				t.Logf("seed %d level %v: %v", seed, tc.level, err)
				return false
			}
			if (got.Status == lp.Stopped) != tc.stop || (!tc.stop && got.Status != lp.Optimal) {
				t.Logf("seed %d: optimum %v, level %v: status %v", seed, opt, tc.level, got.Status)
				return false
			}
			if got.Status == lp.Stopped {
				if got.Objective > tc.level || got.Objective < opt || !model.Prob.Feasible(got.X, 1e-6) {
					t.Logf("seed %d: stopped at %v for level %v, optimum %v", seed, got.Objective, tc.level, opt)
					return false
				}
				if tc.level >= start && got.Iterations != 0 {
					t.Logf("seed %d: level %v above the start %v took %d pivots", seed, tc.level, start, got.Iterations)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	// A maximization stops once the objective reaches the level from
	// below: max x s.t. x <= 4.
	p := &lp.Problem{NumVars: 1, Objective: []float64{1}, Maximize: true}
	p.AddConstraint([]float64{1}, lp.LE, 4)
	for level, want := range map[float64]lp.Status{4: lp.Stopped, 3: lp.Stopped, 4.5: lp.Optimal, math.Inf(1): lp.Optimal} {
		got, err := w.SolveFrom(p, []int{lp.Slack}, level)
		if err != nil || got.Status != want {
			t.Errorf("maximize, level %v: status %v err %v, want %v", level, got.Status, err, want)
		}
	}
}

// TestSolveFromRejectsBadBasis: a basis that is not a basis, or not a
// feasible one, is the caller's bug and must come back as an error —
// never as a silent two-phase solve or a wrong optimum.
func TestSolveFromRejectsBadBasis(t *testing.T) {
	// min x + y s.t. x <= 5, x + y = 2, x - y <= 0.
	p := &lp.Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 0}, lp.LE, 5)
	p.AddConstraint([]float64{1, 1}, lp.EQ, 2)
	p.AddConstraint([]float64{1, -1}, lp.LE, 0)
	var w lp.Workspace
	good, err := w.SolveFrom(p, []int{lp.Slack, 1, lp.Slack}, math.Inf(-1))
	if err != nil || good.Status != lp.Optimal || math.Abs(good.Objective-2) > 1e-9 {
		t.Fatalf("feasible basis: status %v obj %v err %v, want optimal 2", good.Status, good.Objective, err)
	}
	for _, tc := range []struct {
		name  string
		basis []int
		want  string
	}{
		{"column named twice", []int{lp.Slack, 1, 1}, "singular"},
		{"zero pivot", []int{1, 0, lp.Slack}, "singular"},
		{"x = 2 breaks x - y <= 0", []int{lp.Slack, 0, lp.Slack}, "infeasible"},
		{"slack of an EQ row", []int{lp.Slack, lp.Slack, lp.Slack}, "neither"},
		{"column out of range", []int{lp.Slack, 2, lp.Slack}, "neither"},
		{"short basis", []int{lp.Slack, 1}, "rows"},
	} {
		if _, err := w.SolveFrom(p, tc.basis, math.Inf(-1)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: basis %v gave error %v, want one mentioning %q", tc.name, tc.basis, err, tc.want)
		}
	}
	// A rejected basis leaves the workspace usable.
	again, err := w.SolveFrom(p, []int{lp.Slack, 1, lp.Slack}, math.Inf(-1))
	if err != nil || again.Objective != good.Objective {
		t.Errorf("after rejections: obj %v err %v, want %v", again.Objective, err, good.Objective)
	}
}
