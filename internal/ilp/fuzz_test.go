package ilp

import (
	"math"
	"testing"

	"soctam/internal/lp"
)

// fuzzModel decodes a byte string into a small covering-knapsack model
// — the P_AW-adjacent shape the coopt layer feeds this package — one
// variable per byte pair: cost 1..50, weight 1..20, all binary, one
// covering constraint at the decoded demand.
func fuzzModel(data []byte, demandRaw uint8) (*Model, bool) {
	n := len(data) / 2
	if n == 0 || n > 8 {
		return nil, false
	}
	costs := make([]float64, n)
	weights := make([]float64, n)
	var total float64
	for j := 0; j < n; j++ {
		costs[j] = float64(1 + int(data[2*j])%50)
		weights[j] = float64(1 + int(data[2*j+1])%20)
		total += weights[j]
	}
	// A demand above the summed weights is trivially infeasible; fold it
	// back into range so most inputs exercise the search, and keep a
	// margin of genuinely infeasible demands (the +5).
	demand := float64(int(demandRaw) % (int(total) + 5))
	return knapsack(costs, weights, demand), true
}

// FuzzILPSolve hammers the branch and bound with arbitrary covering
// knapsacks and asserts the solver's whole contract on each: any
// incumbent is integral and feasible with a consistent objective, and
// the LP relaxation never exceeds it.
func FuzzILPSolve(f *testing.F) {
	// The unit suite's knapsack instances seed the corpus.
	f.Add([]byte{3, 2, 5, 4, 4, 3}, uint8(5)) // TestCoveringKnapsack
	f.Add([]byte{1, 1}, uint8(1))             // single variable
	f.Add([]byte{10, 1, 10, 1, 10, 1}, uint8(3))
	f.Add([]byte{7, 19, 3, 2, 50, 20, 1, 1}, uint8(30))
	f.Add([]byte{2, 4}, uint8(9)) // infeasible: demand above total weight
	f.Fuzz(func(t *testing.T, data []byte, demandRaw uint8) {
		m, ok := fuzzModel(data, demandRaw)
		if !ok {
			return
		}
		res, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		switch res.Status {
		case Optimal, Feasible:
		case Infeasible:
			return
		default:
			t.Fatalf("covering knapsack returned status %v", res.Status)
		}

		// The incumbent must be a genuine integer point of the model.
		if !m.Prob.Feasible(res.X, 1e-6) {
			t.Fatalf("incumbent %v violates the constraints", res.X)
		}
		for j, v := range res.X {
			if math.Abs(v-math.Round(v)) > 1e-6 {
				t.Fatalf("x[%d] = %v is not integral", j, v)
			}
		}
		if got := m.Prob.Eval(res.X); math.Abs(got-res.Objective) > 1e-6 {
			t.Fatalf("objective %v inconsistent with Eval %v", res.Objective, got)
		}

		// The root relaxation bounds any integer solution from below.
		rel, err := m.Prob.Solve()
		if err != nil {
			t.Fatalf("relaxation: %v", err)
		}
		if rel.Status == lp.Optimal && rel.Objective > res.Objective+1e-6 {
			t.Fatalf("LP relaxation %v above integer incumbent %v", rel.Objective, res.Objective)
		}
	})
}
