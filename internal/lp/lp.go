package lp

import (
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int8

// Constraint operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // =
)

// String returns the conventional spelling of the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int8(o))
}

// Constraint is one linear constraint: Coeffs·x Op RHS. Coeffs shorter
// than the variable count are zero-extended.
type Constraint struct {
	Coeffs []float64
	Op     Op
	RHS    float64
}

// Problem is a linear program over NumVars non-negative variables.
type Problem struct {
	NumVars     int
	Objective   []float64 // zero-extended to NumVars
	Maximize    bool      // default is minimization
	Constraints []Constraint
}

// AddConstraint appends the constraint coeffs·x op rhs.
func (p *Problem) AddConstraint(coeffs []float64, op Op, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Op: op, RHS: rhs})
}

// Clone returns a deep copy of the problem; branch-and-bound nodes extend
// clones with branching constraints.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		NumVars:     p.NumVars,
		Objective:   append([]float64(nil), p.Objective...),
		Maximize:    p.Maximize,
		Constraints: make([]Constraint, len(p.Constraints)),
	}
	for i, c := range p.Constraints {
		q.Constraints[i] = Constraint{
			Coeffs: append([]float64(nil), c.Coeffs...),
			Op:     c.Op,
			RHS:    c.RHS,
		}
	}
	return q
}

// Eval returns the objective value of x under the problem's own sense.
func (p *Problem) Eval(x []float64) float64 {
	v := 0.0
	for j, c := range p.Objective {
		if j < len(x) {
			v += c * x[j]
		}
	}
	return v
}

// Feasible reports whether x satisfies every constraint and the
// non-negativity bounds within tol.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) < p.NumVars {
		return false
	}
	for j := 0; j < p.NumVars; j++ {
		if x[j] < -tol {
			return false
		}
	}
	for _, c := range p.Constraints {
		lhs := 0.0
		for j, a := range c.Coeffs {
			lhs += a * x[j]
		}
		switch c.Op {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Status reports the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Stopped reports that a Workspace.SolveFrom run reached the
	// caller's stop level before optimality: the optimum is at least
	// as good as the objective reported.
	Stopped
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Solution holds the result of a solve. X and Objective are meaningful
// only for Status Optimal or Stopped; Objective is reported in the
// problem's own sense.
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Iterations int
}

const (
	eps     = 1e-9
	feasTol = 1e-7
)

// Slack names an LE row's own slack column in the basis handed to
// Workspace.SolveFrom.
const Slack = -1

// check rejects malformed input: negative variable counts and rows
// longer than the variable count.
func (p *Problem) check() error {
	n := p.NumVars
	if n < 0 {
		return fmt.Errorf("lp: negative variable count %d", n)
	}
	if len(p.Objective) > n {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), n)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > n {
			return fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), n)
		}
	}
	return nil
}

// Solve runs the two-phase simplex. It returns an error only for
// malformed input (negative variable counts, oversized rows); numerical
// outcomes are reported through Solution.Status.
func (p *Problem) Solve() (Solution, error) {
	if err := p.check(); err != nil {
		return Solution{}, err
	}
	var w Workspace
	t := &w.t
	t.loadTwoPhase(p)
	iters := 0

	// Phase 1: minimize the sum of artificials.
	if t.nArt > 0 {
		cost := w.costRow()
		for j := t.artStart; j < t.total; j++ {
			cost[j] = 1
		}
		obj, status, it := w.run(t.total, math.Inf(-1))
		iters += it
		if status == IterLimit {
			return Solution{Status: IterLimit, Iterations: iters}, nil
		}
		if obj > feasTol {
			return Solution{Status: Infeasible, Iterations: iters}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: minimize the structural objective; artificials, the
	// trailing columns, may not re-enter.
	return w.phase2(p, t.artStart, math.Inf(-1), iters), nil
}

// Workspace holds the simplex's working memory: the tableau as one
// row-major slab, its basis, the cost and reduced-cost rows and the
// solution vector. Once grown to the largest problem solved on it, a
// solve allocates nothing. The zero value is ready.
//
// A Workspace belongs to one goroutine at a time, and the X of a
// Solution it returns aliases it: X is valid only until the next solve
// on the same workspace, so a caller keeping it must copy it.
type Workspace struct {
	t    tableau
	cost []float64 // one entry per tableau column
	z    []float64 // reduced costs, then -objective in the RHS column
	x    []float64 // the structural solution
}

// SolveFrom minimizes (or maximizes) p by phase 2 of the simplex alone,
// starting from a primal-feasible basis the caller supplies: basis[i]
// names the column basic in constraint row i — a structural variable,
// or Slack for an LE row's own slack. No artificial columns are built
// and no phase 1 runs. The basis is canonicalized by pivoting each row,
// in order, on its basic column; a zero pivot (a singular basis) or a
// negative basic value (an infeasible one) is a caller bug and returns
// an error, never a silent fall-back to the two-phase solve.
//
// stop is an objective level in the problem's own sense: the run
// returns with status Stopped as soon as the objective is at or below
// it (at or above it when maximizing). A primal simplex's objective
// never worsens, so the optimum is then at least as good as stop. Pass
// math.Inf(-1) (math.Inf(1) when maximizing) to run to optimality.
//
// Rows are taken as given: unlike Solve, SolveFrom does not flip rows
// with a negative right-hand side.
func (w *Workspace) SolveFrom(p *Problem, basis []int, stop float64) (Solution, error) {
	if err := p.check(); err != nil {
		return Solution{}, err
	}
	if len(basis) != len(p.Constraints) {
		return Solution{}, fmt.Errorf("lp: basis names %d columns for %d rows", len(basis), len(p.Constraints))
	}
	t := &w.t
	if err := t.loadBasis(p, basis); err != nil {
		return Solution{}, err
	}
	if p.Maximize {
		stop = -stop
	}
	return w.phase2(p, t.total, stop, 0), nil
}

// costRow returns the workspace's cost row sized to the tableau, zeroed.
func (w *Workspace) costRow() []float64 {
	w.cost = resize(w.cost, w.t.total)
	return w.cost
}

// phase2 minimizes p's objective over the current feasible basis,
// entering only columns below limit and stopping at the internal
// (minimization-sense) level stop, and reads the solution out.
func (w *Workspace) phase2(p *Problem, limit int, stop float64, iters int) Solution {
	t := &w.t
	cost := w.costRow()
	for j, c := range p.Objective {
		if p.Maximize {
			cost[j] = -c
		} else {
			cost[j] = c
		}
	}
	obj, status, it := w.run(limit, stop)
	iters += it
	if status != Optimal && status != Stopped {
		return Solution{Status: status, Iterations: iters}
	}
	n := p.NumVars
	w.x = resize(w.x, n)
	for i, b := range t.basis {
		if b < n {
			w.x[b] = t.row(i)[t.total]
		}
	}
	if p.Maximize {
		obj = -obj
	}
	return Solution{Status: status, X: w.x, Objective: obj, Iterations: iters}
}

// resize returns s with length n and every entry zero, reallocating
// only when the capacity is short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tableau is the dense simplex tableau: m rows over total columns plus a
// trailing RHS column, stored row-major in one slab.
type tableau struct {
	a        []float64 // m rows of stride entries
	stride   int       // total+1
	m        int
	basis    []int
	total    int // structural + slack + artificial columns
	artStart int
	nArt     int
	maxIter  int
}

// row returns row i of the tableau, RHS last.
func (t *tableau) row(i int) []float64 {
	return t.a[i*t.stride : (i+1)*t.stride : (i+1)*t.stride]
}

// reset sizes the tableau to m zeroed rows over total columns.
func (t *tableau) reset(m, total int) {
	t.m, t.total, t.stride = m, total, total+1
	t.a = resize(t.a, m*t.stride)
	if cap(t.basis) < m {
		t.basis = make([]int, m)
	}
	t.basis = t.basis[:m]
	t.maxIter = 10000 + 50*(m+total)
}

// loadTwoPhase writes p in standard form for Solve: rows with a negative
// RHS flipped, a slack or surplus column per inequality and an
// artificial column per GE or EQ row; slacks and artificials form the
// starting basis.
func (t *tableau) loadTwoPhase(p *Problem) {
	n := p.NumVars
	nSlack, nArt := 0, 0
	for _, c := range p.Constraints {
		op := c.Op
		if c.RHS < 0 {
			op = op.flipped()
		}
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}
	t.reset(len(p.Constraints), n+nSlack+nArt)
	t.artStart, t.nArt = n+nSlack, nArt
	slack, art := n, n+nSlack
	for i, c := range p.Constraints {
		row := t.row(i)
		copy(row, c.Coeffs)
		op, rhs := c.Op, c.RHS
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			op = op.flipped()
		}
		row[t.total] = rhs
		switch op {
		case LE:
			row[slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			t.basis[i] = art
			art++
		case EQ:
			row[art] = 1
			t.basis[i] = art
			art++
		}
	}
}

// flipped returns the operator of a row multiplied by -1.
func (o Op) flipped() Op {
	switch o {
	case LE:
		return GE
	case GE:
		return LE
	}
	return o
}

// loadBasis writes p as given — a slack or surplus column per
// inequality, no artificials — and canonicalizes it on the caller's
// basis, checking that the basis is nonsingular and primal feasible.
func (t *tableau) loadBasis(p *Problem, basis []int) error {
	n := p.NumVars
	nSlack := 0
	for _, c := range p.Constraints {
		if c.Op != EQ {
			nSlack++
		}
	}
	t.reset(len(p.Constraints), n+nSlack)
	t.artStart, t.nArt = t.total, 0
	slack := n
	for i, c := range p.Constraints {
		row := t.row(i)
		copy(row, c.Coeffs)
		row[t.total] = c.RHS
		col := basis[i]
		switch {
		case col == Slack && c.Op == LE:
			col = slack
		case col < 0 || col >= n:
			return fmt.Errorf("lp: row %d: basic column %d is neither a structural variable nor the row's slack", i, col)
		}
		switch c.Op {
		case LE:
			row[slack] = 1
			slack++
		case GE:
			row[slack] = -1
			slack++
		}
		t.basis[i] = col
	}
	for i := 0; i < t.m; i++ {
		c := t.basis[i]
		if math.Abs(t.row(i)[c]) <= eps {
			return fmt.Errorf("lp: basis is singular at row %d (column %d)", i, c)
		}
		t.pivot(nil, i, c)
	}
	for i := 0; i < t.m; i++ {
		if v := t.row(i)[t.total]; v < -feasTol {
			return fmt.Errorf("lp: basis is infeasible: row %d's basic variable is %g", i, v)
		}
	}
	return nil
}

// run performs simplex iterations minimizing the workspace's cost row
// over the current basis. Only columns below limit may enter the basis.
// It returns the objective value reached, with status Stopped as soon as
// that value is at or below stop.
func (w *Workspace) run(limit int, stop float64) (obj float64, status Status, iters int) {
	t := &w.t
	// Reduced-cost row: z[j] = cost[j] - sum_i cost[basis[i]]*rows[i][j];
	// z[total] accumulates -objective.
	w.z = resize(w.z, t.total+1)
	z := w.z
	copy(z, w.cost)
	for i := 0; i < t.m; i++ {
		cb := w.cost[t.basis[i]]
		if cb != 0 {
			row := t.row(i)
			for j := 0; j <= t.total; j++ {
				z[j] -= cb * row[j]
			}
		}
	}
	degenerate := 0
	bland := false
	for it := 0; it < t.maxIter; it++ {
		if -z[t.total] <= stop {
			return -z[t.total], Stopped, it
		}
		enter := -1
		if bland {
			for j := 0; j < limit; j++ {
				if z[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < limit; j++ {
				if z[j] < best {
					best = z[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return -z[t.total], Optimal, it
		}
		leave := -1
		var minRatio float64
		for i := 0; i < t.m; i++ {
			row := t.row(i)
			a := row[enter]
			if a > eps {
				ratio := row[t.total] / a
				switch {
				case leave < 0 || ratio < minRatio-eps:
					leave, minRatio = i, ratio
				case ratio < minRatio+eps && t.basis[i] < t.basis[leave]:
					// Bland tie-break on the leaving variable index.
					leave = i
				}
			}
		}
		if leave < 0 {
			return math.Inf(-1), Unbounded, it
		}
		if minRatio < eps {
			degenerate++
			if degenerate > 2*t.m+20 {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}
		t.pivot(z, leave, enter)
	}
	return -z[t.total], IterLimit, t.maxIter
}

// pivot performs a Gauss-Jordan pivot on (row r, column c), updating the
// reduced-cost row z alongside unless z is nil.
func (t *tableau) pivot(z []float64, r, c int) {
	pr := t.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		row := t.row(i)
		if f := row[c]; f != 0 {
			for j := range row {
				row[j] -= f * pr[j]
			}
			row[c] = 0
		}
	}
	if z != nil {
		if f := z[c]; f != 0 {
			for j := range z {
				z[j] -= f * pr[j]
			}
			z[c] = 0
		}
	}
	t.basis[r] = c
}

// evictArtificials removes artificial variables from the basis after a
// successful phase 1: pivot them out where possible, and drop rows that
// turn out to be redundant (all-zero over the real columns). Kept rows
// move up in the slab in their original order.
func (t *tableau) evictArtificials() {
	kept := 0
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			// Find any real column to pivot the artificial out on. The
			// row's RHS is ~0, so the pivot is degenerate and preserves
			// feasibility regardless of the pivot element's sign.
			piv := -1
			row := t.row(i)
			for j := 0; j < t.artStart; j++ {
				if math.Abs(row[j]) > eps {
					piv = j
					break
				}
			}
			if piv < 0 {
				continue // redundant row: drop it
			}
			t.pivot(nil, i, piv)
		}
		if kept != i {
			copy(t.row(kept), t.row(i))
			t.basis[kept] = t.basis[i]
		}
		kept++
	}
	t.m = kept
	t.basis = t.basis[:kept]
	t.a = t.a[:kept*t.stride]
}
