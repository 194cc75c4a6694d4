package assign

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"soctam/internal/ilp"
	"soctam/internal/lp"
	"soctam/internal/sched"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Instance is one P_AW problem: TAM widths plus the core×TAM testing-time
// matrix T_i(w_j).
type Instance struct {
	// Widths holds w_1..w_B, the widths of the B TAMs.
	Widths []int
	// Times[i][j] is the testing time of core i on TAM j (of width
	// Widths[j]), computed by Design_wrapper.
	Times sched.Matrix
}

// NewInstance builds the instance for an SOC and TAM widths by running
// Design_wrapper for every core on every TAM width.
func NewInstance(s *soc.SOC, widths []int) (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("assign: no TAMs")
	}
	maxW := 0
	for _, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("assign: TAM width %d < 1", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	times := make(sched.Matrix, len(s.Cores))
	for i := range s.Cores {
		table, err := wrapper.TimeTable(&s.Cores[i], maxW)
		if err != nil {
			return nil, fmt.Errorf("assign: core %d: %w", i+1, err)
		}
		row := make([]soc.Cycles, len(widths))
		for j, w := range widths {
			row[j] = table[w-1]
		}
		times[i] = row
	}
	return &Instance{Widths: slices.Clone(widths), Times: times}, nil
}

// FromTimeTable builds the instance from precomputed per-core time tables
// (tables[i][w-1] = T_i(w)), avoiding repeated wrapper design when many
// width partitions are evaluated over the same SOC.
func FromTimeTable(tables [][]soc.Cycles, widths []int) (*Instance, error) {
	in := new(Instance)
	if err := FromTimeTableInto(in, tables, widths); err != nil {
		return nil, err
	}
	return in, nil
}

// FromTimeTableInto is FromTimeTable filling a caller-owned instance,
// reusing its Widths and Times buffers, so a search visiting many
// partitions of one SOC allocates nothing per partition. dst keeps no
// reference to tables or widths; on error its contents are unspecified.
func FromTimeTableInto(dst *Instance, tables [][]soc.Cycles, widths []int) error {
	if len(widths) == 0 {
		return fmt.Errorf("assign: no TAMs")
	}
	if len(tables) == 0 {
		return fmt.Errorf("assign: no cores")
	}
	dst.Widths = append(dst.Widths[:0], widths...)
	if cap(dst.Times) < len(tables) {
		dst.Times = make(sched.Matrix, len(tables))
	}
	dst.Times = dst.Times[:len(tables)]
	for i, table := range tables {
		row := dst.Times[i]
		if cap(row) < len(widths) {
			row = make([]soc.Cycles, len(widths))
		}
		row = row[:len(widths)]
		for j, w := range widths {
			if w < 1 || w > len(table) {
				return fmt.Errorf("assign: width %d outside core %d's table (1..%d)", w, i+1, len(table))
			}
			row[j] = table[w-1]
		}
		dst.Times[i] = row
	}
	return nil
}

// NumCores returns the number of cores in the instance.
func (in *Instance) NumCores() int { return len(in.Times) }

// NumTAMs returns the number of TAMs in the instance.
func (in *Instance) NumTAMs() int { return len(in.Widths) }

// Assignment is a complete core-to-TAM assignment with its TAM loads and
// SOC testing time.
type Assignment struct {
	// TAMOf[i] is the 0-based TAM index of core i.
	TAMOf []int
	// Loads[j] is the summed testing time on TAM j.
	Loads []soc.Cycles
	// Time is the SOC testing time: the maximum TAM load.
	Time soc.Cycles
}

// Vector returns the paper's 1-based core assignment vector notation,
// e.g. "(2,1,2,1,1)".
func (a *Assignment) Vector() string {
	b := []byte{'('}
	for i, j := range a.TAMOf {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", j+1)
	}
	return string(append(b, ')'))
}

// Validate checks the assignment against the instance and recomputes its
// loads and makespan.
func (a *Assignment) Validate(in *Instance) error {
	loads, span, err := in.Times.Makespan(a.TAMOf)
	if err != nil {
		return err
	}
	if !slices.Equal(loads, a.Loads) || span != a.Time {
		return fmt.Errorf("assign: assignment loads/time inconsistent with instance")
	}
	return nil
}

// CoreAssign runs the Figure 1 heuristic. bestKnown is the best SOC
// testing time found so far (the running bound of Partition_evaluate);
// pass 0 or negative for no bound. If at any point the largest TAM load
// reaches bestKnown, the heuristic aborts early (the paper's lines 18–20)
// and returns ok=false with the partial assignment (unassigned cores have
// TAMOf -1).
//
// Each TAM's cores are sorted by testing time once per call, and each
// pick takes the first unassigned core in its TAM's order, found by a
// cursor that only moves forward, instead of scanning every core (see
// Orders, which serves the same body from tables sorted once per solve).
func CoreAssign(in *Instance, bestKnown soc.Cycles) (a Assignment, ok bool) {
	var sc Scratch
	return sc.instance(in, bestKnown)
}

// Scratch holds Core_assign's working buffers for reuse across calls.
// The zero value is ready; the buffers grow to the largest instance
// seen. A Scratch belongs to one goroutine at a time.
type Scratch struct {
	ints   []int // TAMOf (one per core), then col and cursor (one per TAM)
	loads  []soc.Cycles
	order  []int32 // the instance feed's per-TAM core orders
	widths []int   // Orders.Aborts' sorted copy of an unsorted partition
}

// Orders lists, for every TAM width w = 1..W of a set of testing-time
// tables (tables[i][w-1] = T_i(w)), the cores by T_i(w) descending and
// by index ascending on ties. That is the order in which Core_assign's
// lines 13–16 pick cores for a TAM of width w, so scoring a width
// partition from the orders reads the tables in place: no instance is
// built, and each pick walks a per-TAM cursor past assigned cores
// instead of scanning all of them.
//
// Build one per solve with NewOrders. Orders are immutable, so any
// number of goroutines may score partitions from one concurrently,
// each on its own Scratch.
type Orders struct {
	tables [][]soc.Cycles
	width  int     // W, the length of every table
	flat   []int32 // width w's order is flat[(w-1)·n : w·n]
	// heads holds width w's k largest times, descending, at
	// heads[(w-1)·k : w·k]: the order statistics Aborts reads.
	heads []soc.Cycles
	k     int // min(N, the picks NewOrders was asked for)
}

// NewOrders sorts the cores once per width of tables, which must all
// have the same length W: O(W·N·log N) time and W·N int32s of memory.
// The comparator breaks time ties by index, a total order, so no
// stable sort is needed. It also keeps, per width, the first
// min(N, picks) times of the order for Aborts: pass the most TAMs a
// partition scored from the orders has, or 0 for none. The orders
// alias tables, which must not change while they are used.
func NewOrders(tables [][]soc.Cycles, picks int) *Orders {
	n := len(tables)
	o := &Orders{tables: tables, k: max(min(n, picks), 0)}
	if n > 0 {
		o.width = len(tables[0])
	}
	o.flat = make([]int32, o.width*n)
	o.heads = make([]soc.Cycles, o.width*o.k)
	for c := 0; c < o.width; c++ {
		order := o.flat[c*n : (c+1)*n]
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if ta, tb := tables[a][c], tables[b][c]; ta != tb {
				return cmp.Compare(tb, ta)
			}
			return cmp.Compare(a, b)
		})
		for j, i := range order[:o.k] {
			o.heads[c*o.k+j] = tables[i][c]
		}
	}
	return o
}

// Aborts reports, without running it, that CoreAssign on the width
// partition widths, given in any order, must abort under bestKnown;
// false means it may complete, not that it will.
// Every width must lie in 1..W; sc holds only a sorted copy of unsorted
// widths, so the call allocates nothing once sc has grown.
//
// The rule: while every earlier pick added a positive time, pick j goes
// to a TAM still at load 0, the j-th widest, since lines 10–12 take the
// least load and break ties to the widest TAM, then the lowest index.
// Pick j takes the largest time left among N−j+1 cores at that TAM's
// width, at least the j-th largest time of all cores there, and that
// TAM's load is then the running makespan's floor. So if for some j ≤ min(B, N) the j-th largest time
// at the j-th TAM's width reaches bestKnown, lines 18–20 abort by pick
// j. A zero order statistic ends the argument: a pick that adds nothing
// leaves its TAM at load 0, the next pick's target.
func (o *Orders) Aborts(sc *Scratch, widths []int, bestKnown soc.Cycles) bool {
	if bestKnown <= 0 {
		return false
	}
	m := min(len(widths), o.k)
	if !slices.IsSorted(widths) {
		sc.widths = append(sc.widths[:0], widths...)
		slices.Sort(sc.widths)
		widths = sc.widths
	}
	for j := 0; j < m; j++ {
		w := widths[len(widths)-1-j] // ascending, so widest first from the end
		switch t := o.heads[(w-1)*o.k+j]; {
		case t >= bestKnown:
			return true
		case t == 0:
			return false
		}
	}
	return false
}

// CoreAssign is the partition feed: CoreAssign on the instance that
// FromTimeTable(tables, widths) would build, with the same result,
// scored without building it. TAM j reads column widths[j]-1 of the
// tables and walks that width's shared order. Every width must lie in
// 1..W. The result's TAMOf and Loads alias sc until its next call;
// callers keeping a result copy it. sc is grown for up to W TAMs at
// once, no partition of W having more, so a warm sc allocates nothing.
func (o *Orders) CoreAssign(sc *Scratch, widths []int, bestKnown soc.Cycles) (a Assignment, ok bool) {
	col := sc.prepare(len(o.tables), len(widths), max(len(widths), o.width))
	for j, w := range widths {
		col[j] = w - 1
	}
	return coreAssign(o.tables, o.flat, widths, bestKnown, sc)
}

// instance is the instance feed: TAM j reads column j of in.Times, and
// its order is sorted afresh into sc on every call.
func (sc *Scratch) instance(in *Instance, bestKnown soc.Cycles) (Assignment, bool) {
	n, nb := in.NumCores(), in.NumTAMs()
	col := sc.prepare(n, nb, nb)
	if cap(sc.order) < n*nb {
		sc.order = make([]int32, n*nb)
	}
	order := sc.order[:n*nb]
	for j := range col {
		col[j] = j
		sortOrder(order[j*n:(j+1)*n], in.Times, j)
	}
	return coreAssign(in.Times, order, in.Widths, bestKnown, sc)
}

// prepare sizes sc for n cores on nb TAMs, growing it, when it must,
// to room for tams >= nb TAMs, and returns the col slice the feed
// fills.
func (sc *Scratch) prepare(n, nb, tams int) (col []int) {
	if cap(sc.ints) < n+2*nb {
		sc.ints = make([]int, n+2*tams)
	}
	if cap(sc.loads) < nb {
		sc.loads = make([]soc.Cycles, tams)
	}
	return sc.ints[n : n+nb]
}

// sortOrder fills order with the cores 0..len(order)-1 sorted by
// rows[i][c] descending, ties by index ascending. It is the instance
// feed's per-call sort: an insertion sort from the identity, stable so
// ties keep index order, with no comparator call and no allocation —
// at the tens of cores an instance holds it beats both the scan it
// replaces and slices.SortFunc.
func sortOrder(order []int32, rows [][]soc.Cycles, c int) {
	for k := range order {
		i := int32(k)
		t := rows[i][c]
		m := k
		for m > 0 && rows[order[m-1]][c] < t {
			order[m] = order[m-1]
			m--
		}
		order[m] = i
	}
}

// narrower returns the widest TAM strictly narrower than TAM j, the
// lowest index among equally wide ones, or -1 if there is none: the
// target of the paper's line 15 tie-break.
func narrower(widths []int, j int) int {
	k := -1
	for m, w := range widths {
		if w < widths[j] && (k < 0 || w > widths[k]) {
			k = m
		}
	}
	return k
}

// coreAssign is the Figure 1 body both feeds share. TAM j's testing
// times are column col[j] of rows (rows[i][col[j]] = T_i on TAM j),
// and order[col[j]·n : (col[j]+1)·n] lists the cores by that column
// descending, index ascending on ties; sc.prepare has sized sc and the
// feed has filled col. Each TAM keeps a cursor into its order with
// every entry before it assigned, so the first unassigned entry at or
// after the cursor is the paper's pick: the maximum time, lowest index
// on ties. Cursors only advance, so the picks cost O(N·B) in all, plus
// the line 15 lookahead's walk over a run of tied times.
func coreAssign(rows [][]soc.Cycles, order []int32, widths []int, bestKnown soc.Cycles, sc *Scratch) (Assignment, bool) {
	n, nb := len(rows), len(widths)
	tamOf := sc.ints[:n:n]
	col, cursor := sc.ints[n:n+nb], sc.ints[n+nb:n+2*nb]
	a := Assignment{TAMOf: tamOf, Loads: sc.loads[:nb:nb]}
	for i := range tamOf {
		tamOf[i] = -1
	}
	for j := range a.Loads {
		a.Loads[j] = 0
		cursor[j] = col[j] * n
	}
	for remaining := n; remaining > 0; remaining-- {
		// Lines 10–12: TAM with minimum load; ties to the maximum width.
		j := 0
		for k := 1; k < nb; k++ {
			switch {
			case a.Loads[k] < a.Loads[j]:
				j = k
			case a.Loads[k] == a.Loads[j] && widths[k] > widths[j]:
				j = k
			}
		}
		// Lines 13–16: unassigned core with maximum time on TAM j.
		c := col[j]
		p := cursor[j]
		for tamOf[order[p]] >= 0 {
			p++
		}
		cursor[j] = p
		best := int(order[p])
		top := rows[best][c]
		// Line 15: if another unassigned core ties, look ahead to the
		// widest narrower TAM. The tied cores follow the pick in index
		// order, so a strict > keeps the first maximum. The target is
		// found only once a tie shows.
		k := -1
		for q, end := p+1, (c+1)*n; q < end && rows[order[q]][c] == top; q++ {
			i := int(order[q])
			if tamOf[i] >= 0 {
				continue
			}
			if k < 0 {
				if k = narrower(widths, j); k < 0 {
					break
				}
			}
			if rows[i][col[k]] > rows[best][col[k]] {
				best = i
			}
		}
		// Line 17: assign.
		tamOf[best] = j
		a.Loads[j] += top
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

// ExactOptions tunes the exact solvers.
type ExactOptions struct {
	// NodeLimit caps the branch-and-bound search; <= 0 uses the package
	// sched default.
	NodeLimit int64
	// Deadline, when non-zero, stops the search once it has passed, as
	// the node limit does: the best assignment found so far is returned,
	// not proven optimal. A zero Deadline reads no clock.
	Deadline time.Time
}

// SolveExact solves the instance to optimality with the combinatorial
// branch-and-bound, warm-started by CoreAssign plus local search.
// optimal reports whether the node budget and the deadline sufficed to
// prove optimality.
func SolveExact(in *Instance, opt ExactOptions) (Assignment, bool, error) {
	greedy, _ := CoreAssign(in, 0)
	a, _, optimal, err := SolveExactCutoff(in, opt, 0, greedy)
	return a, optimal, err
}

// SolveExactCutoff solves the instance restricted to assignments
// strictly faster than cutoff cycles. The search starts from greedy,
// the complete CoreAssign assignment of in, tightened by local search:
// a caller that has already run the heuristic (the ILP engine asks it
// for its relaxation prune first) hands it over instead of paying for
// it twice. greedy may alias a Scratch; it is only read. found reports
// whether an assignment below the cutoff exists within the node
// budget; proven reports a completed search — with found it means a
// proven optimum, without it a proof that nothing below the cutoff
// exists (the caller's incumbent of value cutoff is therefore
// optimal). Seeding the search at the cutoff prunes it near the root,
// so a "no improvement" proof costs a fraction of a full solve. A
// cutoff of 0 means none: the search then always finds an assignment,
// and this is SolveExact.
func SolveExactCutoff(in *Instance, opt ExactOptions, cutoff soc.Cycles, greedy Assignment) (a Assignment, found, proven bool, err error) {
	res, err := sched.BranchAndBound(in.Times, sched.Options{
		WarmAssign: LocalImprove(in, greedy).TAMOf,
		NodeLimit:  opt.NodeLimit,
		Cutoff:     cutoff,
		Deadline:   opt.Deadline,
	})
	if err != nil {
		return Assignment{}, false, false, err
	}
	if res.Assign == nil {
		return Assignment{}, false, res.Optimal, nil
	}
	loads, span, err := in.Times.Makespan(res.Assign)
	if err != nil {
		return Assignment{}, false, false, err
	}
	return Assignment{TAMOf: res.Assign, Loads: loads, Time: span}, true, res.Optimal, nil
}

// LocalImprove hill-climbs an assignment with single-core moves and
// pairwise swaps until no step strictly reduces the SOC testing time.
// It tightens warm starts so the exact branch-and-bound prunes harder;
// the result is always at least as good as the input.
func LocalImprove(in *Instance, a Assignment) Assignment {
	n, nb := in.NumCores(), in.NumTAMs()
	tamOf := append([]int(nil), a.TAMOf...)
	loads := append([]soc.Cycles(nil), a.Loads...)

	spanOf := func() soc.Cycles {
		max := soc.Cycles(0)
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		return max
	}
	span := spanOf()
	for iter := 0; iter < 1000; iter++ {
		improved := false
		// Single-core moves.
		for i := 0; i < n; i++ {
			from := tamOf[i]
			for to := 0; to < nb; to++ {
				if to == from {
					continue
				}
				loads[from] -= in.Times[i][from]
				loads[to] += in.Times[i][to]
				if s := spanOf(); s < span {
					span = s
					tamOf[i] = to
					improved = true
					break
				}
				loads[from] += in.Times[i][from]
				loads[to] -= in.Times[i][to]
			}
		}
		// Pairwise swaps.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ti, tj := tamOf[i], tamOf[j]
				if ti == tj {
					continue
				}
				loads[ti] += in.Times[j][ti] - in.Times[i][ti]
				loads[tj] += in.Times[i][tj] - in.Times[j][tj]
				if s := spanOf(); s < span {
					span = s
					tamOf[i], tamOf[j] = tj, ti
					improved = true
					continue
				}
				loads[ti] -= in.Times[j][ti] - in.Times[i][ti]
				loads[tj] -= in.Times[i][tj] - in.Times[j][tj]
			}
		}
		if !improved {
			break
		}
	}
	return Assignment{TAMOf: tamOf, Loads: loads, Time: span}
}

// BuildILP constructs the Section 3.2 ILP model for the instance:
// binary x_ij selecting the TAM of each core and a continuous makespan
// variable T (the last variable), minimizing T subject to
//
//	T >= Σ_i x_ij·T_i(w_j)   for every TAM j
//	Σ_j x_ij = 1             for every core i
//
// The model has N·B+1 variables and N+B constraints, matching the
// complexity the paper quotes.
func BuildILP(in *Instance) *ilp.Model {
	n, nb := in.NumCores(), in.NumTAMs()
	nv := n*nb + 1
	tVar := n * nb
	m := &ilp.Model{
		Prob:    lp.Problem{NumVars: nv, Objective: make([]float64, nv)},
		Integer: make([]bool, nv),
	}
	m.Prob.Objective[tVar] = 1
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for j := 0; j < nb; j++ {
			m.Integer[i*nb+j] = true
			row[i*nb+j] = 1
		}
		m.Prob.AddConstraint(row, lp.EQ, 1)
	}
	for j := 0; j < nb; j++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[i*nb+j] = float64(in.Times[i][j])
		}
		row[tVar] = -1
		m.Prob.AddConstraint(row, lp.LE, 0)
	}
	return m
}

// ILPOptions tunes SolveILP.
type ILPOptions struct {
	// NodeLimit caps branch-and-bound nodes; <= 0 uses the package ilp
	// default.
	NodeLimit int
}

// decodeILP reads the 0/1 assignment out of an ILP solution vector.
func decodeILP(in *Instance, x []float64) (Assignment, error) {
	n, nb := in.NumCores(), in.NumTAMs()
	tamOf := make([]int, n)
	for i := 0; i < n; i++ {
		tamOf[i] = -1
		for j := 0; j < nb; j++ {
			if x[i*nb+j] > 0.5 {
				tamOf[i] = j
				break
			}
		}
		if tamOf[i] < 0 {
			return Assignment{}, fmt.Errorf("assign: ILP solution leaves core %d unassigned", i+1)
		}
	}
	loads, span, err := in.Times.Makespan(tamOf)
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{TAMOf: tamOf, Loads: loads, Time: span}, nil
}

// SolveILP solves the instance through the Section 3.2 ILP model and the
// package ilp branch-and-bound — the path the paper took with lpsolve.
// optimal reports proven optimality.
func SolveILP(in *Instance, opt ILPOptions) (Assignment, bool, error) {
	model := BuildILP(in)
	res, err := ilp.Solve(model, ilp.Options{NodeLimit: opt.NodeLimit})
	if err != nil {
		return Assignment{}, false, err
	}
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		return Assignment{}, false, fmt.Errorf("assign: ILP solve ended with status %v", res.Status)
	}
	a, err := decodeILP(in, res.X)
	if err != nil {
		return Assignment{}, false, err
	}
	return a, res.Proven, nil
}
