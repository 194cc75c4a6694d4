package sched

import (
	"fmt"
	"sort"

	"soctam/internal/soc"
)

// Matrix holds processing times: Matrix[i][j] is the time of job i on
// machine j. Rows must be non-empty and uniform in length.
type Matrix [][]soc.Cycles

// Validate reports the first structural problem with the matrix.
func (m Matrix) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("sched: no jobs")
	}
	width := len(m[0])
	if width == 0 {
		return fmt.Errorf("sched: no machines")
	}
	for i, row := range m {
		if len(row) != width {
			return fmt.Errorf("sched: job %d has %d machine times, want %d", i, len(row), width)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("sched: job %d machine %d has negative time %d", i, j, v)
			}
		}
	}
	return nil
}

// NumJobs returns the number of jobs.
func (m Matrix) NumJobs() int { return len(m) }

// NumMachines returns the number of machines.
func (m Matrix) NumMachines() int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// Makespan returns the per-machine loads and the makespan of an
// assignment (assign[i] = machine of job i).
func (m Matrix) Makespan(assign []int) (loads []soc.Cycles, makespan soc.Cycles, err error) {
	if len(assign) != len(m) {
		return nil, 0, fmt.Errorf("sched: assignment covers %d jobs, want %d", len(assign), len(m))
	}
	loads = make([]soc.Cycles, m.NumMachines())
	for i, j := range assign {
		if j < 0 || j >= len(loads) {
			return nil, 0, fmt.Errorf("sched: job %d assigned to machine %d of %d", i, j, len(loads))
		}
		loads[j] += m[i][j]
	}
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return loads, makespan, nil
}

// LowerBound returns a valid lower bound on the optimal makespan: the
// larger of the biggest per-job minimum time and the average machine load
// if every job ran at its fastest.
func (m Matrix) LowerBound() soc.Cycles {
	var maxMin, sumMin soc.Cycles
	for _, row := range m {
		jobMin := row[0]
		for _, v := range row[1:] {
			if v < jobMin {
				jobMin = v
			}
		}
		sumMin += jobMin
		if jobMin > maxMin {
			maxMin = jobMin
		}
	}
	nm := soc.Cycles(m.NumMachines())
	avg := (sumMin + nm - 1) / nm
	if avg > maxMin {
		return avg
	}
	return maxMin
}

// Greedy assigns jobs in decreasing order of their minimum processing
// time, each to the machine minimizing the resulting load — the classic
// LPT-flavored list-scheduling baseline (without the paper's tie-break
// refinements, which live in package assign).
func Greedy(m Matrix) (assign []int, makespan soc.Cycles, err error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	order := make([]int, len(m))
	key := make([]soc.Cycles, len(m))
	for i, row := range m {
		order[i] = i
		k := row[0]
		for _, v := range row[1:] {
			if v < k {
				k = v
			}
		}
		key[i] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return key[order[a]] > key[order[b]] })
	loads := make([]soc.Cycles, m.NumMachines())
	assign = make([]int, len(m))
	for _, i := range order {
		best := 0
		for j := 1; j < len(loads); j++ {
			if loads[j]+m[i][j] < loads[best]+m[i][best] {
				best = j
			}
		}
		assign[i] = best
		loads[best] += m[i][best]
	}
	_, makespan, err = m.Makespan(assign)
	return assign, makespan, err
}

// BruteForce finds the exact optimum by enumerating all m^n assignments.
// It is the test oracle; it refuses instances with more than 20 jobs.
func BruteForce(m Matrix) (assign []int, makespan soc.Cycles, err error) {
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	n, nm := m.NumJobs(), m.NumMachines()
	if n > 20 {
		return nil, 0, fmt.Errorf("sched: brute force refuses %d jobs", n)
	}
	cur := make([]int, n)
	best := make([]int, n)
	loads := make([]soc.Cycles, nm)
	bestSpan := soc.Cycles(-1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			span := soc.Cycles(0)
			for _, l := range loads {
				if l > span {
					span = l
				}
			}
			if bestSpan < 0 || span < bestSpan {
				bestSpan = span
				copy(best, cur)
			}
			return
		}
		for j := 0; j < nm; j++ {
			loads[j] += m[i][j]
			cur[i] = j
			rec(i + 1)
			loads[j] -= m[i][j]
		}
	}
	rec(0)
	return best, bestSpan, nil
}

// Options tunes BranchAndBound.
type Options struct {
	// WarmAssign optionally seeds the incumbent with a known schedule
	// (e.g. from Core_assign); it must cover all jobs if set.
	WarmAssign []int
	// NodeLimit caps search nodes; <= 0 means 5,000,000.
	NodeLimit int64
	// Cutoff, when non-zero, is an exclusive upper bound on the
	// makespan: the search reports only schedules strictly faster,
	// pruning against the cutoff from the root. When none exists,
	// Result.Assign is nil and Optimal reports whether that is a
	// completed proof. A caller holding an incumbent of value c passes
	// Cutoff=c to ask "is there anything better?" far more cheaply than
	// re-deriving the optimum. The zero value means no cutoff, so an
	// incumbent of exactly 0 cycles cannot be expressed — real
	// testing-time makespans are always positive.
	Cutoff soc.Cycles
}

// Result is the outcome of BranchAndBound. Assign is a complete, valid
// schedule achieving Makespan — except under Options.Cutoff, where a
// nil Assign reports that no schedule below the cutoff was found.
type Result struct {
	Assign   []int
	Makespan soc.Cycles
	Nodes    int64
	// Optimal reports whether the search completed (the result is the
	// proven optimum) rather than hitting the node limit.
	Optimal bool
}

// BranchAndBound solves R||Cmax exactly (within the node budget). Jobs
// are branched in decreasing order of minimum time; machines are tried in
// increasing order of resulting load, ties in machine-index order;
// subtrees are pruned against the incumbent with a remaining-work lower
// bound, and interchangeable machines (identical time columns) with equal
// current loads are searched only once. All search state is allocated
// once per call, so a node allocates nothing.
func BranchAndBound(m Matrix, opt Options) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	n, nm := m.NumJobs(), m.NumMachines()
	nodeLimit := opt.NodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 5_000_000
	}

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

	s := &search{
		m:         m,
		order:     order,
		suffixMin: suffixMin,
		twins:     lowerTwins(deriveClasses(m)),
		loads:     make([]soc.Cycles, nm),
		cur:       make([]int, n),
		byKey:     make([]int, n*nm),
		keys:      make([]soc.Cycles, n*nm),
		best:      bestAssign,
		incumbent: incumbent,
		found:     found,
		nodeLimit: nodeLimit,
		complete:  true,
	}
	s.branch(0, 0)

	if !s.found {
		return Result{Nodes: s.nodes, Optimal: s.complete}, nil
	}
	return Result{Assign: s.best, Makespan: s.incumbent, Nodes: s.nodes, Optimal: s.complete}, nil
}

// search is one BranchAndBound run's state. Every slice is sized once
// up front, so the recursion writes into them but never allocates.
type search struct {
	m         Matrix
	order     []int        // jobs in branching order
	suffixMin []soc.Cycles // suffixMin[d] = total minimum work of order[d:]
	twins     [][]int      // twins[j] = lower-indexed machines identical to j
	loads     []soc.Cycles // current per-machine loads
	cur       []int        // current partial assignment
	// byKey and keys hold, per depth d, the machines at
	// [d*nm, (d+1)*nm) in increasing order of resulting load and those
	// loads. Recursion levels must not share a slot: inner levels
	// refill theirs while outer loops still read their own.
	byKey     []int
	keys      []soc.Cycles
	best      []int
	incumbent soc.Cycles
	found     bool
	nodes     int64
	nodeLimit int64
	complete  bool
}

// branch expands the node at depth d, where total is the work already
// placed. Machines are ordered by a stable insertion sort on the
// resulting load, ties in index order. Node-capped answers depend on
// the order nodes are visited in, so this order must not change.
// Once a machine's resulting load reaches the incumbent the loop stops:
// later keys are no smaller, each child restores the loads, and the
// incumbent only falls, so every later machine would fail the same test.
func (s *search) branch(d int, total soc.Cycles) {
	if s.nodes >= s.nodeLimit {
		s.complete = false
		return
	}
	s.nodes++
	loads := s.loads
	if d == len(s.order) {
		span := soc.Cycles(0)
		for _, l := range loads {
			if l > span {
				span = l
			}
		}
		if span < s.incumbent {
			s.incumbent = span
			copy(s.best, s.cur)
			s.found = true
		}
		return
	}
	// Remaining-work bound: even spreading the remaining minimum work
	// over all machines cannot beat the incumbent -> prune.
	nm := len(loads)
	avg := (total + s.suffixMin[d] + soc.Cycles(nm) - 1) / soc.Cycles(nm)
	if avg >= s.incumbent {
		return
	}
	i := s.order[d]
	row := s.m[i]
	byKey := s.byKey[d*nm : (d+1)*nm]
	keys := s.keys[d*nm : (d+1)*nm]
	for j, t := range row {
		k := loads[j] + t
		p := j
		for ; p > 0 && keys[p-1] > k; p-- {
			keys[p], byKey[p] = keys[p-1], byKey[p-1]
		}
		keys[p], byKey[p] = k, j
	}
	for p, j := range byKey {
		newLoad := keys[p]
		if newLoad >= s.incumbent {
			break
		}
		if s.idleTwin(j) {
			continue
		}
		loads[j] = newLoad
		s.cur[i] = j
		s.branch(d+1, total+row[j])
		loads[j] = newLoad - row[j]
		if s.nodes >= s.nodeLimit {
			s.complete = false
			return
		}
	}
}

// idleTwin reports whether a lower-indexed machine identical to j has
// the same current load. Symmetry breaking tries only the lowest-indexed
// machine of such a group.
func (s *search) idleTwin(j int) bool {
	for _, q := range s.twins[j] {
		if s.loads[q] == s.loads[j] {
			return true
		}
	}
	return false
}

// lowerTwins lists, for each machine, the lower-indexed machines of its
// class.
func lowerTwins(classes []int) [][]int {
	twins := make([][]int, len(classes))
	for j, c := range classes {
		for q := 0; q < j; q++ {
			if classes[q] == c {
				twins[j] = append(twins[j], q)
			}
		}
	}
	return twins
}

// deriveClasses groups machines whose whole time columns are equal.
func deriveClasses(m Matrix) []int {
	nm := m.NumMachines()
	classes := make([]int, nm)
	next := 0
	for j := 0; j < nm; j++ {
		found := false
		for q := 0; q < j; q++ {
			if columnsEqual(m, q, j) {
				classes[j] = classes[q]
				found = true
				break
			}
		}
		if !found {
			classes[j] = next
			next++
		}
	}
	return classes
}

func columnsEqual(m Matrix, a, b int) bool {
	for _, row := range m {
		if row[a] != row[b] {
			return false
		}
	}
	return true
}
