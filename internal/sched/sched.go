package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

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
	// Deadline, when non-zero, stops the search once it has passed, as
	// the node cap does: Result.Optimal is then false and the incumbent
	// stands. The clock is read once per deadlineStride nodes, where the
	// cap is checked, so a zero Deadline reads no clock and visits
	// exactly the nodes a search without one visits.
	Deadline time.Time
}

// deadlineStride is how many nodes a search with a deadline visits
// between clock reads: well under a millisecond of search.
const deadlineStride = 1 << 14

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

// BranchAndBound solves R||Cmax exactly (within the node budget and the
// deadline). Jobs are branched in decreasing order of minimum time;
// machines are tried in increasing order of resulting load, ties in
// machine-index order; subtrees are pruned against the incumbent with a
// remaining-work lower bound, and interchangeable machines (identical
// time columns) with equal current loads are searched only once. All
// search state is allocated once per call, so a node allocates nothing.
func BranchAndBound(m Matrix, opt Options) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	n, nm := m.NumJobs(), m.NumMachines()
	nodeCap := opt.NodeLimit
	if nodeCap <= 0 {
		nodeCap = 5_000_000
	}
	nodeLimit := nodeCap
	if !opt.Deadline.IsZero() {
		nodeLimit = min(nodeCap, deadlineStride)
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

	// suffixMin[d] = total minimum work of jobs order[d:]; slab holds
	// their rows in the same order, row d at [d*nm, (d+1)*nm), and
	// shares one allocation with the per-depth keys.
	suffixMin := make([]soc.Cycles, n+1)
	cycles := make([]soc.Cycles, 2*n*nm)
	slab, keys := cycles[:n*nm], cycles[n*nm:]
	for d := n - 1; d >= 0; d-- {
		suffixMin[d] = suffixMin[d+1] + minTime[order[d]]
		copy(slab[d*nm:], m[order[d]])
	}

	s := &search{
		slab:       slab,
		order:      order,
		suffixMin:  suffixMin,
		twin:       lowerTwins(deriveClasses(m)),
		loads:      make([]soc.Cycles, nm),
		cur:        make([]int, n),
		byKey:      make([]int, n*nm),
		keys:       keys,
		best:       bestAssign,
		incumbent:  incumbent,
		pruneAbove: pruneThreshold(incumbent, nm),
		found:      found,
		// The root is node 1: nodeLimit is at least 1, so its cap
		// check never fires, and n >= 1, so it is no leaf and only its
		// bound applies.
		nodes:     1,
		nodeLimit: nodeLimit,
		nodeCap:   nodeCap,
		deadline:  opt.Deadline,
		complete:  true,
	}
	if suffixMin[0] <= s.pruneAbove {
		s.branch(0, 0, 0)
	}

	if !s.found {
		return Result{Nodes: s.nodes, Optimal: s.complete}, nil
	}
	return Result{Assign: s.best, Makespan: s.incumbent, Nodes: s.nodes, Optimal: s.complete}, nil
}

// search is one BranchAndBound run's state. Every slice is sized once
// up front, so the recursion writes into them but never allocates.
type search struct {
	slab      []soc.Cycles // job rows in branching order, one per depth
	order     []int        // jobs in branching order
	suffixMin []soc.Cycles // suffixMin[d] = total minimum work of order[d:]
	twin      []int        // twin[j] = nearest lower-indexed machine identical to j, or -1
	loads     []soc.Cycles // current per-machine loads
	cur       []int        // cur[d] = machine of job order[d] on the current path
	// byKey and keys hold, per depth d, the machines at
	// [d*nm, (d+1)*nm) in increasing order of resulting load and those
	// loads. Recursion levels must not share a slot: inner levels
	// refill theirs while outer loops still read their own.
	byKey     []int
	keys      []soc.Cycles
	best      []int
	incumbent soc.Cycles
	// pruneAbove is pruneThreshold(incumbent, machines): a node whose
	// placed plus remaining minimum work exceeds it cannot beat the
	// incumbent.
	pruneAbove soc.Cycles
	found      bool
	nodes      int64
	// nodeLimit is the node count at which branch next calls stop: the
	// cap, or with a deadline the next clock read, at most the cap.
	nodeLimit int64
	nodeCap   int64
	deadline  time.Time
	complete  bool
}

// branch expands a node at depth d that is already counted and has
// passed its bound: total is the work placed and span the largest
// machine load. Its children are the machines in a stable insertion
// sort on the resulting load, ties in index order. Node-capped answers
// depend on the order nodes are visited in, so neither that order nor
// the set of nodes visited may change. Each child's own steps run here
// in its order: the cap check, the count, then the leaf test or the
// remaining-work bound, then the parent's cap check after it.
//
// The fill leaves out two kinds of machine that the loop would skip
// anyway, because every child restores loads[j]: one whose resulting
// load reaches the incumbent (keys ascend and the incumbent only
// falls, so the loop would have stopped first), and an idle twin
// (the loads it compares are the same at fill and at visit time).
func (s *search) branch(d int, total, span soc.Cycles) {
	loads := s.loads
	nm := len(loads)
	row := s.slab[d*nm : (d+1)*nm]
	byKey := s.byKey[d*nm : (d+1)*nm]
	keys := s.keys[d*nm : (d+1)*nm]
	n := 0
	for j, t := range row {
		k := loads[j] + t
		if k >= s.incumbent || s.idleTwin(j) {
			continue
		}
		p := n
		for ; p > 0 && keys[p-1] > k; p-- {
			keys[p], byKey[p] = keys[p-1], byKey[p-1]
		}
		keys[p], byKey[p] = k, j
		n++
	}
	// The first child's cap check. Each later child's is the check
	// after its elder sibling, which returns once the cap is reached.
	if n > 0 && s.nodes >= s.nodeLimit && s.stop() {
		return
	}
	leaf := d+1 == len(s.order)
	// A child placing t more cycles holds rest+t placed and remaining
	// minimum work.
	rest := total + s.suffixMin[d+1]
	for p, j := range byKey[:n] {
		k := keys[p]
		if k >= s.incumbent {
			break
		}
		s.nodes++
		childSpan := max(span, k)
		t := row[j]
		switch {
		case leaf:
			if childSpan < s.incumbent {
				s.cur[d] = j
				s.improve(childSpan)
			}
		case rest+t > s.pruneAbove:
			// Even spreading the child's remaining minimum work over
			// all machines cannot beat the incumbent.
		default:
			loads[j] = k
			s.cur[d] = j
			s.branch(d+1, total+t, childSpan)
			loads[j] = k - t
		}
		if s.nodes >= s.nodeLimit && s.stop() {
			return
		}
	}
}

// stop is branch's cold path, taken when the node count reaches
// nodeLimit: it ends the search at the cap or once the deadline has
// passed, and otherwise re-arms nodeLimit deadlineStride nodes ahead.
// Without a deadline nodeLimit is the cap, so stop ends the search
// without reading the clock.
func (s *search) stop() bool {
	if s.nodes < s.nodeCap && !time.Now().After(s.deadline) {
		s.nodeLimit = min(s.nodeCap, s.nodes+deadlineStride)
		return false
	}
	s.complete = false
	return true
}

// improve makes the current complete path, of makespan span, the
// incumbent.
func (s *search) improve(span soc.Cycles) {
	s.incumbent = span
	s.pruneAbove = pruneThreshold(span, len(s.loads))
	for d, i := range s.order {
		s.best[i] = s.cur[d]
	}
	s.found = true
}

// pruneThreshold returns the most work that machines can share evenly
// below incumbent: work x fits iff ceil(x/machines) < incumbent, that
// is x <= (incumbent-1)*machines. It replaces a division per node by a
// compare. A product past math.MaxInt64 admits every int64 sum of
// times, so it saturates there; a non-positive incumbent admits no
// work at all.
func pruneThreshold(incumbent soc.Cycles, machines int) soc.Cycles {
	if incumbent <= 0 {
		return -1
	}
	hi, lo := bits.Mul64(uint64(incumbent-1), uint64(machines))
	if hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return soc.Cycles(lo)
}

// idleTwin reports whether a lower-indexed machine identical to j has
// the same current load. Symmetry breaking tries only the lowest-indexed
// machine of such a group.
func (s *search) idleTwin(j int) bool {
	for q := s.twin[j]; q >= 0; q = s.twin[q] {
		if s.loads[q] == s.loads[j] {
			return true
		}
	}
	return false
}

// lowerTwins returns, for each machine, the nearest lower-indexed
// machine of its class, or -1; following it from j visits every
// lower-indexed machine identical to j.
func lowerTwins(classes []int) []int {
	twin := make([]int, len(classes))
	for j, c := range classes {
		twin[j] = -1
		for q := j - 1; q >= 0; q-- {
			if classes[q] == c {
				twin[j] = q
				break
			}
		}
	}
	return twin
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
