package pack

import (
	"sort"

	"soctam/internal/soc"
)

// This file holds the packers' per-solve arena: every buffer one
// packWith run reuses across its budget sweep, plus the incremental
// structures the placement loop queries instead of rescanning — a
// skyline over the per-wire free times (range-max sparse table + prefix
// sums; a commit refreshes only the entries whose range meets its own
// wire band), the skyline's flat-run summary (per width, the lowest run
// of equal free times at least that wide, refreshed in O(W) per
// placement without a ceiling, from which both packers' shortcuts
// answer most placements with no scan) and a segmented power timeline
// (piecewise-constant level per segment with its own range-max table)
// replacing the O(events) window rescan of the old windowPeak.
//
// Ownership rules (see ARCHITECTURE.md §12): the arena is owned by one
// packWith call and is never shared across goroutines; packOnce and
// packOnceDiagonal write only into arena buffers; the winning schedule
// is cloned into fresh memory before it leaves packWith, so callers
// (and the serving layer's result cache) never alias arena storage.

// packArena carries the reusable state of one packing run.
type packArena struct {
	totalWidth int
	ceiling    int

	keys []placeKey // the budget's placement keys, re-sorted per attempt

	// Skyline over avail: pref[x] = Σ avail[0..x) for O(1) waste, and
	// rmq[k][x] = max avail[x..x+2^k) for O(1) earliest-start queries.
	avail []soc.Cycles
	pref  []int64
	rmq   [][]soc.Cycles
	logT  []int

	// Flat-run summary (flatRuns): for w in 1..maxRun, runH[w] is the
	// lowest maximal run of equal avail at least w wires wide and
	// runAt[w] the first wire of the first such run at that height;
	// maxRun is the widest run, and no run is wider.
	runH   []soc.Cycles
	runAt  []int
	maxRun int

	tl powerTimeline

	cur      Schedule // schedule under construction (buffers reused)
	best     Schedule // best schedule so far (buffers reused)
	haveBest bool
}

// newPackArena sizes an arena for a bin of totalWidth wires and
// numCores rectangles per attempt.
func newPackArena(totalWidth, numCores int) *packArena {
	a := &packArena{
		totalWidth: totalWidth,
		keys:       make([]placeKey, numCores),
		avail:      make([]soc.Cycles, totalWidth),
		pref:       make([]int64, totalWidth+1),
		logT:       make([]int, totalWidth+1),
		runH:       make([]soc.Cycles, totalWidth+1),
		runAt:      make([]int, totalWidth+1),
	}
	for x := 2; x <= totalWidth; x++ {
		a.logT[x] = a.logT[x/2] + 1
	}
	levels := a.logT[totalWidth] + 1
	a.rmq = make([][]soc.Cycles, levels)
	for k := range a.rmq {
		a.rmq[k] = make([]soc.Cycles, totalWidth)
	}
	a.cur.Rects = make([]Rect, 0, numCores)
	a.best.Rects = make([]Rect, 0, numCores)
	return a
}

// beginAttempt resets the attempt-scoped state (skyline, timeline, the
// schedule under construction) for one packOnce run under the given
// power ceiling. The best-so-far schedule survives across attempts.
func (a *packArena) beginAttempt(ceiling int) {
	a.ceiling = ceiling
	for x := range a.avail {
		a.avail[x] = 0
	}
	a.updateSkyline(0, a.totalWidth)
	a.tl.reset()
	a.cur.Rects = a.cur.Rects[:0]
	a.cur.Makespan = 0
}

// updateSkyline refreshes the prefix sums and the sparse range-max
// table, through which placement candidates query in O(1), after avail
// changed on wires [lo, hi): only the entries whose range meets that
// band — pref[lo+1..W], and rmq[k][x] for x in (lo-2^k, hi). So a
// commit costs O(W + Σ_k (hi-lo+2^k)); the whole bin, once per
// attempt, is the O(W·log W) rebuild.
func (a *packArena) updateSkyline(lo, hi int) {
	sum := a.pref[lo]
	for x := lo; x < a.totalWidth; x++ {
		sum += int64(a.avail[x])
		a.pref[x+1] = sum
	}
	copy(a.rmq[0][lo:hi], a.avail[lo:hi])
	for k := 1; k < len(a.rmq); k++ {
		half := 1 << (k - 1)
		row, prev := a.rmq[k], a.rmq[k-1]
		for x := max(0, lo-(1<<k)+1); x < hi && x+(1<<k) <= a.totalWidth; x++ {
			row[x] = max(prev[x], prev[x+half])
		}
	}
}

// flatRuns summarizes the skyline's maximal flat runs — maximal wire
// bands of equal avail — for every width, in one left-to-right pass: a
// run of n wires at height h is the first run wide enough for every
// width above the widest run so far, and beats the recorded run of a
// width m <= n only when it is lower (an equal-height run further right
// never does). Those recorded heights never decrease with m, so the
// comparison walks m down from n and stops at the first width the run
// does not beat: O(W) in all. A window of w wires strands no idle area
// under a rectangle exactly when it lies inside one flat run, so runH[w]
// is the earliest zero-waste start for a w-wires rectangle and runAt[w]
// its first wire.
func (a *packArena) flatRuns() {
	w := a.totalWidth
	avail, runH, runAt := a.avail[:w], a.runH[:w+1], a.runAt[:w+1]
	maxRun := 0
	for at := 0; at < w; {
		h, end := avail[at], at+1
		for end < w && avail[end] == h {
			end++
		}
		n := end - at
		for ; n > maxRun; n-- {
			runH[n], runAt[n] = h, at
		}
		for ; n >= 1 && h < runH[n]; n-- {
			runH[n], runAt[n] = h, at
		}
		maxRun = max(maxRun, end-at)
		at = end
	}
	a.maxRun = maxRun
}

// maxAvail returns max(avail[at..at+w)) — the earliest start the
// skyline allows for a rectangle over those wires.
func (a *packArena) maxAvail(at, w int) soc.Cycles {
	k := a.logT[w]
	v := a.rmq[k][at]
	if u := a.rmq[k][at+w-(1<<k)]; u > v {
		v = u
	}
	return v
}

// measure evaluates one candidate position for a w-wires by t-cycles
// rectangle of the given power starting at wire `at`: the earliest
// start the skyline allows (pushed further under the power ceiling
// until the whole test has headroom), the idle wire-cycle area the
// placement would strand under itself, and the finish time. It computes
// exactly what the former measurePlacement scan computed, through the
// arena's incremental structures.
func (a *packArena) measure(power, at, w int, t soc.Cycles) (start soc.Cycles, waste int64, end soc.Cycles) {
	start = a.maxAvail(at, w)
	if a.ceiling > 0 {
		start = a.tl.earliestStart(a.ceiling, power, start, t)
	}
	waste = int64(start)*int64(w) - (a.pref[at+w] - a.pref[at])
	return start, waste, start + t
}

// commit books a chosen rectangle into the schedule under construction,
// the skyline and (under a ceiling) the power timeline.
func (a *packArena) commit(r Rect) {
	a.cur.Rects = append(a.cur.Rects, r)
	if a.ceiling > 0 && r.Power > 0 && r.Duration() > 0 {
		a.tl.insert(r.Start, r.End, r.Power)
	}
	for x := r.Wire; x < r.Wire+r.Width; x++ {
		a.avail[x] = r.End
	}
	a.updateSkyline(r.Wire, r.Wire+r.Width)
	if r.End > a.cur.Makespan {
		a.cur.Makespan = r.End
	}
}

// consider folds the just-built schedule into the best-so-far, keeping
// the earlier one on ties (the old "strictly better wins" rule), and
// reports whether it improved. Improvement swaps the two schedules'
// buffers instead of copying.
func (a *packArena) consider() bool {
	if a.haveBest && a.cur.Makespan >= a.best.Makespan {
		return false
	}
	a.best, a.cur = a.cur, a.best
	a.haveBest = true
	return true
}

// take clones the best schedule into fresh memory for the caller.
func (a *packArena) take() *Schedule {
	return &Schedule{
		TotalWidth: a.totalWidth,
		Rects:      append([]Rect(nil), a.best.Rects...),
		Makespan:   a.best.Makespan,
	}
}

// powerTimeline is the committed placements' concurrent-power profile
// as a piecewise-constant level over time segments: level[i] holds on
// [times[i], times[i+1]) (the last segment extends to infinity), with a
// sparse range-max table over the levels rebuilt per insert. A window's
// power peak is then one O(1) range query over the segments it touches,
// instead of the former rescan of the whole event list from time zero.
//
// The equivalence with the event-list windowPeak is exact: events sort
// downward steps first at equal times, so within one instant the
// running sum dips before it rises — no intermediate value ever exceeds
// the level just before or just after the instant, and both of those
// are segment levels.
type powerTimeline struct {
	times []soc.Cycles // segment boundaries, increasing; times[0] = 0
	level []int        // level[i] on [times[i], times[i+1])
	rmq   [][]int      // rmq[k][i] = max level[i..i+2^k)
	logT  []int
	ends  []soc.Cycles // committed end times, ascending (with duplicates)
}

// reset empties the timeline to the all-zero profile.
func (tl *powerTimeline) reset() {
	tl.times = append(tl.times[:0], 0)
	tl.level = append(tl.level[:0], 0)
	tl.ends = tl.ends[:0]
	tl.rebuild()
}

// segmentAt returns the index of the segment containing time t: the
// last i with times[i] <= t.
func (tl *powerTimeline) segmentAt(t soc.Cycles) int {
	return sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t }) - 1
}

// split ensures a segment boundary exists exactly at time t and returns
// the index of the segment starting there.
func (tl *powerTimeline) split(t soc.Cycles) int {
	i := tl.segmentAt(t)
	if tl.times[i] == t {
		return i
	}
	tl.times = append(tl.times, 0)
	copy(tl.times[i+2:], tl.times[i+1:])
	tl.times[i+1] = t
	tl.level = append(tl.level, 0)
	copy(tl.level[i+2:], tl.level[i+1:])
	tl.level[i+1] = tl.level[i]
	return i + 1
}

// insert raises the profile by power over [start, end) and records the
// end time as a future placement candidate.
func (tl *powerTimeline) insert(start, end soc.Cycles, power int) {
	i := tl.split(start)
	j := tl.split(end)
	for ; i < j; i++ {
		tl.level[i] += power
	}
	k := sort.Search(len(tl.ends), func(i int) bool { return tl.ends[i] > end })
	tl.ends = append(tl.ends, 0)
	copy(tl.ends[k+1:], tl.ends[k:])
	tl.ends[k] = end
	tl.rebuild()
}

// rebuild refreshes the sparse range-max table over the segment levels.
func (tl *powerTimeline) rebuild() {
	n := len(tl.level)
	for len(tl.logT) <= n {
		l := 0
		if x := len(tl.logT); x >= 2 {
			l = tl.logT[x/2] + 1
		}
		tl.logT = append(tl.logT, l)
	}
	levels := tl.logT[n] + 1
	for len(tl.rmq) < levels {
		tl.rmq = append(tl.rmq, nil)
	}
	row0 := append(tl.rmq[0][:0], tl.level...)
	tl.rmq[0] = row0
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		width := n - (1 << k) + 1
		row := tl.rmq[k][:0]
		prev := tl.rmq[k-1]
		for x := 0; x < width; x++ {
			v := prev[x]
			if u := prev[x+half]; u > v {
				v = u
			}
			row = append(row, v)
		}
		tl.rmq[k] = row
	}
}

// windowPeak returns the profile's peak over the half-open window
// [from, to): the maximum segment level over every segment the window
// touches.
func (tl *powerTimeline) windowPeak(from, to soc.Cycles) int {
	i := tl.segmentAt(from)
	j := sort.Search(len(tl.times), func(k int) bool { return tl.times[k] >= to })
	// Segments i..j-1 intersect the window; j-1 >= i always since
	// times[i] <= from < to.
	k := tl.logT[j-i]
	v := tl.rmq[k][i]
	if u := tl.rmq[k][j-(1<<k)]; u > v {
		v = u
	}
	return v
}

// earliestStart returns the earliest start >= from at which a test
// drawing power units for dur cycles keeps the committed profile plus
// itself within the ceiling. Only from itself and the committed end
// times need checking — the window's overlap set can only shrink when
// its leading edge crosses an end event — and the end times are visited
// ascending, so the first feasible candidate is the earliest. A
// feasible start always exists: after the last committed rectangle ends
// the profile is zero, and the packers reject single cores above the
// ceiling up front.
func (tl *powerTimeline) earliestStart(ceiling, power int, from, dur soc.Cycles) soc.Cycles {
	if power == 0 || dur == 0 {
		return from
	}
	if tl.windowPeak(from, from+dur)+power <= ceiling {
		return from
	}
	k := sort.Search(len(tl.ends), func(i int) bool { return tl.ends[i] > from })
	for ; k < len(tl.ends); k++ {
		at := tl.ends[k]
		if tl.windowPeak(at, at+dur)+power <= ceiling {
			return at
		}
	}
	return from // unreachable: the last end event always fits
}
