package pack

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Rect is one core's test placed in the bin: it occupies wires
// [Wire, Wire+Width) for cycles [Start, End).
type Rect struct {
	// Core is the 0-based core index in the SOC.
	Core int
	// Wire is the first TAM wire of the band the core's wrapper connects
	// to (0-based).
	Wire int
	// Width is the number of wires used — the wrapper's TAM width.
	Width int
	// Start and End delimit the core's test in clock cycles.
	Start, End soc.Cycles
	// Power is the test power the core draws while the rectangle runs
	// (0 when the SOC carries no power data).
	Power int
}

// Duration returns the rectangle length in cycles.
func (r *Rect) Duration() soc.Cycles { return r.End - r.Start }

// Schedule is a complete rectangle packing of an SOC's tests.
type Schedule struct {
	// TotalWidth is W, the bin height in TAM wires.
	TotalWidth int
	// Rects holds one placed rectangle per core, ordered by start time
	// then first wire. A fixed-TAM architecture's schedule
	// (schedule.Build) keeps each TAM's rectangles inside its own band
	// of wires.
	Rects []Rect
	// Makespan is the SOC testing time: the latest rectangle end.
	Makespan soc.Cycles
	// Bound is the one lower bound on the SOC testing time at this
	// width and ceiling (LowerBound), the figure every backend's
	// Result.Gap is measured against; Makespan >= Bound always. It is
	// zero in a fixed-TAM schedule, which no packer graded.
	Bound soc.Cycles
	// MaxPower is the peak-power ceiling the schedule was packed under;
	// 0 means unconstrained. Validate enforces PeakPower <= MaxPower.
	// It is zero in a fixed-TAM schedule: the partition flow checks its
	// ceiling on the assignment instead.
	MaxPower int
	// Truncated reports that the run's deadline (the Deadline option)
	// stopped the budget sweep early: the schedule is the best of the
	// attempts that ran, not of the full sweep. It is still a complete,
	// valid packing of every core — only schedule quality is affected.
	Truncated bool
}

// PeakPower returns the maximum summed test power of concurrently
// running tests anywhere in the schedule. Tests meeting at an instant
// (one ends exactly where the other starts) do not overlap.
func (s *Schedule) PeakPower() int {
	events := make([]soc.PowerEvent, 0, 2*len(s.Rects))
	for i := range s.Rects {
		r := &s.Rects[i]
		if r.Power == 0 || r.Duration() == 0 {
			continue
		}
		events = append(events, soc.PowerEvent{At: r.Start, Delta: r.Power},
			soc.PowerEvent{At: r.End, Delta: -r.Power})
	}
	return soc.PeakConcurrent(events)
}

// BusyFraction returns the packed area over the bin area W×makespan —
// the wire-cycle utilization of the schedule.
func (s *Schedule) BusyFraction() float64 {
	if s.TotalWidth == 0 || s.Makespan == 0 {
		return 0
	}
	var busy int64
	for i := range s.Rects {
		r := &s.Rects[i]
		busy += int64(r.Width) * int64(r.Duration())
	}
	return float64(busy) / (float64(s.TotalWidth) * float64(s.Makespan))
}

// Validate checks that the schedule is a legal packing for an SOC with
// numCores cores: every core placed exactly once, every rectangle within
// the bin, no two rectangles overlapping, and Makespan consistent.
func (s *Schedule) Validate(numCores int) error {
	if len(s.Rects) != numCores {
		return fmt.Errorf("pack: %d rectangles for %d cores", len(s.Rects), numCores)
	}
	seen := make([]bool, numCores)
	var span soc.Cycles
	for i := range s.Rects {
		r := &s.Rects[i]
		if r.Core < 0 || r.Core >= numCores {
			return fmt.Errorf("pack: rectangle %d names core %d of %d", i, r.Core, numCores)
		}
		if seen[r.Core] {
			return fmt.Errorf("pack: core %d placed twice", r.Core+1)
		}
		seen[r.Core] = true
		if r.Width < 1 || r.Wire < 0 || r.Wire+r.Width > s.TotalWidth {
			return fmt.Errorf("pack: core %d occupies wires [%d,%d) outside [0,%d)",
				r.Core+1, r.Wire, r.Wire+r.Width, s.TotalWidth)
		}
		// Zero-duration rectangles are legal: a core with no patterns
		// tests in 0 cycles yet must still be placed exactly once.
		if r.Start < 0 || r.End < r.Start {
			return fmt.Errorf("pack: core %d has negative interval [%d,%d)", r.Core+1, r.Start, r.End)
		}
		if r.Power < 0 {
			return fmt.Errorf("pack: core %d has negative test power %d", r.Core+1, r.Power)
		}
		if r.End > span {
			span = r.End
		}
	}
	if span != s.Makespan {
		return fmt.Errorf("pack: makespan %d, rectangles end at %d", s.Makespan, span)
	}
	for i := range s.Rects {
		for j := i + 1; j < len(s.Rects); j++ {
			a, b := &s.Rects[i], &s.Rects[j]
			if a.Wire < b.Wire+b.Width && b.Wire < a.Wire+a.Width &&
				a.Start < b.End && b.Start < a.End {
				return fmt.Errorf("pack: cores %d and %d overlap", a.Core+1, b.Core+1)
			}
		}
	}
	if s.MaxPower > 0 {
		if peak := s.PeakPower(); peak > s.MaxPower {
			return fmt.Errorf("pack: peak concurrent power %d exceeds the ceiling %d", peak, s.MaxPower)
		}
	}
	return nil
}

// Options tunes the packer. The zero value packs under the SOC's own
// power ceiling with freshly computed wrapper curves and no deadline.
type Options struct {
	// MaxPower is the peak-power ceiling enforced during placement: no
	// position whose concurrent-power profile would exceed it is ever
	// taken. <= 0 falls back to the SOC's own MaxPower; 0 there too
	// means unconstrained (and reproduces the power-oblivious packing
	// exactly).
	MaxPower int
	// Curves optionally supplies precomputed wrapper curves for the SOC
	// (wrapper.Curves over at least the packing's total width), so a
	// caller solving the same SOC with several backends — the portfolio
	// race in internal/coopt — shares one curve computation. A nil or
	// mismatched set is ignored and the packer computes its own; results
	// are bit-for-bit identical either way.
	Curves *wrapper.CurveSet
	// Deadline, when nonzero, makes the run anytime: once a first
	// complete schedule exists, the budget sweep and the refinement
	// rounds stop at the first attempt boundary past the instant and
	// the best schedule so far is returned with Truncated set. The
	// first placement attempt always runs to completion, so a valid
	// run always returns a schedule — never an error. A zero Deadline
	// never reads the clock; results are then bit-for-bit identical to
	// a deadline-free run.
	Deadline time.Time
}

// sweepBudgets are the testing-time budgets the sweep tries, as
// multiples of the lower bound, from tight (wide rectangles, little
// slack) to relaxed (narrow rectangles, more placement freedom). Each
// budget shapes the rectangles (preferred widths); the best resulting
// schedule wins regardless of which budget produced it.
var sweepBudgets = [...]float64{1.0, 1.02, 1.05, 1.08, 1.12, 1.17, 1.25, 1.35, 1.5, 1.75, 2.0}

// LowerBound is the one lower bound on the SOC testing time at total
// width W: no TAM count, width partition, assignment, packing or
// wrapper design beats it. Every backend's Result.Gap and Proven, the
// ILP engine's early stop, the portfolio's cancellation and
// Schedule.Bound read it. tables holds the cores' testing times
// ([i][w-1] = T_i(w), for w up to at least W), s the cores' powers and
// ceiling the run's resolved peak-power ceiling (SOC.PowerCeiling; 0 =
// none). The bound is the largest of
//
//   - the bottleneck bound max_i T_i(W): a core cannot finish faster
//     than on all W wires (the bound the paper invokes for p31108,
//     whose "Core 18" pins the SOC testing time);
//   - the area bound ceil(Σ_i min_w w·T_i(w) / W): core i occupies at
//     least its smallest rectangle of w wires by T_i(w) cycles, and the
//     W wires deliver W wire-cycles per cycle;
//   - under a ceiling, the energy bound ceil(Σ_i P_i·T_i(W) / ceiling):
//     core i draws P_i for at least its fastest testing time, and the
//     ceiling caps delivery at that many power-cycles per cycle.
func LowerBound(s *soc.SOC, tables [][]soc.Cycles, width, ceiling int) soc.Cycles {
	var bottleneck soc.Cycles
	var area, energy int64
	for i, table := range tables {
		table = table[:width]
		fastest := table[width-1]
		bottleneck = max(bottleneck, fastest)
		smallest := int64(math.MaxInt64)
		for w, t := range table {
			smallest = min(smallest, int64(w+1)*int64(t))
		}
		area += smallest
		energy += int64(s.Cores[i].Power) * int64(fastest)
	}
	lb := max(bottleneck, soc.Cycles((area+int64(width)-1)/int64(width)))
	if ceiling > 0 {
		lb = max(lb, soc.Cycles((energy+int64(ceiling)-1)/int64(ceiling)))
	}
	return lb
}

// coreShape is the per-core packing input: the Pareto widths worth
// offering and the testing time at each.
type coreShape struct {
	core    int
	power   int          // test power drawn while the core's test runs
	widths  []int        // Pareto widths, increasing
	times   []soc.Cycles // times[k] = T(widths[k]), decreasing
	minArea int64        // min over k of widths[k]·times[k]
}

// coreShapes computes every core's packing input, and returns the
// testing-time tables it read them from (LowerBound's input). Only
// Pareto widths are offered: at any other width the wrapper uses fewer
// wires than the rectangle would claim, wasting bin area for no time
// gain. A non-nil curve set covering the SOC and width supplies the
// wrapper staircases as lookups; otherwise one wrapper.Curves call
// computes them here (identical values either way — the memoized curve
// is bit-for-bit the fresh one).
func coreShapes(s *soc.SOC, totalWidth int, cs *wrapper.CurveSet) ([]coreShape, [][]soc.Cycles, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if totalWidth < 1 {
		return nil, nil, fmt.Errorf("pack: total TAM width %d < 1", totalWidth)
	}
	if cs == nil || cs.NumCores() != len(s.Cores) || cs.MaxWidth() < totalWidth {
		// No precomputation, or a mismatched one: compute fresh curves.
		var err error
		if cs, err = wrapper.Curves(s, totalWidth); err != nil {
			return nil, nil, fmt.Errorf("pack: %w", err)
		}
	}
	shapes := make([]coreShape, len(s.Cores))
	for i := range s.Cores {
		cv := cs.Core(i)
		widths := cv.ParetoUpTo(totalWidth)
		sh := coreShape{core: i, power: s.Cores[i].Power, widths: widths, minArea: int64(1) << 62}
		sh.times = make([]soc.Cycles, len(widths))
		for k, w := range widths {
			t := cv.Time(w)
			sh.times[k] = t
			if area := int64(w) * int64(t); area < sh.minArea {
				sh.minArea = area
			}
		}
		shapes[i] = sh
	}
	return shapes, cs.Tables(), nil
}

// preferredIndex returns the index of the smallest Pareto width whose
// testing time meets the budget, or the widest point when none does —
// the papers' aspect rule shaping rectangles to the bin diagonal.
func (sh *coreShape) preferredIndex(budget soc.Cycles) int {
	for k, t := range sh.times {
		if t <= budget {
			return k
		}
	}
	return len(sh.widths) - 1
}

// Pack co-optimizes the SOC's wrappers and TAM wiring by rectangle
// packing under a total width W, minimizing the SOC testing time. The
// schedule is always valid; quality comes from the budget sweep. Under
// a peak-power ceiling (Options.MaxPower, falling back to the SOC's
// MaxPower) no placement whose concurrent-power profile would exceed
// the ceiling is ever taken, so the returned schedule always satisfies
// PeakPower <= MaxPower.
func Pack(s *soc.SOC, totalWidth int, opt Options) (*Schedule, error) {
	return PackContext(context.Background(), s, totalWidth, opt)
}

// PackContext is Pack with cancellation: the budget sweep checks ctx
// between placement attempts and returns ctx's error once it is done —
// the hook the portfolio racer (internal/coopt) uses to stop a packing
// backend that can no longer win.
func PackContext(ctx context.Context, s *soc.SOC, totalWidth int, opt Options) (*Schedule, error) {
	return packWith(ctx, s, totalWidth, opt, func(a *packArena, shapes []coreShape, budget soc.Cycles, ceiling int) bool {
		improved := false
		for _, ord := range packOrders {
			if packOnce(a, shapes, budget, ord, ceiling) {
				improved = true
			}
		}
		return improved
	})
}

// packOrders are the placement orders the budgeted best-fit packer
// tries at every budget.
var packOrders = [...]order{byWidth, byTime, byArea}

// attemptFunc packs the budget-shaped rectangles once (or a few times
// in different orders) into the arena, whose keys hold the budget's
// placement keys, folding each schedule into the arena's best; it
// reports whether any attempt improved on it.
type attemptFunc func(a *packArena, shapes []coreShape, budget soc.Cycles, ceiling int) bool

// packWith runs the shared packing pipeline — core shapes, effective
// power ceiling, lower bound, budget sweep with iterative refinement —
// around one placement heuristic. Both the budgeted-best-fit packer
// (Pack) and the diagonal packer (PackDiagonal) are instances of it.
func packWith(ctx context.Context, s *soc.SOC, totalWidth int, opt Options, attempt attemptFunc) (*Schedule, error) {
	shapes, tables, err := coreShapes(s, totalWidth, opt.Curves)
	if err != nil {
		return nil, err
	}
	ceiling := s.PowerCeiling(opt.MaxPower)
	if err := s.CheckPowerCeiling(ceiling); err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	lb := LowerBound(s, tables, totalWidth, ceiling)
	// The arena carries every buffer the placement loops reuse across
	// the whole budget sweep; only the winning schedule leaves it, as a
	// fresh clone.
	a := newPackArena(totalWidth, len(shapes))
	// tried dedupes budgets: attempts are deterministic, so re-packing a
	// budget the sweep or a previous refinement round already shaped can
	// never improve and is pure waste (sub-lower-bound targets all clamp
	// to lb, which would otherwise re-pack up to 5×32 times).
	tried := make(map[soc.Cycles]bool)
	try := func(budget soc.Cycles) bool {
		if budget < lb {
			budget = lb
		}
		if tried[budget] {
			return false
		}
		tried[budget] = true
		a.shapeKeys(shapes, budget)
		return attempt(a, shapes, budget, ceiling)
	}
	// The deadline is polled at the same attempt boundaries as
	// cancellation, and only once a first schedule exists (a.haveBest):
	// the sweep's first attempt always completes, so a deadline run
	// always returns a valid schedule, merely a possibly worse one.
	truncated := false
	for _, mult := range sweepBudgets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a.haveBest && !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) {
			truncated = true
			break
		}
		try(scaleCycles(lb, mult))
	}
	// Budget refinement: re-shape the rectangles against the best
	// achieved makespan — the papers' iterative T adjustment. Each round
	// aims below the incumbent until no target improves on it.
	for iter := 0; iter < 32 && !truncated; iter++ {
		improved := false
		for _, f := range []float64{0.80, 0.86, 0.91, 0.95, 0.98} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if a.haveBest && !opt.Deadline.IsZero() && time.Now().After(opt.Deadline) {
				truncated = true
				break
			}
			if try(scaleCycles(a.best.Makespan, f)) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	best := a.take()
	best.Truncated = truncated
	sort.Slice(best.Rects, func(i, j int) bool {
		if best.Rects[i].Start != best.Rects[j].Start {
			return best.Rects[i].Start < best.Rects[j].Start
		}
		return best.Rects[i].Wire < best.Rects[j].Wire
	})
	best.Bound = lb
	best.MaxPower = ceiling
	return best, nil
}

// scaleCycles returns c scaled by mult, saturating instead of
// overflowing and never landing below c for mult >= 1 — float64 cannot
// represent cycle counts beyond 2^53 exactly, so the naive conversion
// could round a scaled budget underneath the lower bound it came from.
func scaleCycles(c soc.Cycles, mult float64) soc.Cycles {
	f := float64(c) * mult
	if f >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	out := soc.Cycles(f)
	if mult >= 1 && out < c {
		out = c
	}
	return out
}

// order selects the placement order of the budget-shaped rectangles.
type order uint8

const (
	// byWidth places the widest preferred rectangles first (classic
	// decreasing-width strip packing), longer first on ties.
	byWidth order = iota
	// byTime places the longest tests at their preferred width first,
	// wider first on ties.
	byTime
	// byArea places the largest minimal rectangle areas first, longer
	// (at the preferred width) first on ties.
	byArea
	// byDiagonal places the largest preferred-shape diagonals first,
	// wider (shorter) first on ties — the harder rectangle to fit late.
	// It is PackDiagonal's order.
	byDiagonal
)

// placeKey is one core's placement key at one budget: its preferred
// rectangle (the papers' aspect rule, preferredIndex) and the figures
// the placement orders rank by. The keys of a budget are computed once,
// shared by every order tried at it, and sorted in place.
type placeKey struct {
	core  int        // index into the shapes
	width int        // preferred Pareto width
	time  soc.Cycles // testing time at that width
	area  int64      // the core's minimal rectangle area
	diag  float64    // diagonal of the preferred rectangle
}

// shapeKeys fills the arena's keys with every core's placement key at
// budget, in core order.
func (a *packArena) shapeKeys(shapes []coreShape, budget soc.Cycles) {
	for i := range shapes {
		sh := &shapes[i]
		k := sh.preferredIndex(budget)
		w, t := sh.widths[k], sh.times[k]
		a.keys[i] = placeKey{core: i, width: w, time: t, area: sh.minArea, diag: diagonal(w, t)}
	}
}

// sortKeys puts the arena's keys into the placement order ord: the
// order's own ranking, then core order. That is the order the stable
// sort of the core sequence under the ranking gives, whatever order
// the keys were left in by the previous sort, and the total order
// leaves the O(n log n) sort no choice to make.
func (a *packArena) sortKeys(ord order) {
	slices.SortFunc(a.keys, func(x, y placeKey) int {
		var rank int
		switch ord {
		case byWidth:
			rank = cmp.Or(cmp.Compare(y.width, x.width), cmp.Compare(y.time, x.time))
		case byTime:
			rank = cmp.Or(cmp.Compare(y.time, x.time), cmp.Compare(y.width, x.width))
		case byArea:
			rank = cmp.Or(cmp.Compare(y.area, x.area), cmp.Compare(y.time, x.time))
		case byDiagonal:
			rank = cmp.Or(cmp.Compare(y.diag, x.diag), cmp.Compare(y.width, x.width))
		}
		return cmp.Or(rank, cmp.Compare(x.core, y.core))
	})
}

// packOnce shapes every rectangle to one budget and places them greedily
// with a skyline of per-wire free times, by budgeted best fit: every
// Pareto shape at every position is considered, and the narrowest shape
// that still finishes within the budget wins (earliest start, then least
// idle area under the rectangle, then the lower wire, on ties) — a core
// that must start late compensates by going wider, which is the point
// of packing. When no shape meets the budget the earliest finish over
// all shapes is taken.
//
// Each placement first asks bestFitShortcut, which answers from the
// skyline's flat runs whenever the narrowest shape that can meet the
// budget from the skyline's floor has a floor run wide enough: nothing
// starts earlier or wastes less, so that is the scan's pick. Otherwise,
// and always under a ceiling, bestFitScan measures every shape at every
// wire.
//
// Under a power ceiling (> 0) every candidate start is pushed to the
// earliest instant at which the already-placed rectangles leave enough
// power headroom for the whole test, so no position that would breach
// the ceiling is ever considered. With ceiling 0 the placement is
// bit-for-bit the power-oblivious one.
//
// The arena's keys must hold the budget's placement keys (shapeKeys);
// the run sorts them into ord, writes only into the arena (zero
// allocations once warm) and folds its schedule into the arena's best,
// reporting improvement.
func packOnce(a *packArena, shapes []coreShape, budget soc.Cycles, ord order, ceiling int) bool {
	a.beginAttempt(ceiling)
	a.sortKeys(ord)
	for i := range a.keys {
		sh := &shapes[a.keys[i].core]
		r, ok := a.bestFitShortcut(sh, budget)
		if !ok {
			r = a.bestFitScan(sh, budget)
		}
		r.Power = sh.power
		a.commit(r)
	}
	return a.consider()
}

// bestFitShortcut answers packOnce's placement of sh without a scan
// when it can (no ceiling only): the narrowest shape whose test, started
// on the skyline's floor, finishes within the budget, placed on the
// first floor run at least that wide. Narrower shapes cannot finish in
// time anywhere, and no position of this one starts earlier or strands
// less idle area, so the scan would pick exactly this rectangle. It
// declines when no such shape or no such run exists.
func (a *packArena) bestFitShortcut(sh *coreShape, budget soc.Cycles) (Rect, bool) {
	if a.ceiling > 0 {
		return Rect{}, false
	}
	a.flatRuns()
	floor := a.runH[1]
	for c, w := range sh.widths {
		if t := sh.times[c]; floor+t <= budget {
			if w > a.maxRun || a.runH[w] != floor {
				return Rect{}, false
			}
			return Rect{Core: sh.core, Wire: a.runAt[w], Width: w, Start: floor, End: floor + t}, true
		}
	}
	return Rect{}, false
}

// bestFitScan is packOnce's placement scan: it measures every Pareto
// shape of sh at every wire, up to the narrowest shape that meets the
// budget somewhere, and returns the budgeted best fit, or the earliest
// finish when no shape meets the budget.
func (a *packArena) bestFitScan(sh *coreShape, budget soc.Cycles) Rect {
	var fit Rect // narrowest in-budget placement
	fitWaste := int64(-1)
	var fallback Rect // earliest finish over all placements
	fallbackWaste := int64(-1)
	for c := 0; c < len(sh.widths); c++ {
		w, t := sh.widths[c], sh.times[c]
		if fitWaste >= 0 && w > fit.Width {
			break // a narrower shape already meets the budget
		}
		for at := 0; at+w <= a.totalWidth; at++ {
			start, waste, end := a.measure(sh.power, at, w, t)
			if end <= budget {
				if fitWaste < 0 || start < fit.Start ||
					(start == fit.Start && waste < fitWaste) {
					fit = Rect{Core: sh.core, Wire: at, Width: w, Start: start, End: end}
					fitWaste = waste
				}
			}
			if fallbackWaste < 0 || end < fallback.End ||
				(end == fallback.End && waste < fallbackWaste) {
				fallback = Rect{Core: sh.core, Wire: at, Width: w, Start: start, End: end}
				fallbackWaste = waste
			}
		}
	}
	if fitWaste < 0 {
		return fallback
	}
	return fit
}

// Gantt renders the packing as an ASCII wire-band chart — one row per
// TAM wire, time left to right, at most cols characters wide. Each
// rectangle is drawn as a band of '=' across the wires it occupies,
// labelled on the middle wire of its band where space permits; '.'
// marks idle wire time.
func (s *Schedule) Gantt(cols int, nameOf func(core int) string) string {
	if cols < 10 {
		cols = 10
	}
	if s.Makespan == 0 || s.TotalWidth == 0 {
		return "(empty schedule)\n"
	}
	scale := float64(cols) / float64(s.Makespan)
	rows := make([][]byte, s.TotalWidth)
	for i := range rows {
		rows[i] = make([]byte, cols)
		for j := range rows[i] {
			rows[i][j] = '.'
		}
	}
	for i := range s.Rects {
		r := &s.Rects[i]
		from := int(float64(r.Start) * scale)
		to := int(float64(r.End) * scale)
		if to > cols {
			to = cols
		}
		if to == from && from < cols {
			to = from + 1
		}
		for w := r.Wire; w < r.Wire+r.Width; w++ {
			for x := from; x < to && x < cols; x++ {
				rows[w][x] = '='
			}
		}
		label := fmt.Sprintf("%d", r.Core+1)
		if nameOf != nil {
			label = nameOf(r.Core)
		}
		if to-from >= len(label)+2 {
			at := from + (to-from-len(label))/2
			copy(rows[r.Wire+r.Width/2][at:], label)
		}
	}
	var b strings.Builder
	for w, row := range rows {
		fmt.Fprintf(&b, "wire %2d |", w)
		b.Write(row)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%*s makespan: %d cycles\n", 8, "", s.Makespan)
	return b.String()
}
