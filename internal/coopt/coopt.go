package coopt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"soctam/internal/assign"
	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Strategy selects the co-optimization backend used by Solve. Each
// value (portfolio aside) names a row of the backend table in
// backend.go, the authority for names, capability flags and the
// portfolio tie-break order.
type Strategy uint8

// Backends.
const (
	// StrategyPartition is the paper's flow: TAM width partitioning with
	// Partition_evaluate plus the exact final step (the default).
	StrategyPartition Strategy = iota
	// StrategyPacking is the rectangle bin-packing co-optimization of the
	// follow-up TAM literature: cores become width×time rectangles placed
	// into the W×T bin (package pack), so cores need not share fixed
	// test buses at all.
	StrategyPacking
	// StrategyDiagonal is rectangle bin-packing with the diagonal-length
	// heuristic of arXiv:1008.4446: best-fit-decreasing placement ordered
	// and tie-broken by the rectangle diagonal sqrt(w²+t²) (pack.PackDiagonal).
	StrategyDiagonal
	// StrategyPortfolio races a subset of the backend table's engines on
	// concurrent goroutines against a shared incumbent bound and returns
	// the winner — the best answer of any racing backend in roughly the
	// wall-clock of the slowest still-relevant one, with per-backend
	// attribution in Result.Portfolio. Options.Portfolio picks the
	// subset; empty races every non-exact engine.
	StrategyPortfolio
	// StrategyExhaustive is the exact enumerate-and-solve baseline of
	// the earlier JETTA 2002 paper [8]: every unique width partition for
	// B = 1..MaxTAMs solved exactly.
	// Proven optimal, exponential cost — selectable and raceable, but
	// never part of the bare portfolio race.
	StrategyExhaustive
	// StrategyILP is the exact branch-and-bound engine over the same
	// partition space as StrategyExhaustive, but pruning: partitions
	// whose combinatorial or LP-relaxation lower bound cannot beat the
	// incumbent are discarded without an exact solve, and the exact
	// solves themselves run against the incumbent as a cutoff. Returns
	// the same proven-optimal testing time as the [8] baseline at a
	// fraction of its cost; like it, raceable but never part of the
	// bare portfolio race.
	StrategyILP
)

// String names the strategy by its backend name.
func (s Strategy) String() string {
	if s == StrategyPortfolio {
		return portfolioName
	}
	if e, ok := engineOf(s); ok {
		return e.info.Name
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Enumeration selects how width partitions are generated.
type Enumeration uint8

// Enumeration strategies.
const (
	// EnumCanonical enumerates each unique partition exactly once (the
	// library default). The paper's Figure 3 odometer cannot suppress
	// all duplicate partitions and re-enumerates heavily for large B
	// (at W=64, B=10 it emits ~2000 sequences per unique partition), so
	// canonical enumeration is strictly better for production use.
	EnumCanonical Enumeration = iota
	// EnumOdometer is the paper-faithful Figure 3 Increment procedure
	// with its Line-1 upper-bound restriction — used to reproduce the
	// Table 1 pruning statistics exactly as published.
	EnumOdometer
)

// String names the enumeration strategy.
func (e Enumeration) String() string {
	switch e {
	case EnumCanonical:
		return "canonical"
	case EnumOdometer:
		return "odometer"
	}
	return fmt.Sprintf("Enumeration(%d)", uint8(e))
}

// Options tunes the co-optimization runs.
type Options struct {
	// MaxTAMs bounds the TAM count explored by the P_NPAW flows; <= 0
	// means 10 (the paper evaluates up to ten TAMs).
	MaxTAMs int
	// NodeLimit caps each exact P_AW solve (assign.SolveExact: the
	// partition flow's final step and every partition of the exact
	// engines); <= 0 uses the package defaults.
	NodeLimit int64
	// SkipFinal skips the exact final optimization step (ablation).
	SkipFinal bool
	// Enumeration picks the partition generator (see the constants).
	Enumeration Enumeration
	// Workers is the number of goroutines the partition engine scores
	// partitions on: worker w of n enumerates every partition itself and
	// scores those whose enumeration sequence number is w mod n. 0 uses
	// runtime.GOMAXPROCS(0); 1 (or negative) is one worker, which
	// evaluates partitions in exactly the paper's order. The chosen
	// partition and testing time are identical at any worker count; only
	// the Completed/Aborted/Improved split of Stats depends on evaluation
	// order and is therefore reproducible only with Workers = 1. The
	// exact engines always run one worker.
	Workers int
	// Strategy picks the Solve backend (an engine of the backend table
	// or the portfolio combinator). The fixed-TAM-count entry points
	// (PartitionEvaluate, Exhaustive) set it themselves.
	Strategy Strategy
	// Portfolio is the portfolio race's backend subset as a
	// comma-separated list of engine names (the spec tail of
	// "portfolio:partition,diagonal"). Empty races every non-exact
	// engine. Only StrategyPortfolio reads it; ties between racers
	// always resolve by the engines' rank (their row order in the
	// backend table), whatever order the subset lists them in.
	Portfolio string
	// Progress, when non-nil, receives solver progress events (backend
	// start/finish/cancellation, incumbent improvements) while a Solve
	// runs. Events are delivered synchronously on the solver's own
	// goroutines but serialized — the hook never runs concurrently with
	// itself — and must return promptly. Purely observational: results
	// are bit-for-bit identical with or without a hook, and Normalized
	// clears it. See ARCHITECTURE.md §11 for the ordering guarantees.
	Progress ProgressFunc
	// MaxPower is the SOC-level peak-power ceiling: the summed test
	// power of concurrently running tests may never exceed it. <= 0
	// falls back to the SOC's own MaxPower; 0 there too leaves the run
	// unconstrained (and reproduces power-oblivious results exactly).
	// The partition flow rejects architectures whose serial-per-TAM
	// schedule would breach the ceiling; the packing backend never
	// places a rectangle into a breaching position.
	MaxPower int
	// Budget, when > 0, makes the run anytime: once a backend holds a
	// first incumbent it stops at the next poll after Budget has passed
	// since the solve started and returns that incumbent — a valid
	// schedule tagged with Result.Truncated and its optimality gap
	// (Result.Gap) — instead of an error. Before a first incumbent
	// exists the budget never runs out, so a feasible run always
	// returns an answer. This is deliberately not a context deadline:
	// cancelling SolveContext's ctx abandons the run and returns ctx's
	// error, while Budget keeps the best answer found. A zero Budget
	// never reads the clock, so runs without one stay bit-for-bit
	// identical. Normalized clears it — a budget bounds how long the
	// work may take, never what the completed work computes.
	Budget time.Duration

	// curves carries the SOC's memoized wrapper curves from the portfolio
	// combinator into the backends it races, so one Design_wrapper sweep
	// serves the whole race. Purely a performance seam: backends receiving
	// nil recompute identical curves themselves, so results never depend
	// on it and Normalized clears it.
	curves *wrapper.CurveSet
	// tams, when > 0, narrows an enumerating engine's TAM-count sweep to
	// exactly this B (problem P_PAW) — set only by the fixed-TAM-count
	// entry points, so one B loop per engine serves both problems.
	tams int
	// deadline is the instant Budget runs out, zero for none: the one
	// deadline the engines read, fixed by resolveDeadline.
	deadline time.Time
}

// resolveDeadline fixes the run's deadline at now + Budget. SolveContext
// resolves once on the way in, so every engine and portfolio racer
// below reads one instant. The clock is read only when a budget is set.
func (o Options) resolveDeadline() Options {
	if o.Budget > 0 {
		o.deadline = time.Now().Add(o.Budget)
	}
	return o
}

func (o Options) maxTAMs() int {
	if o.MaxTAMs <= 0 {
		return 10
	}
	return o.MaxTAMs
}

// tamRange is the TAM counts an enumerating engine sweeps: exactly the
// fixed count of a P_PAW entry point, else 1..MaxTAMs capped at the
// width (a B above W has no partition).
func (o Options) tamRange(width int) (lo, hi int) {
	if o.tams > 0 {
		return o.tams, o.tams
	}
	return 1, min(o.maxTAMs(), width)
}

// exact is the budget of every exact P_AW solve the run makes.
func (o Options) exact() assign.ExactOptions {
	return assign.ExactOptions{NodeLimit: o.NodeLimit}
}

// tables returns the run's testing-time tables: the curves a portfolio
// race shares with its racers when present, else a fresh TimeTables
// sweep (which validates the SOC and width).
func (o Options) tables(s *soc.SOC, width int) ([][]soc.Cycles, error) {
	if o.curves != nil {
		return o.curves.Tables(), nil
	}
	return TimeTables(s, width)
}

// Normalized returns the options with every defaulted field resolved
// to its effective value and the result-neutral knobs cleared — the
// canonical form a result cache should key on. Two Options with equal
// Normalized values produce identical architectures and testing times
// for the same SOC and width: Workers is zeroed and Progress nil'd
// because results are bit-for-bit identical at any worker count and
// with any observer (only the order-dependent Stats split can differ,
// and solely when more than one worker runs), negative "use the
// default" sentinels collapse onto their defaults, and the Portfolio
// subset collapses onto its canonical spelling — names folded, ordered
// by rank, the default race spelled out, and the field
// cleared entirely for non-portfolio strategies. Budget is cleared
// too: a budget bounds how long a run may take, never what a completed
// run computes, so cache keys must stay budget-independent — a result
// produced under any budget answers the same question. (The serving
// layer separately refuses to cache Truncated results, so a
// budget-bounded incumbent can never poison the shared entry.) The
// serving layer (internal/serve) keys its cache on this form so
// requests differing only in parallelism, observation, budget or
// subset spelling share one entry, while requests differing in
// strategy or subset never do.
func (o Options) Normalized() Options {
	o.MaxTAMs = o.maxTAMs()
	o.Workers = 0
	o.Progress = nil
	o.Budget = 0
	if o.NodeLimit < 0 {
		o.NodeLimit = 0
	}
	if o.MaxPower < 0 {
		o.MaxPower = 0
	}
	o.curves = nil
	if o.Strategy != StrategyPortfolio {
		// Only the portfolio reads the subset; anything else carrying one
		// must not split cache entries.
		o.Portfolio = ""
	} else if ranks, err := raceRanks(o.Portfolio); err == nil {
		// Canonical spelling, with the default race spelled out so
		// "portfolio" and an explicit list of the same engines share one
		// cache entry. An unparsable subset is left as typed — Solve will
		// reject it, and a cache can only ever key an error entry on it.
		o.Portfolio = subsetNames(ranks)
	}
	return o
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// ParallelEvaluation reports whether partition evaluation will run on
// the worker pool (more than one resolved worker) rather than in the
// paper's sequential order — the order-dependent Stats split is only
// reproducible when this is false.
func (o Options) ParallelEvaluation() bool { return o.workers() > 1 }

// Stats counts partition-evaluation work, the quantities behind the
// paper's Table 1.
type Stats struct {
	// Enumerated counts partitions generated by the enumeration: each
	// unique partition once under the default canonical enumeration,
	// the odometer's duplicates included under EnumOdometer.
	Enumerated int
	// Completed counts partitions whose Core_assign evaluation ran to
	// completion — the paper's p_eval.
	Completed int
	// Aborted counts evaluations cut short by the lines 18–20 bound,
	// including the partitions the partition engine's lookahead
	// (assign.Orders.Aborts) proves Core_assign would abort and so
	// never scores; for the ILP engine, the partitions it prunes.
	Aborted int
	// Improved counts how often the running best testing time improved.
	Improved int
	// PowerInfeasible counts completed evaluations whose testing time
	// would have improved the running best but whose schedule breached
	// the peak-power ceiling.
	PowerInfeasible int
}

func (s *Stats) add(t Stats) {
	s.Enumerated += t.Enumerated
	s.Completed += t.Completed
	s.Aborted += t.Aborted
	s.Improved += t.Improved
	s.PowerInfeasible += t.PowerInfeasible
}

// Result is the outcome of a co-optimization or baseline run.
type Result struct {
	// TotalWidth is W, the number of TAM wires on the SOC.
	TotalWidth int
	// Strategy is the backend that produced the result.
	Strategy Strategy
	// Packing is the rectangle schedule when Strategy is StrategyPacking;
	// nil for the partition flow. Partition/Assignment are empty then —
	// a packed architecture has no fixed test buses to describe.
	Packing *pack.Schedule
	// Partition is the winning TAM width partition (non-decreasing).
	Partition []int
	// NumTAMs is len(Partition), the paper's B.
	NumTAMs int
	// HeuristicTime is the SOC testing time of the winning partition
	// before the final exact step (Partition_evaluate's output).
	HeuristicTime soc.Cycles
	// Assignment is the final core assignment on the winning partition.
	Assignment assign.Assignment
	// Time is the final SOC testing time (after exact optimization
	// unless SkipFinal).
	Time soc.Cycles
	// AssignmentOptimal reports whether the final assignment is the
	// proven optimum for the winning partition.
	AssignmentOptimal bool
	// MaxPower is the effective peak-power ceiling the run enforced
	// (Options.MaxPower or the SOC's own; 0 = unconstrained).
	MaxPower int
	// PeakPower is the peak concurrent test power of the returned
	// architecture's schedule (0 when the SOC has no power data).
	PeakPower int
	// Gap is the relative optimality gap of Time against the
	// architecture-independent lower bound for this SOC, width and
	// effective power ceiling (pack.LowerBound): (Time - bound) / bound,
	// 0 when Time attains the bound. Every result carries it, truncated
	// or not — the bound is deterministic, so no-deadline results are
	// unchanged by the annotation.
	Gap float64
	// Truncated reports that the run's Options.Budget ran out
	// mid-search: this result is the best incumbent held at that point,
	// not the run's natural end. Always false when no budget was set.
	Truncated bool
	// Proven reports that Time is the proven-optimal SOC testing time
	// for this width: it attains the architecture-independent lower
	// bound (Gap == 0), or an exact engine's scan ran to completion with
	// every exact solve proven and, under a power ceiling, no partition
	// dropped for power (Stats.PowerInfeasible == 0) — a dropped
	// partition may hold a slower assignment that meets the ceiling and
	// beats Time. The serving layer's escalation worker upgrades cached
	// non-proven entries toward Proven ones.
	Proven bool
	// Stats aggregates partition-evaluation counters.
	Stats Stats
	// Portfolio holds per-backend attribution when the result came from
	// StrategyPortfolio (nil otherwise): one entry per racing backend in
	// strategy order, exactly one marked Winner — that backend's
	// architecture is what the rest of this Result describes, and
	// Strategy above names it.
	Portfolio []BackendRun
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// TimeTables computes T_i(w) for every core at w = 1..maxWidth; position
// [i][w-1] is core i's testing time on a width-w TAM. The tables are the
// shared input of every co-optimization flow, computed once per SOC.
// The rows alias a memoized wrapper.CurveSet and must be treated as
// read-only.
func TimeTables(s *soc.SOC, maxWidth int) ([][]soc.Cycles, error) {
	cs, err := curvesFor(s, maxWidth)
	if err != nil {
		return nil, err
	}
	return cs.Tables(), nil
}

// curvesFor memoizes the whole SOC's wrapper curves — one shared
// Design_wrapper sweep whose tables every backend of a Solve run reads,
// instead of each backend re-deriving them. The validation order (SOC,
// then width) matches the historical TimeTables exactly.
func curvesFor(s *soc.SOC, maxWidth int) (*wrapper.CurveSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if maxWidth < 1 {
		return nil, fmt.Errorf("coopt: total TAM width %d < 1", maxWidth)
	}
	cs, err := wrapper.Curves(s, maxWidth)
	if err != nil {
		// Unreachable after the checks above (Curves validates the same
		// two things), kept so a future wrapper error cannot vanish.
		return nil, fmt.Errorf("coopt: %w", err)
	}
	return cs, nil
}

// scoreOne is the partition engine's per-partition kernel: it runs
// Core_assign on the partition straight from the solve's orders under
// bound (0 = none) and books the evaluation into stats. completed is
// false when the lines 18–20 abort fired. The returned assignment
// aliases asg and is valid only until the next call with the same asg
// — the assignment is consumed (time read, TAMOf checked for power
// feasibility) before the next partition is scored.
func scoreOne(orders *assign.Orders, asg *assign.Scratch, parts []int, bound soc.Cycles, stats *Stats) (a assign.Assignment, completed bool) {
	stats.Enumerated++
	a, completed = orders.CoreAssign(asg, parts, bound)
	if !completed {
		stats.Aborted++
		return a, false
	}
	stats.Completed++
	return a, true
}

// finishResult replays the heuristic on the partition engine's winning
// partition (for the assignment witness) and runs the exact final step,
// assembling Result. A truncated run skips the exact final step — the
// deadline has already passed, and the step can add unbounded
// branch-and-bound time — and reports the heuristic incumbent as is.
func (sc *scan) finishResult(opt Options, width int, started time.Time) (Result, error) {
	tables, pc, bestPart := sc.tables, sc.pc, sc.bestPart
	best, _ := sc.incumbent()
	truncated := sc.truncated.Load()
	stats := sc.stats()
	stats.Improved = sc.improved
	if bestPart == nil {
		return Result{}, fmt.Errorf("coopt: no feasible partition found for width %d", width)
	}
	inst, err := assign.FromTimeTable(tables, bestPart)
	if err != nil {
		return Result{}, err
	}
	heur, ok := assign.CoreAssign(inst, 0)
	if !ok || heur.Time != best {
		return Result{}, fmt.Errorf("coopt: heuristic replay mismatch on %v: got %d, recorded %d", bestPart, heur.Time, best)
	}
	res := Result{
		TotalWidth:    width,
		Partition:     bestPart,
		NumTAMs:       len(bestPart),
		HeuristicTime: best,
		Assignment:    heur,
		Time:          heur.Time,
		Stats:         stats,
		MaxPower:      pc.maxPower(),
		Truncated:     truncated,
	}
	if !opt.SkipFinal && !truncated {
		final, optimal, err := assign.SolveExact(inst, opt.exact())
		if err != nil {
			return Result{}, err
		}
		// The exact step can only improve on the heuristic; keep the
		// better of the two (they are equal when the heuristic was
		// already optimal) — unless its reshuffled schedule would breach
		// the power ceiling the heuristic assignment respects.
		if final.Time <= heur.Time && pc.feasible(tables, bestPart, final.TAMOf, nil) {
			res.Assignment = final
			res.Time = final.Time
			res.AssignmentOptimal = optimal
		}
	}
	res.PeakPower = pc.peak(tables, bestPart, res.Assignment.TAMOf, nil)
	res.grade(sc.lb, false)
	res.Elapsed = time.Since(started)
	return res, nil
}

// Solve is the unified co-optimization entry point: it dispatches on
// Options.Strategy to the matching row of the backend table — the paper's
// partition flow, the two rectangle bin-packing engines (package pack),
// the exact engines (the exhaustive baseline of [8] and the ILP branch
// and bound) — or to the portfolio combinator that races a subset of
// them (Options.Portfolio) concurrently.
func Solve(s *soc.SOC, width int, opt Options) (Result, error) {
	return SolveContext(context.Background(), s, width, opt)
}

// SolveContext is Solve with cancellation: every backend polls ctx (the
// partition flow once per 1024 of each worker's own partitions, the
// packers at each placement budget, the exact engines at every
// partition, the portfolio through each racer's derived context) and
// returns ctx's error once it fires. Cancellation never alters the result of a run
// that completes — it is the seam the serving layer (internal/serve)
// uses to abandon in-flight solves on shutdown, and what the portfolio
// combinator builds its consequence-free backend cancellation on.
//
// Options.Budget is the anytime counterpart: instead of abandoning the
// run, a budget makes every backend return its best incumbent, tagged
// Truncated with its optimality gap, once it runs out — never an
// error, provided a first incumbent exists. See ARCHITECTURE.md §13.
//
// Every run is framed on the progress stream: a single engine emits
// start, its own improvement events, then exactly one done or
// cancelled; a portfolio race frames each racer the same way.
func SolveContext(ctx context.Context, s *soc.SOC, width int, opt Options) (Result, error) {
	opt = opt.resolveDeadline()
	sink := newProgressSink(opt.Progress)
	if opt.Strategy == StrategyPortfolio {
		return solvePortfolio(ctx, s, width, opt, sink)
	}
	e, ok := engineOf(opt.Strategy)
	if !ok {
		return Result{}, fmt.Errorf("coopt: no registered backend for strategy %v", opt.Strategy)
	}
	return runEngine(ctx, e, s, width, opt, sink)
}

// runEngine runs one engine framed on the progress stream: start, the
// engine's own events, then exactly one done or cancelled. A context
// error of either kind reads as a cancellation.
func runEngine(ctx context.Context, e *engine, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	sink.start(e.info.Name)
	res, err := e.solve(ctx, s, width, opt, sink)
	switch {
	case err == nil:
		sink.done(e.info.Name, res.Time, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		sink.cancelled(e.info.Name)
	default:
		sink.done(e.info.Name, 0, err)
	}
	return res, err
}

// PartitionEvaluate solves P_PAW heuristically for a fixed TAM count:
// the partition engine's Figure 3 sweep narrowed to one B, plus the
// exact final step (unless disabled), run through Solve so it carries
// the same progress framing. The returned Stats are the basis of the
// paper's Table 1.
func PartitionEvaluate(s *soc.SOC, width, numTAMs int, opt Options) (Result, error) {
	return solveFixedTAMs(StrategyPartition, s, width, numTAMs, opt)
}

// Exhaustive reproduces the baseline of [8] for a fixed TAM count: the
// exhaustive engine narrowed to one B, run through Solve. Every unique
// width partition is solved exactly, with no bound shared between
// partitions (the paper notes the ILP "cannot be halted prematurely",
// so the baseline must not prune across partitions). The best partition
// and its proven-optimal assignment are returned.
func Exhaustive(s *soc.SOC, width, numTAMs int, opt Options) (Result, error) {
	return solveFixedTAMs(StrategyExhaustive, s, width, numTAMs, opt)
}

// solveFixedTAMs runs an enumerating engine through Solve with its
// TAM-count sweep narrowed to numTAMs.
func solveFixedTAMs(strategy Strategy, s *soc.SOC, width, numTAMs int, opt Options) (Result, error) {
	if numTAMs < 1 {
		return Result{}, fmt.Errorf("coopt: cannot split width %d into %d TAMs", width, numTAMs)
	}
	opt.Strategy = strategy
	opt.tams = numTAMs
	return Solve(s, width, opt)
}

// solvePartition is the partition engine (StrategyPartition): the
// Figure 3 sweep over the run's TAM counts (tamRange: B = 1..MaxTAMs
// for P_NPAW) on Options.Workers strided copies of the scan, with the
// best-known bound carried across them, followed by the exact final
// optimization step on the winning partition.
func solvePartition(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	started := time.Now()
	sc, err := newScan(ctx, s, width, opt, sink,
		scanPlan{backend: partitionBackendName, enum: opt.Enumeration, workers: opt.workers(), poll: heuristicPoll})
	if err != nil {
		return Result{}, err
	}
	orders := assign.NewOrders(sc.tables, sc.maxParts)
	score := func(w *worker, parts []int, seq int64) error {
		bound := sc.bound(seq)
		if orders.Aborts(&w.asg, parts, bound) {
			// Core_assign would abort: book it so, without the call.
			w.stats.Enumerated++
			w.stats.Aborted++
			return nil
		}
		if a, completed := scoreOne(orders, &w.asg, parts, bound, &w.stats); completed {
			sc.offer(w, a.Time, parts, a.TAMOf, seq)
		}
		return nil
	}
	lo, hi := opt.tamRange(width)
	if err := sc.sweep(width, lo, hi, score); err != nil {
		return Result{}, err
	}
	return sc.finishResult(opt, width, started)
}

// solveExhaustive is the exhaustive engine (StrategyExhaustive): the [8]
// baseline over the run's TAM counts (tamRange), every unique partition
// solved exactly on one worker of the scan.
func solveExhaustive(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	started := time.Now()
	sc, err := newScan(ctx, s, width, opt, sink,
		scanPlan{backend: exhaustiveBackendName, enum: EnumCanonical, workers: 1, poll: exactPoll})
	if err != nil {
		return Result{}, err
	}
	var bestAssign assign.Assignment
	allOptimal := true
	score := func(w *worker, parts []int, seq int64) error {
		w.stats.Enumerated++
		w.stats.Completed++
		inst, err := assign.FromTimeTable(sc.tables, parts)
		if err != nil {
			return err
		}
		a, optimal, err := assign.SolveExact(inst, opt.exact())
		if err != nil {
			return err
		}
		allOptimal = allOptimal && optimal
		// Under a power ceiling the baseline accepts a partition only if
		// the exact minimum-time assignment also keeps its serial-per-TAM
		// schedule under the ceiling ([8] predates power-constrained
		// scheduling; a slower but feasible assignment of a rejected
		// partition is not searched for).
		if sc.offer(w, a.Time, parts, a.TAMOf, seq) {
			bestAssign = a
		}
		return nil
	}
	lo, hi := opt.tamRange(width)
	if err := sc.sweep(width, lo, hi, score); err != nil {
		return Result{}, err
	}
	if sc.bestPart == nil {
		return Result{}, fmt.Errorf("coopt: exhaustive search found no feasible partition for width %d", width)
	}
	return sc.exactResult(StrategyExhaustive, width, bestAssign, allOptimal, started), nil
}
