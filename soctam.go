// Package soctam is a Go library for wrapper/TAM co-optimization of
// core-based systems-on-chip, reproducing the DATE 2002 paper "Efficient
// Wrapper/TAM Co-Optimization for Large SOCs" by Iyengar, Chakrabarty and
// Marinissen.
//
// Given an SOC described by its embedded cores (functional terminals,
// internal scan chains, test pattern counts) and a total TAM width W, the
// library designs a complete test access architecture: the number of test
// buses, the width of each, the assignment of cores to buses, and a test
// wrapper per core — minimizing the SOC testing time in clock cycles.
//
// The top-level entry points are:
//
//   - Solve (and its cancellable form SolveContext): the one way to run
//     a co-optimization — any backend of the backend table (the paper's
//     partition flow, the two rectangle bin-packing heuristics, the
//     exact exhaustive baseline and the exact ILP branch and bound) or
//     the portfolio combinator that runs a subset of them one after
//     another and returns the winner, selected by
//     Options.Strategy (and Options.Portfolio for the race subset),
//     with partition evaluation parallelized across Options.Workers, an
//     optional peak-power ceiling enforced via Options.MaxPower (or the
//     SOC's own MaxPower), live observability via Options.Progress, and
//     anytime solving via Options.Budget (once it runs out the best
//     incumbent so far is returned, tagged Truncated with its
//     optimality gap in Result.Gap, never an error);
//   - CoOptimizeFixedTAMs / Exhaustive: the partition flow (problem
//     P_PAW) and the exact enumerate-and-solve baseline of the earlier
//     JETTA 2002 paper [8] with the TAM count fixed — Solve with the
//     engine's TAM-count sweep narrowed to one B;
//   - Solvers / ParseStrategySpec: the backend table's discovery
//     surface — every selectable backend with its strategy constant and
//     capability flags (power-aware, cancellable, exact, combinator) —
//     and the parser of a -strategy value or "strategy" field;
//   - DesignWrapper / TestTime: per-core wrapper design (P_W);
//   - NewInstance / CoreAssign / SolveAssignment: the core-assignment
//     problem P_AW on fixed TAM widths, heuristically and exactly;
//   - LowerBound: the architecture-independent lower bound that every
//     backend's Result.Gap and Proven are graded against;
//   - ParseSOC / (*SOC).Encode: the .soc text format (and
//     (*SOC).Digest / (*SOC).Canonical, the canonical content hashing
//     behind the wtamd solver service's result cache);
//   - D695, P21241, P31108, P93791: the paper's benchmark SOCs.
//
// See ARCHITECTURE.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results of every table.
package soctam

import (
	"context"
	"io"

	"soctam/internal/assign"
	"soctam/internal/coopt"
	"soctam/internal/pack"
	"soctam/internal/schedule"
	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

// Core data model, re-exported from the internal packages.
type (
	// SOC is a system-on-chip: a named collection of embedded cores.
	SOC = soc.SOC
	// Core describes one embedded core's test resources.
	Core = soc.Core
	// Cycles counts test clock cycles.
	Cycles = soc.Cycles

	// WrapperDesign is a per-core test wrapper configuration.
	WrapperDesign = wrapper.Design
	// WrapperChain is one wrapper scan chain within a design.
	WrapperChain = wrapper.Chain

	// Assignment maps cores to TAMs with the resulting loads.
	Assignment = assign.Assignment
	// Instance is a fixed-widths core-assignment problem (P_AW).
	Instance = assign.Instance

	// Options tunes the co-optimization flows.
	Options = coopt.Options
	// Result is the outcome of a co-optimization run.
	Result = coopt.Result
	// Stats counts partition-evaluation work.
	Stats = coopt.Stats
	// Strategy selects the co-optimization backend for Solve.
	Strategy = coopt.Strategy
	// BackendRun is one racer's outcome inside a portfolio run
	// (Result.Portfolio).
	BackendRun = coopt.BackendRun
	// BackendInfo describes a selectable backend: name, strategy
	// constant and capability flags (power-aware, cancellable, exact,
	// combinator).
	BackendInfo = coopt.BackendInfo
	// ProgressEvent is one solver progress notification delivered to
	// Options.Progress.
	ProgressEvent = coopt.ProgressEvent
	// ProgressFunc receives progress events (Options.Progress).
	ProgressFunc = coopt.ProgressFunc
	// ProgressKind classifies a ProgressEvent.
	ProgressKind = coopt.ProgressKind
	// SolveTrace renders one solve's backend lifecycle as a span tree:
	// hook into Options.Progress, Finish with the outcome, WriteTree
	// (what `wtam -trace` prints).
	SolveTrace = coopt.SolveTrace

	// PackingSchedule is a rectangle bin-packing of an SOC's tests.
	PackingSchedule = pack.Schedule
	// PackingRect is one core's test placed in the W×T bin.
	PackingRect = pack.Rect

	// Timeline is the test schedule implied by an architecture.
	Timeline = schedule.Timeline
	// TestSlot is one core's test on its TAM within a Timeline.
	TestSlot = schedule.Slot
	// Utilization is the wire-cycle accounting of a Timeline.
	Utilization = schedule.Utilization
	// PowerStep is one piece of a Timeline's piecewise-constant
	// concurrent-power profile.
	PowerStep = schedule.PowerStep
)

// Backend choices for Options.Strategy.
const (
	// StrategyPartition is the paper's partition flow (default).
	StrategyPartition = coopt.StrategyPartition
	// StrategyPacking is rectangle bin-packing co-optimization.
	StrategyPacking = coopt.StrategyPacking
	// StrategyDiagonal is rectangle bin-packing with the diagonal-length
	// heuristic of arXiv:1008.4446.
	StrategyDiagonal = coopt.StrategyDiagonal
	// StrategyPortfolio races a subset of the backend table's engines
	// (Options.Portfolio; by default every non-exact engine), one after
	// another in rank order, and returns the winner, with per-backend
	// attribution in Result.Portfolio.
	StrategyPortfolio = coopt.StrategyPortfolio
	// StrategyExhaustive is the exact enumerate-and-solve baseline of
	// [8] behind Solve: proven optimal, exponential cost, raceable only
	// when a portfolio spec names it.
	StrategyExhaustive = coopt.StrategyExhaustive
	// StrategyILP is the exact branch-and-bound engine: the exhaustive
	// baseline's partition space searched with LP-relaxation and
	// lower-bound pruning (internal/lp, internal/ilp) — the same proven
	// optimum at a fraction of the cost. Raceable only when a portfolio
	// spec names it.
	StrategyILP = coopt.StrategyILP
)

// Progress event kinds for ProgressEvent.Kind.
const (
	// ProgressBackendStart fires when a backend begins solving.
	ProgressBackendStart = coopt.ProgressBackendStart
	// ProgressBackendDone fires when a backend completes.
	ProgressBackendDone = coopt.ProgressBackendDone
	// ProgressBackendCancelled fires when a racer is skipped because it
	// provably could no longer win (or the caller's context fired).
	ProgressBackendCancelled = coopt.ProgressBackendCancelled
	// ProgressImproved fires when a backend's running best improves.
	ProgressImproved = coopt.ProgressImproved
)

// ParseStrategySpec parses a strategy spec: a bare strategy name (any
// Solvers name, whitespace-trimmed and case-insensitive), or a
// portfolio subset "portfolio:name,name,..." racing exactly the named
// backends. It returns the strategy and, for a subset spec, the
// canonical Options.Portfolio value (names folded and re-ordered into
// rank order — the portfolio's tie-break order, which the spec's own
// order never changes). The error of an unknown name lists every valid
// choice.
func ParseStrategySpec(spec string) (Strategy, string, error) { return coopt.ParseSpec(spec) }

// Solvers returns the BackendInfo of every selectable backend — the
// engines in rank order, then the portfolio combinator — with their
// strategy constants and capability flags. It is the discovery
// surface behind the wtamd GET /v1/solvers endpoint and the README
// strategy table.
func Solvers() []BackendInfo { return coopt.Solvers() }

// ParseSOC reads an SOC in the .soc text format.
func ParseSOC(r io.Reader) (*SOC, error) { return soc.Parse(r) }

// ParseSOCString reads an SOC in the .soc text format from a string.
func ParseSOCString(text string) (*SOC, error) { return soc.ParseString(text) }

// DesignWrapper designs a test wrapper for core c on a TAM of the given
// width (problem P_W), minimizing core testing time first and consumed
// TAM width second.
func DesignWrapper(c *Core, width int) (*WrapperDesign, error) {
	return wrapper.DesignWrapper(c, width)
}

// TestTime returns the testing time of core c on a TAM of the given
// width, as computed by Design_wrapper.
func TestTime(c *Core, width int) (Cycles, error) { return wrapper.Time(c, width) }

// TimeTable returns the testing time staircase T(w) for w = 1..maxWidth
// (indexed as table[w-1]).
func TimeTable(c *Core, maxWidth int) ([]Cycles, error) { return wrapper.TimeTable(c, maxWidth) }

// ParetoWidths returns the TAM widths at which core c's testing time
// strictly improves — the only widths worth offering the core.
func ParetoWidths(c *Core, maxWidth int) ([]int, error) { return wrapper.ParetoWidths(c, maxWidth) }

// NewInstance builds the P_AW assignment instance for an SOC on TAMs of
// the given widths.
func NewInstance(s *SOC, widths []int) (*Instance, error) { return assign.NewInstance(s, widths) }

// CoreAssign runs the paper's Figure 1 heuristic on a P_AW instance.
// bestKnown is an optional early-abort bound (0 = none); ok is false if
// the run aborted against it.
func CoreAssign(in *Instance, bestKnown Cycles) (a Assignment, ok bool) {
	return assign.CoreAssign(in, bestKnown)
}

// SolveAssignment solves a P_AW instance exactly by branch and bound.
func SolveAssignment(in *Instance, nodeLimit int64) (Assignment, bool, error) {
	return assign.SolveExact(in, assign.ExactOptions{NodeLimit: nodeLimit})
}

// Solve designs a complete test access architecture for the SOC under a
// total TAM width budget with the backend selected by Options.Strategy:
// the paper's partition flow for problem P_NPAW (the default: TAM
// count, width partition, core assignment and per-core wrappers, the
// Partition_evaluate heuristic followed by the exact final step), one
// of the two rectangle bin-packing heuristics of arXiv:1008.3320 and
// arXiv:1008.4446 (whose schedule is returned in Result.Packing), one
// of the two exact engines, or the portfolio racer that runs a subset
// one after another on the caller's goroutine and returns the winner —
// never worse than the best single backend, with ties broken in fixed
// strategy order and per-backend attribution in Result.Portfolio. A
// race costs the sum of the racers it runs; once one attains the lower
// bound, the later ones are skipped. Partition evaluation runs on
// Options.Workers goroutines (0 = all CPUs; 1 reproduces the paper's
// sequential evaluation order exactly), the partition racer's included.
// Results are bit-for-bit identical at any worker count.
func Solve(s *SOC, totalWidth int, opt Options) (Result, error) {
	return coopt.Solve(s, totalWidth, opt)
}

// SolveContext is Solve with cancellation: every backend polls ctx and
// returns its error once it fires. Cancellation never alters the result
// of a run that completes; the wtamd solver service uses it to abandon
// in-flight solves on shutdown. Distinct from cancellation, a budget
// (Options.Budget) makes the solve anytime: once it runs out the
// backend returns its best incumbent so far — a valid architecture
// tagged Result.Truncated with its optimality gap in Result.Gap —
// instead of an error; the exact steps stop at it too. Runs without a
// budget check no deadline and are bit-for-bit identical to runs before
// budgets existed; see ARCHITECTURE.md §13.
func SolveContext(ctx context.Context, s *SOC, totalWidth int, opt Options) (Result, error) {
	return coopt.SolveContext(ctx, s, totalWidth, opt)
}

// NewSolveTrace starts a span trace for one solve: chain its Hook into
// Options.Progress, run the solve, Finish with the outcome, then
// WriteTree to render per-backend spans with incumbent events — the
// tree `wtam -trace` prints. The name labels the tree header.
func NewSolveTrace(name string) *SolveTrace { return coopt.NewSolveTrace(name) }

// CoOptimizeFixedTAMs co-optimizes with the TAM count fixed (problem
// P_PAW): Solve's partition flow with its TAM-count sweep narrowed to
// numTAMs, progress framing included. Options.Strategy and MaxTAMs are
// ignored.
func CoOptimizeFixedTAMs(s *SOC, totalWidth, numTAMs int, opt Options) (Result, error) {
	return coopt.PartitionEvaluate(s, totalWidth, numTAMs, opt)
}

// Exhaustive runs the exact enumerate-and-solve baseline of [8] for a
// fixed TAM count: Solve's exhaustive engine (StrategyExhaustive) with
// its TAM-count sweep narrowed to numTAMs, progress framing included.
// Options.Strategy and MaxTAMs are ignored.
func Exhaustive(s *SOC, totalWidth, numTAMs int, opt Options) (Result, error) {
	return coopt.Exhaustive(s, totalWidth, numTAMs, opt)
}

// BuildSchedule derives the test schedule of an SOC on a concrete
// architecture: partition holds the TAM widths and tamOf the 0-based TAM
// of every core (e.g. Result.Partition and Result.Assignment.TAMOf).
func BuildSchedule(s *SOC, partition []int, tamOf []int) (*Timeline, error) {
	return schedule.Build(s, partition, tamOf)
}

// LowerBound returns an architecture-independent lower bound on the SOC
// testing time under a total TAM width: no TAM count, partition,
// assignment or wrapper design can beat it.
func LowerBound(s *SOC, totalWidth int) (Cycles, error) {
	return coopt.LowerBound(s, totalWidth)
}

// BenchmarkSOC constructs a built-in benchmark SOC by name ("d695",
// "p21241", "p31108", "p93791"); the error of an unknown name lists
// every valid choice.
func BenchmarkSOC(name string) (*SOC, error) { return socdata.ByName(name) }

// BenchmarkNames returns the names BenchmarkSOC accepts, in the
// paper's order.
func BenchmarkNames() []string { return socdata.Names() }

// D695 returns the academic benchmark SOC d695.
func D695() *SOC { return socdata.D695() }

// P21241 returns the synthesized industrial SOC p21241 (see ARCHITECTURE.md §4
// for the substitution rationale).
func P21241() *SOC { return socdata.P21241() }

// P31108 returns the synthesized industrial SOC p31108.
func P31108() *SOC { return socdata.P31108() }

// P93791 returns the synthesized industrial SOC p93791.
func P93791() *SOC { return socdata.P93791() }
