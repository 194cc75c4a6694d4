package coopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/pack"
	"soctam/internal/soc"
)

// This file implements StrategyPortfolio as a combinator over the
// backend table: Solve races an arbitrary subset of its engines
// (Options.Portfolio; the default is every non-exact engine) on
// concurrent goroutines and returns the winner. The backends share the
// best completed testing time through an atomic incumbent bound; a
// backend whose lower bound proves it can neither beat nor tie-win the
// incumbent is cancelled via its context. Tie-break ranks are the
// table's row order, never the subset's spelling, so racing any subset
// reproduces the standalone results of its members bit for bit. See
// ARCHITECTURE.md §9 for the determinism argument and §11 for the
// table.
//
// Sharing is deliberately limited to provably consequence-free
// cancellation. Feeding the cross-backend incumbent into a backend's
// *internal* pruning (e.g. the partition flow's lines 18–20 abort)
// would make that backend's answer depend on when the other backends
// happened to finish: the partition flow's exact final step runs on the
// heuristic argmin, so pruning the argmin against a foreign bound can
// change — or lose — the backend's standalone result, breaking both
// bit-for-bit determinism and the guarantee that the portfolio never
// returns a worse time than the best single backend.

// BackendRun is one racer's outcome inside a portfolio run, in the
// fixed rank (tie-break) order of the racing subset.
type BackendRun struct {
	// Strategy is the backend this entry describes.
	Strategy Strategy
	// Time is the testing time the backend achieved; 0 when it was
	// cancelled or failed (check Cancelled/Err, not Time).
	Time soc.Cycles
	// Elapsed is the backend's own wall-clock duration inside the race.
	Elapsed time.Duration
	// Cancelled reports that the incumbent bound proved the backend
	// could neither beat nor tie-win the race, and it was stopped early.
	Cancelled bool
	// Truncated reports that the run's deadline stopped this backend
	// with its incumbent in hand (Result.Truncated of its own run): Time
	// is its best-so-far, not its natural answer.
	Truncated bool
	// Err is the backend's failure, if any ("" on success; a power
	// ceiling can make one backend infeasible while another wins).
	Err string
	// Winner marks the backend whose architecture the Result carries.
	Winner bool
}

// incumbent is the shared best-completed testing time of the race,
// encoded into a single atomic word as time<<rankBits | rank so that
// smaller means lexicographically better on (time, tie-break rank).
type incumbent struct{ v atomic.Int64 }

// rankBits is the low-bit budget for the tie-break rank; a backend
// table of up to 1<<rankBits engines races with full cancellation
// power.
const rankBits = 3

// maxEncodable is the largest testing time the incumbent encoding
// carries; beyond it offers saturate to "no information", which only
// costs cancellation opportunities, never correctness. Ranks beyond the
// bit budget saturate the same way.
const maxEncodable = soc.Cycles(1) << (63 - rankBits)

func newIncumbent() *incumbent {
	in := &incumbent{}
	in.v.Store(math.MaxInt64)
	return in
}

// offer records a completed backend's testing time, keeping the
// lexicographic minimum of (time, rank) across all offers.
func (in *incumbent) offer(t soc.Cycles, rank int) {
	if t >= maxEncodable || rank >= 1<<rankBits {
		return
	}
	enc := int64(t)<<rankBits | int64(rank)
	for {
		cur := in.v.Load()
		if cur <= enc || in.v.CompareAndSwap(cur, enc) {
			return
		}
	}
}

// beats reports whether the incumbent is strictly better than a
// hypothetical result (t, rank) — the cancellation test: a backend
// whose best possible outcome is beaten cannot affect the race.
func (in *incumbent) beats(t soc.Cycles, rank int) bool {
	if t >= maxEncodable || rank >= 1<<rankBits {
		return false
	}
	return in.v.Load() < int64(t)<<rankBits|int64(rank)
}

// solvePortfolio races the subset of engines selected by
// Options.Portfolio (default: every non-exact engine) concurrently and
// returns the winner: the best testing time, ties broken by the fixed
// rank order. Each backend runs its standalone algorithm
// unchanged (so the portfolio time equals the minimum of the
// single-backend times, bit for bit at any Workers setting); the
// incumbent bound cancels a backend only when it provably cannot win.
// The backends' contexts derive from the caller's parent ctx, so
// cancelling it stops the whole race (SolveContext's contract).
// Lifecycle and improvement events from every racer deliver into the
// one sink, serialized, each racer framed by runEngine.
func solvePortfolio(parent context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	started := time.Now()
	ranks, err := raceRanks(opt.Portfolio)
	if err != nil {
		return Result{}, err
	}
	backends := make([]engine, len(ranks))
	for i, rank := range ranks {
		backends[i] = engines[rank]
	}
	curves, err := curvesFor(s, width) // validates SOC and width up front
	if err != nil {
		return Result{}, err
	}
	// Every racer is held against the one lower bound, under the race's
	// effective power ceiling, for cancellation.
	lb := pack.LowerBound(s, curves.Tables(), width, s.PowerCeiling(opt.MaxPower))

	type outcome struct {
		res     Result
		err     error
		elapsed time.Duration
	}
	bound := newIncumbent()
	cancels := make([]context.CancelFunc, len(backends))
	results := make([]outcome, len(backends))
	done := make(chan int, len(backends))
	var wg sync.WaitGroup
	for i := range backends {
		ctx, cancel := context.WithCancel(parent)
		cancels[i] = cancel
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			runOpt := opt
			runOpt.Strategy = backends[i].info.Strategy
			// The racers share the memoized wrapper curves the
			// cancellation bound's tables came from — result-neutral
			// (see Options.curves).
			runOpt.curves = curves
			res, err := runEngine(ctx, &backends[i], s, width, runOpt, sink)
			if err == nil {
				bound.offer(res.Time, ranks[i])
			}
			results[i] = outcome{res: res, err: err, elapsed: time.Since(t0)}
			done <- i
		}(i)
	}

	// Monitor: after every completion, cancel any still-running backend
	// whose best conceivable outcome (the shared lower bound at its own
	// tie-break rank) is already beaten by the incumbent. Cancelling is
	// consequence-free — such a backend could not have changed the
	// winner — so the race stays deterministic.
	finished := make([]bool, len(backends))
	for range backends {
		finished[<-done] = true
		for j, rank := range ranks {
			if !finished[j] && bound.beats(lb, rank) {
				cancels[j]()
			}
		}
	}
	wg.Wait()
	for _, cancel := range cancels {
		cancel()
	}

	runs := make([]BackendRun, len(backends))
	winner := -1
	for i, b := range backends {
		out := &results[i]
		runs[i] = BackendRun{Strategy: b.info.Strategy, Elapsed: out.elapsed}
		switch {
		case out.err == nil:
			runs[i].Time = out.res.Time
			runs[i].Truncated = out.res.Truncated
			// Strict < keeps the earlier backend on ties: backends are
			// visited in rank (tie-break) order.
			if winner < 0 || out.res.Time < results[winner].res.Time {
				winner = i
			}
		// Both context errors are cancellations here (the monitor cancels
		// via context.Canceled; a parent deadline delivers
		// DeadlineExceeded) — matching the racer's progress events, which
		// report both as cancelled.
		case errors.Is(out.err, context.Canceled), errors.Is(out.err, context.DeadlineExceeded):
			runs[i].Cancelled = true
		default:
			runs[i].Err = out.err.Error()
		}
	}
	if winner < 0 {
		// With no winner at all, distinguish "the caller cancelled the
		// race" (every backend reports context.Canceled, msgs below would
		// be empty) from "every backend genuinely failed".
		if err := parent.Err(); err != nil {
			return Result{}, err
		}
		var msgs []string
		for i, b := range backends {
			if results[i].err != nil && !runs[i].Cancelled {
				msgs = append(msgs, fmt.Sprintf("%s: %v", b.info.Name, results[i].err))
			}
		}
		return Result{}, fmt.Errorf("coopt: every portfolio backend failed (%s)", strings.Join(msgs, "; "))
	}
	runs[winner].Winner = true

	res := results[winner].res
	res.Portfolio = runs
	res.Elapsed = time.Since(started)
	return res, nil
}
