package coopt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"soctam/internal/pack"
	"soctam/internal/soc"
)

// This file implements StrategyPortfolio as a combinator over the
// backend table (solvePortfolio). Ranks are the table's row order,
// never the subset's spelling, so racing any subset reproduces the
// standalone results of its members bit for bit. See ARCHITECTURE.md §9
// for the determinism argument and §11 for the table.
//
// Sharing between racers is deliberately limited to the lower-bound
// skip. Feeding the cross-backend incumbent into a backend's *internal*
// pruning (e.g. the partition flow's lines 18–20 abort) would make that
// backend's answer depend on the racers before it: the partition flow's
// exact final step runs on the heuristic argmin, so pruning the argmin
// against a foreign bound can change — or lose — the backend's
// standalone result, breaking the guarantee that the portfolio never
// returns a worse time than the best single backend.

// BackendRun is one racer's outcome inside a portfolio run, in the
// fixed rank (tie-break) order of the racing subset.
type BackendRun struct {
	// Strategy is the backend this entry describes.
	Strategy Strategy
	// Time is the testing time the backend achieved; 0 when it was
	// cancelled or failed (check Cancelled/Err, not Time).
	Time soc.Cycles
	// Elapsed is the backend's own wall-clock duration inside the race;
	// 0 for a racer the lower bound skipped.
	Elapsed time.Duration
	// Cancelled reports that the backend did not finish: an earlier
	// racer had already attained the lower bound, so it was skipped
	// without running, or the caller's context stopped it.
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

// solvePortfolio runs the subset of engines selected by
// Options.Portfolio (default: every non-exact engine) in rank order on
// the caller's goroutine and returns the winner: the first strictly best
// testing time, so ties stay with the earlier rank. Each racer runs its
// standalone algorithm unchanged under the caller's ctx (so the
// portfolio time equals the minimum of the single-backend times, bit for
// bit at any Workers setting). Once the winner attains the lower bound,
// every later racer is skipped: it could at best tie, and lose the tie.
// A skipped racer is framed start then cancelled on the progress stream,
// and each racer that runs is framed by runEngine, one racer after
// another.
func solvePortfolio(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error) {
	started := time.Now()
	ranks, err := raceRanks(opt.Portfolio)
	if err != nil {
		return Result{}, err
	}
	curves, err := curvesFor(s, width) // validates SOC and width up front
	if err != nil {
		return Result{}, err
	}
	// Every racer is held against the one lower bound, under the race's
	// effective power ceiling.
	lb := pack.LowerBound(s, curves.Tables(), width, s.PowerCeiling(opt.MaxPower))

	runs := make([]BackendRun, len(ranks))
	var best Result
	winner := -1
	var msgs []string
	for i, rank := range ranks {
		e := &engines[rank]
		runs[i].Strategy = e.info.Strategy
		if winner >= 0 && best.Time <= lb {
			sink.start(e.info.Name)
			sink.cancelled(e.info.Name)
			runs[i].Cancelled = true
			continue
		}
		t0 := time.Now()
		runOpt := opt
		runOpt.Strategy = e.info.Strategy
		// The racers share the memoized wrapper curves the lower bound's
		// tables came from — result-neutral (see Options.curves).
		runOpt.curves = curves
		res, err := runEngine(ctx, e, s, width, runOpt, sink)
		runs[i].Elapsed = time.Since(t0)
		switch {
		case err == nil:
			runs[i].Time = res.Time
			runs[i].Truncated = res.Truncated
			if winner < 0 || res.Time < best.Time {
				winner, best = i, res
			}
		// Both context errors are cancellations, as runEngine reports
		// them on the progress stream.
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			runs[i].Cancelled = true
		default:
			runs[i].Err = err.Error()
			msgs = append(msgs, fmt.Sprintf("%s: %v", e.info.Name, err))
		}
	}
	if winner < 0 {
		// With no winner at all, distinguish "the caller cancelled the
		// race" (msgs would be empty) from "every backend genuinely
		// failed".
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("coopt: every portfolio backend failed (%s)", strings.Join(msgs, "; "))
	}
	runs[winner].Winner = true
	best.Portfolio = runs
	best.Elapsed = time.Since(started)
	return best, nil
}
