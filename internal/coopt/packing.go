package coopt

import (
	"context"
	"time"

	"soctam/internal/pack"
	"soctam/internal/soc"
)

// packEngine adapts one of package pack's packers (PackContext,
// PackDiagonalContext) into an engine's solve function that wraps the
// schedule as a Result. Partition/Assignment stay empty: a packed
// architecture re-divides the W wires between cores over time instead
// of fixing test buses, so there is no width partition to report — the
// schedule itself (Result.Packing) is the architecture.
func packEngine(strategy Strategy, packer func(context.Context, *soc.SOC, int, pack.Options) (*pack.Schedule, error)) solveFunc {
	return func(ctx context.Context, s *soc.SOC, width int, opt Options, _ *progressSink) (Result, error) {
		started := time.Now()
		sch, err := packer(ctx, s, width, pack.Options{MaxPower: opt.MaxPower, Curves: opt.curves, Deadline: opt.deadline})
		if err != nil {
			return Result{}, err
		}
		return packingResult(strategy, sch, width, started), nil
	}
}

// packingResult wraps a packed schedule as a Result, graded against the
// schedule's Bound — the one lower bound every backend reads, so gaps
// compare across backends.
func packingResult(strategy Strategy, sch *pack.Schedule, width int, started time.Time) Result {
	res := Result{
		TotalWidth:    width,
		Strategy:      strategy,
		Packing:       sch,
		HeuristicTime: sch.Makespan,
		Time:          sch.Makespan,
		MaxPower:      sch.MaxPower,
		PeakPower:     sch.PeakPower(),
		Truncated:     sch.Truncated,
	}
	res.grade(sch.Bound, false)
	res.Elapsed = time.Since(started)
	return res
}
