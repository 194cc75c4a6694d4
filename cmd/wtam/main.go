// Command wtam co-optimizes the wrapper/TAM architecture of an SOC: given
// a .soc description (or a built-in benchmark) and a total TAM width, it
// reports the best TAM count, width partition, core assignment and SOC
// testing time.
//
// Usage:
//
//	wtam -benchmark d695 -width 32
//	wtam -soc chip.soc -width 64 -tams 3
//	wtam -benchmark p93791 -width 64 -strategy exhaustive -max-tams 3
//	wtam -benchmark d695 -width 32 -strategy exhaustive -tams 2
//	wtam -benchmark d695 -width 32 -strategy packing
//	wtam -benchmark d695 -width 32 -strategy portfolio -progress
//	wtam -benchmark d695 -width 16 -strategy ilp
//	wtam -benchmark d695 -width 16 -strategy portfolio:partition,exhaustive
//	wtam -benchmark d695 -width 32 -max-power 1800 -gantt
//	wtam -benchmark p21241 -width 64 -workers 8
//	wtam -benchmark p93791 -width 64 -strategy exhaustive -deadline 100ms
//
// -strategy is the one backend selector: it names any backend that
// soctam.Solvers lists, and every solve runs through soctam.Solve.
// partition (the default) is the paper's heuristic flow; packing (or
// diagonal) replaces it with one of the two rectangle bin-packing
// heuristics (wires are re-divided between cores over time instead of
// forming fixed test buses); exhaustive is the
// exact enumerate-and-solve baseline of [8] and ilp the exact
// LP-pruned branch and bound, both proven optimal. With -tams 0 (the
// default) the TAM count is optimized too (problem P_NPAW); a fixed
// -tams solves P_PAW with the partition or exhaustive strategy.
// -strategy portfolio races every heuristic backend, one after another,
// and reports the winner with per-backend attribution; a subset spec
// (portfolio:partition,exhaustive) races exactly the named backends —
// the only way an exact engine joins a race. Ties go to the backend
// Solvers lists first whatever the spec's order.
// -progress streams solver events (backend start/finish/cancellation,
// incumbent improvements) to stderr while the solve runs. -trace
// records the same events as a span tree — one child span per backend,
// incumbent improvements as timestamped events — and prints it to
// stderr once the solve returns (with -strategy portfolio the tree
// shows the whole race, one racer after another; see ARCHITECTURE.md
// §16). -workers
// parallelizes partition evaluation (0 = all CPUs, 1 = the paper's
// sequential order). -max-power imposes a peak-power ceiling on
// concurrently running tests (0 uses the SOC's own maxpower attribute;
// every backend honors it). -deadline bounds the solve's wall clock:
// past the budget the solver returns its best incumbent so far — a
// valid architecture tagged with its optimality gap — instead of an
// error, and without a deadline results are bit-for-bit identical to
// an unbounded run (see ARCHITECTURE.md §13).
//
// The solver service is the separate cmd/wtamd daemon (see API.md and
// ARCHITECTURE.md §10).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"soctam"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, errBadFlags) {
			// The FlagSet already printed the parse error and usage;
			// exit 2 like flag.ExitOnError so scripts can tell usage
			// errors from runtime failures.
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "wtam:", err)
		os.Exit(1)
	}
}

// errBadFlags marks a flag parse failure the FlagSet already reported.
var errBadFlags = errors.New("bad flags")

func run(args []string) error {
	flags := flag.NewFlagSet("wtam", flag.ContinueOnError)
	var (
		socPath   = flags.String("soc", "", "path to a .soc file describing the SOC")
		benchmark = flags.String("benchmark", "", "built-in benchmark SOC: d695, p21241, p31108 or p93791")
		width     = flags.Int("width", 32, "total TAM width W (wires available for test access)")
		tams      = flags.Int("tams", 0, "fixed number of TAMs B for the partition and exhaustive strategies (0 = optimize the TAM count too)")
		maxTAMs   = flags.Int("max-tams", 10, "largest TAM count explored when -tams is 0")
		nodeLimit = flags.Int64("node-limit", 0, "node budget per exact solve (0 = default)")
		strategy  = flags.String("strategy", "partition", "co-optimization backend ("+solverNames()+") or a portfolio subset spec like portfolio:partition,exhaustive")
		workers   = flags.Int("workers", 0, "partition-evaluation goroutines (0 = all CPUs, 1 = paper's sequential order)")
		maxPower  = flags.Int("max-power", 0, "peak-power ceiling on concurrent tests (0 = the SOC's own maxpower, if any)")
		deadline  = flags.Duration("deadline", 0, "wall-clock budget for the solve; past it the best incumbent so far is returned with its optimality gap (0 = unbounded)")
		progress  = flags.Bool("progress", false, "stream solver progress (backend lifecycle, incumbent improvements) to stderr while solving")
		trace     = flags.Bool("trace", false, "record the solve as a span tree (one child span per backend, incumbents as events) and print it to stderr afterwards")
		verbose   = flags.Bool("v", false, "print per-core wrapper usage on the chosen architecture")
		gantt     = flags.Bool("gantt", false, "print the test schedule as a Gantt chart with utilization")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h/-help printed the usage; that is success, not an error.
			return nil
		}
		return errBadFlags
	}

	s, err := loadSOC(*socPath, *benchmark)
	if err != nil {
		return err
	}
	strat, subset, err := soctam.ParseStrategySpec(*strategy)
	if err != nil {
		// The spec parser's error lists every valid strategy/backend name.
		return err
	}
	if err := rejectFlags(flags, strat); err != nil {
		return err
	}
	opt := soctam.Options{
		Strategy:  strat,
		Portfolio: subset,
		MaxTAMs:   *maxTAMs,
		NodeLimit: *nodeLimit,
		Workers:   *workers,
		MaxPower:  *maxPower,
		Budget:    *deadline,
	}
	if *progress {
		opt.Progress = progressPrinter(os.Stderr)
	}
	var st *soctam.SolveTrace
	if *trace {
		name := *benchmark
		if name == "" {
			name = *socPath
		}
		st = soctam.NewSolveTrace(name)
		hook, prev := st.Hook(), opt.Progress
		opt.Progress = hook
		if prev != nil {
			// Both consumers see every event; the trace records first so
			// its clock reads are not skewed by printing.
			opt.Progress = func(ev soctam.ProgressEvent) { hook(ev); prev(ev) }
		}
	}

	var res soctam.Result
	switch {
	case *tams > 0 && strat == soctam.StrategyExhaustive:
		res, err = soctam.Exhaustive(s, *width, *tams, opt)
	case *tams > 0:
		res, err = soctam.CoOptimizeFixedTAMs(s, *width, *tams, opt)
	default:
		res, err = soctam.Solve(s, *width, opt)
	}
	if st != nil {
		st.Finish(res, err)
		st.WriteTree(os.Stderr)
	}
	if err != nil {
		return err
	}

	if strat == soctam.StrategyPortfolio {
		printPortfolio(res)
	}
	if res.Packing != nil {
		err = printPacking(s, res, *verbose)
	} else {
		// Only the partition flow evaluates on a pool (inside a portfolio
		// too, where it gets every resolved worker); the Stats reported
		// are those of the engine that produced res, and the exact
		// engines enumerate sequentially.
		parallelStats := res.Strategy == soctam.StrategyPartition && opt.ParallelEvaluation()
		err = printPartitionResult(s, res, parallelStats, *verbose)
	}
	if err != nil || !*gantt {
		return err
	}
	return printGantt(s, res)
}

// solverNames lists every -strategy name, in Solvers order.
func solverNames() string {
	var names []string
	for _, info := range soctam.Solvers() {
		names = append(names, info.Name)
	}
	return strings.Join(names, ", ")
}

// progressPrinter renders the Options.Progress event stream as one
// stderr line per event. The hook runs on the solver's goroutines but
// serialized (never concurrently with itself), so plain Fprintf is safe.
func progressPrinter(w io.Writer) soctam.ProgressFunc {
	return func(ev soctam.ProgressEvent) {
		at := ev.Elapsed.Round(time.Microsecond)
		switch ev.Kind {
		case soctam.ProgressBackendStart:
			fmt.Fprintf(w, "progress: %-10s started\n", ev.Backend)
		case soctam.ProgressImproved:
			if ev.Partitions > 0 {
				fmt.Fprintf(w, "progress: %-10s improved to %d cycles (partition %d, %s)\n",
					ev.Backend, ev.Time, ev.Partitions, at)
			} else {
				fmt.Fprintf(w, "progress: %-10s improved to %d cycles (%s)\n", ev.Backend, ev.Time, at)
			}
		case soctam.ProgressBackendDone:
			if ev.Err != "" {
				fmt.Fprintf(w, "progress: %-10s failed: %s (%s)\n", ev.Backend, ev.Err, at)
			} else {
				fmt.Fprintf(w, "progress: %-10s finished: %d cycles (%s)\n", ev.Backend, ev.Time, at)
			}
		case soctam.ProgressBackendCancelled:
			fmt.Fprintf(w, "progress: %-10s cancelled: could no longer win (%s)\n", ev.Backend, at)
		}
	}
}

// unusableFlags lists, per strategy, the flags it cannot use and why.
// The packers have no fixed TAMs, no exact step and no partition
// enumeration; -gantt and -max-power stay meaningful everywhere (every
// schedule renders as a wire-band chart and every backend honors the
// power ceiling).
var unusableFlags = map[soctam.Strategy]struct {
	reason string
	names  []string
}{
	soctam.StrategyExhaustive: {"the baseline solves every partition sequentially", []string{"workers"}},
	soctam.StrategyILP:        {"the exact engine is sequential and sweeps every TAM count", []string{"tams", "workers"}},
	soctam.StrategyPacking:    {"no fixed TAMs, no exact step, no partition enumeration", []string{"tams", "node-limit", "max-tams", "workers"}},
	soctam.StrategyDiagonal:   {"no fixed TAMs, no exact step, no partition enumeration", []string{"tams", "node-limit", "max-tams", "workers"}},
	soctam.StrategyPortfolio:  {"the race runs the full P_NPAW flows", []string{"tams"}},
}

// rejectFlags errors when the user explicitly set a flag the chosen
// strategy cannot use, naming every offender and the reason, instead of
// silently ignoring it.
func rejectFlags(flags *flag.FlagSet, strat soctam.Strategy) error {
	rule := unusableFlags[strat]
	var unusable []string
	flags.Visit(func(f *flag.Flag) {
		if slices.Contains(rule.names, f.Name) {
			unusable = append(unusable, "-"+f.Name)
		}
	})
	if len(unusable) > 0 {
		return fmt.Errorf("-strategy %s does not use %s (%s)", strat, strings.Join(unusable, ", "), rule.reason)
	}
	return nil
}

// printPartitionResult reports a partition-flow result: the chosen
// architecture, the evaluation statistics and the optional wrapper
// detail. parallelStats says whether the evaluation that produced Stats
// ran on a worker pool (its split is then order dependent).
func printPartitionResult(s *soctam.SOC, res soctam.Result, parallelStats, verbose bool) error {
	fmt.Printf("SOC:              %s\n", s)
	fmt.Printf("total TAM width:  %d\n", res.TotalWidth)
	fmt.Printf("TAMs:             %d\n", res.NumTAMs)
	fmt.Printf("width partition:  %s\n", partitionString(res.Partition))
	fmt.Printf("core assignment:  %s\n", res.Assignment.Vector())
	fmt.Printf("testing time:     %d cycles\n", res.Time)
	fmt.Printf("heuristic time:   %d cycles (before final optimization)\n", res.HeuristicTime)
	exact := "not proven optimal"
	if res.AssignmentOptimal {
		exact = "proven optimal"
	}
	fmt.Printf("assignment:       %s for the chosen partition\n", exact)
	printGrade(res)
	statsNote := ""
	if parallelStats {
		// The completed/pruned split depends on parallel evaluation
		// order; the chosen partition and times do not.
		statsNote = " (split varies across runs; -workers 1 makes it deterministic)"
	}
	fmt.Printf("partitions:       %d enumerated, %d evaluated to completion, %d pruned%s\n",
		res.Stats.Enumerated, res.Stats.Completed, res.Stats.Aborted, statsNote)
	if res.Stats.PowerInfeasible > 0 {
		fmt.Printf("power-rejected:   %d would-be improvements breached the ceiling\n", res.Stats.PowerInfeasible)
	}
	printPower(res)
	fmt.Printf("elapsed:          %s\n", res.Elapsed)

	if verbose {
		return printWrappers(s, res)
	}
	return nil
}

// printPortfolio reports the race: one row per backend with its time,
// wall clock and outcome, the winner starred. The winning backend's
// full architecture report follows from the caller.
func printPortfolio(res soctam.Result) {
	fmt.Println("portfolio race (ties go to the backend listed first):")
	for _, run := range res.Portfolio {
		mark := " "
		if run.Winner {
			mark = "*"
		}
		switch {
		case run.Cancelled:
			fmt.Printf("  %s %-10s cancelled (could no longer win)  %s\n", mark, run.Strategy, run.Elapsed.Round(time.Microsecond))
		case run.Err != "":
			fmt.Printf("  %s %-10s failed: %s\n", mark, run.Strategy, run.Err)
		default:
			fmt.Printf("  %s %-10s %d cycles  %s\n", mark, run.Strategy, run.Time, run.Elapsed.Round(time.Microsecond))
		}
	}
	fmt.Println()
}

// printPacking reports a rectangle bin-packing result: the bin-level
// summary plus one row per placed rectangle.
func printPacking(s *soctam.SOC, res soctam.Result, verbose bool) error {
	sch := res.Packing
	fmt.Printf("SOC:              %s\n", s)
	fmt.Printf("strategy:         %s\n", res.Strategy)
	fmt.Printf("total TAM width:  %d\n", res.TotalWidth)
	fmt.Printf("testing time:     %d cycles\n", res.Time)
	fmt.Printf("lower bound:      %d cycles\n", sch.Bound)
	printGrade(res)
	printPower(res)
	fmt.Printf("elapsed:          %s\n", res.Elapsed)
	fmt.Println("\nrectangle schedule (wires × cycles, half-open ranges):")
	for i := range sch.Rects {
		r := &sch.Rects[i]
		fmt.Printf("  core %-10s wires [%2d,%2d)  cycles [%8d,%-8d) (%2d × %d)\n",
			s.Cores[r.Core].Name, r.Wire, r.Wire+r.Width, r.Start, r.End, r.Width, r.Duration())
	}
	if verbose {
		fmt.Println("\nper-core wrapper designs:")
		for i := range sch.Rects {
			r := &sch.Rects[i]
			c := &s.Cores[r.Core]
			d, err := soctam.DesignWrapper(c, r.Width)
			if err != nil {
				return err
			}
			fmt.Printf("  core %-10s width %2d: uses %2d wrapper chains, scan-in %4d, scan-out %4d, %8d cycles\n",
				c.Name, r.Width, d.UsedWidth(), d.ScanIn, d.ScanOut, d.Time)
		}
	}
	return nil
}

// printGrade reports how the answer stands against the lower bound:
// its optimality gap, whether it is proven optimal, and whether the
// deadline cut the run short, leaving the best incumbent at the cutoff.
func printGrade(res soctam.Result) {
	fmt.Printf("gap:              %.2f%% above the lower bound\n", 100*res.Gap)
	fmt.Printf("proven optimal:   %v\n", res.Proven)
	if res.Truncated {
		fmt.Printf("deadline:         expired; best incumbent shown\n")
	}
}

// printPower reports the architecture's peak concurrent power against
// the ceiling, when either is known.
func printPower(res soctam.Result) {
	switch {
	case res.MaxPower > 0:
		fmt.Printf("peak power:       %d of %d power units (ceiling)\n", res.PeakPower, res.MaxPower)
	case res.PeakPower > 0:
		fmt.Printf("peak power:       %d power units (unconstrained)\n", res.PeakPower)
	}
}

// printGantt renders the answer's test schedule as a wire-band chart —
// a packing's own rectangles, or a fixed-TAM architecture's one band
// per TAM — with its wire-cycle utilization.
func printGantt(s *soctam.SOC, res soctam.Result) error {
	sch := res.Packing
	if sch == nil {
		var err error
		if sch, err = soctam.BuildSchedule(s, res.Partition, res.Assignment.TAMOf); err != nil {
			return err
		}
	}
	fmt.Println("\ntest schedule (wire bands):")
	fmt.Print(sch.Gantt(72, func(core int) string { return s.Cores[core].Name }))
	fmt.Printf("wire-cycles:      %.1f%% busy\n", 100*sch.BusyFraction())
	return nil
}

func loadSOC(path, benchmark string) (*soctam.SOC, error) {
	switch {
	case path != "" && benchmark != "":
		return nil, fmt.Errorf("use either -soc or -benchmark, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return soctam.ParseSOC(f)
	case benchmark != "":
		return soctam.BenchmarkSOC(benchmark)
	}
	return nil, fmt.Errorf("one of -soc or -benchmark is required")
}

func partitionString(parts []int) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "+"
		}
		out += fmt.Sprint(p)
	}
	return out
}

// printWrappers reports, per core, the TAM it landed on and the wrapper
// design it gets there.
func printWrappers(s *soctam.SOC, res soctam.Result) error {
	fmt.Println("\nper-core wrapper designs:")
	for i := range s.Cores {
		c := &s.Cores[i]
		tam := res.Assignment.TAMOf[i]
		w := res.Partition[tam]
		d, err := soctam.DesignWrapper(c, w)
		if err != nil {
			return err
		}
		fmt.Printf("  core %-10s TAM %d (width %2d): uses %2d wrapper chains, scan-in %4d, scan-out %4d, %8d cycles\n",
			c.Name, tam+1, w, d.UsedWidth(), d.ScanIn, d.ScanOut, d.Time)
	}
	return nil
}
