// Command tables regenerates the paper's evaluation artifacts: every
// table of Section 4 plus the Figure 2 worked example, printed as aligned
// text tables with measured CPU times.
//
// Usage:
//
//	tables                          # everything, paper parameters
//	tables -only figure2,table1    # a subset
//	tables -only packing           # rectangle packing vs partition flow
//	tables -only serve             # serving-layer cache hit rate/throughput
//	tables -widths 16,32,64        # reduced width sweep
//	tables -node-limit 1000000     # budget per exact solve
//	tables -workers 1              # paper's sequential partition order
//	tables -out results.txt        # write to a file
//
// Exact solves that exhaust their node budget are reported with
// "optimal: no", mirroring the paper's entries where the exhaustive
// method "did not complete even after two days".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"soctam/internal/experiments"
	"soctam/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only      = flag.String("only", "", "comma-separated experiment names (default: all); see -list")
		list      = flag.Bool("list", false, "list experiment names and exit")
		widthsArg = flag.String("widths", "", "comma-separated total TAM widths (default: the paper's 16..64 step 8)")
		maxTAMs   = flag.Int("max-tams", 10, "largest TAM count in P_NPAW sweeps")
		nodeLimit = flag.Int64("node-limit", 0, "node budget per exact solve (0 = the solver default, 5,000,000)")
		workers   = flag.Int("workers", 0, "partition-evaluation goroutines (0 = all CPUs, 1 = paper's sequential order; table1 always runs sequentially for paper-comparable pruning stats)")
		outPath   = flag.String("out", "", "output file (default: stdout)")
	)
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return nil
	}

	opt := experiments.Options{
		MaxTAMs:   *maxTAMs,
		NodeLimit: *nodeLimit,
		Workers:   *workers,
	}
	if *widthsArg != "" {
		for _, f := range strings.Split(*widthsArg, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad width %q", f)
			}
			opt.Widths = append(opt.Widths, w)
		}
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if *only == "" {
		start := time.Now()
		if err := experiments.RunAll(opt, out); err != nil {
			return err
		}
		fmt.Fprintf(out, "total generation time: %s\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	for _, name := range strings.Split(*only, ",") {
		name = strings.TrimSpace(name)
		tables, err := experiments.Run(name, opt)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "==== %s ====\n\n", name); err != nil {
			return err
		}
		if err := report.RenderAll(out, tables); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
	}
	return nil
}
