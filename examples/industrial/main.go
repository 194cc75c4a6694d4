// Industrial-scale co-optimization: the scenario that motivated the
// paper. p93791 is the largest SOC in the study (32 cores, 18 memories);
// the exhaustive method of the earlier JETTA'02 paper needs minutes to
// hours on it, while Partition_evaluate + one exact final step lands
// within a few percent in milliseconds.
//
// The example sweeps the total TAM width like the paper's Table 19 and
// compares the heuristic flow against the exhaustive baseline at B=2
// (kept small so the example finishes quickly; the full baseline lives in
// cmd/tables).
//
// Run with:
//
//	go run ./examples/industrial
package main

import (
	"fmt"
	"log"
	"strings"

	"soctam"
)

// partitionString renders a width partition as "3+7+15+15".
func partitionString(parts []int) string {
	fields := make([]string, len(parts))
	for i, p := range parts {
		fields[i] = fmt.Sprint(p)
	}
	return strings.Join(fields, "+")
}

func main() {
	s := soctam.P93791()
	fmt.Println("SOC under test:", s)
	fmt.Println()
	fmt.Println("    W   B  partition             T_heur (cycles)   elapsed     T_exh(B=2)   exh elapsed   dT vs exh")

	for _, w := range []int{16, 24, 32, 40, 48, 56, 64} {
		res, err := soctam.Solve(s, w, soctam.Options{MaxTAMs: 10})
		if err != nil {
			log.Fatal(err)
		}
		exh, err := soctam.Exhaustive(s, w, 2, soctam.Options{NodeLimit: 500_000})
		if err != nil {
			log.Fatal(err)
		}
		delta := 100 * float64(res.Time-exh.Time) / float64(exh.Time)
		fmt.Printf("  %3d  %2d  %-20s  %15d  %10s  %11d  %12s  %+9.2f%%\n",
			w, res.NumTAMs, partitionString(res.Partition), res.Time,
			res.Elapsed.Round(1000), exh.Time, exh.Elapsed.Round(1000), delta)
	}

	fmt.Println()
	fmt.Println("negative dT: freeing the TAM count (B>2) beats the best 2-TAM architecture,")
	fmt.Println("exactly the effect the paper uses to motivate multi-TAM co-optimization.")
}
