package soctam_test

import (
	"fmt"
	"log"

	"soctam"
)

// ExampleSolve co-optimizes the d695 benchmark under a 32-wire TAM
// budget with the paper's partition flow: the TAM count, the width
// partition, the core assignment and every wrapper fall out of one call.
func ExampleSolve() {
	s := soctam.D695()
	res, err := soctam.Solve(s, 32, soctam.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d TAMs %v\n", res.NumTAMs, res.Partition)
	fmt.Printf("testing time %d cycles\n", res.Time)
	// Output:
	// 5 TAMs [4 4 6 9 9]
	// testing time 21566 cycles
}

// ExampleSolve_strategies selects each co-optimization backend in
// turn — the partition flow, the two rectangle bin-packing
// heuristics, the exact exhaustive baseline, the pruning exact ILP
// engine — and finally the portfolio combinator that races the
// heuristics concurrently and returns the winner, never worse than the
// best single backend, deterministically at any Workers setting.
// Solvers lists every selectable backend with its capability flags; the
// exact engines are marked and stay out of the bare portfolio race.
func ExampleSolve_strategies() {
	s := soctam.D695()
	for _, info := range soctam.Solvers() {
		res, err := soctam.Solve(s, 32, soctam.Options{Strategy: info.Strategy})
		if err != nil {
			log.Fatal(err)
		}
		tag := ""
		if info.Exact {
			tag = "  (proven optimal)"
		}
		fmt.Printf("%-10s %d cycles%s\n", info.Name, res.Time, tag)
	}
	// Output:
	// partition  21566 cycles
	// packing    21616 cycles
	// diagonal   22427 cycles
	// exhaustive 21435 cycles  (proven optimal)
	// ilp        21435 cycles  (proven optimal)
	// portfolio  21566 cycles
}

// ExampleSolve_powerCeiling imposes a peak-power ceiling on the summed
// test power of concurrently running tests — every backend honors it,
// trading testing time for power feasibility.
func ExampleSolve_powerCeiling() {
	s := soctam.D695() // carries the literature's per-core power figures
	free, err := soctam.Solve(s, 32, soctam.Options{})
	if err != nil {
		log.Fatal(err)
	}
	capped, err := soctam.Solve(s, 32, soctam.Options{MaxPower: 1800})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unconstrained: %d cycles, peak %d power units\n", free.Time, free.PeakPower)
	fmt.Printf("ceiling 1800:  %d cycles, peak %d power units\n", capped.Time, capped.PeakPower)
	// Output:
	// unconstrained: 21566 cycles, peak 3671 power units
	// ceiling 1800:  29518 cycles, peak 1576 power units
}
