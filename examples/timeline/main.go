// Test-schedule timelines: what the optimized architecture actually does
// on the tester, and why multiple TAMs beat one wide bus.
//
// The example co-optimizes d695 under a 32-wire budget twice — once
// forced to a single TAM, once with the TAM count free — and renders both
// schedules as wire-band Gantt charts (one row per TAM wire, '.' for an
// idle wire-cycle) with their wire-cycle utilization. The single bus
// wastes wires on small cores (the paper's "unnecessary (idle) TAM
// wires"); the partitioned architecture keeps them busy.
//
// Run with:
//
//	go run ./examples/timeline
package main

import (
	"fmt"
	"log"

	"soctam"
)

func main() {
	s := soctam.D695()
	const width = 32

	lb, err := soctam.LowerBound(s, width)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SOC %s, %d TAM wires, theoretical lower bound %d cycles\n\n", s.Name, width, lb)

	show(s, width, 1, "single test bus (B = 1)")
	show(s, width, 0, "co-optimized architecture (B free)")
}

func show(s *soctam.SOC, width, fixedTAMs int, title string) {
	var (
		res soctam.Result
		err error
	)
	if fixedTAMs > 0 {
		res, err = soctam.CoOptimizeFixedTAMs(s, width, fixedTAMs, soctam.Options{})
	} else {
		res, err = soctam.Solve(s, width, soctam.Options{})
	}
	if err != nil {
		log.Fatal(err)
	}
	sch, err := soctam.BuildSchedule(s, res.Partition, res.Assignment.TAMOf)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("--- %s ---\n", title)
	fmt.Printf("partition %v, testing time %d cycles\n", res.Partition, res.Time)
	fmt.Print(sch.Gantt(72, func(core int) string { return s.Cores[core].Name }))
	fmt.Printf("wire-cycle utilization: %.1f%% busy\n\n", 100*sch.BusyFraction())
}
