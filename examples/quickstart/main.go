// Quickstart: co-optimize the test access architecture of the d695
// benchmark SOC under a 32-wire TAM budget and print the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"soctam"
)

func main() {
	s := soctam.D695()
	fmt.Println("SOC under test:", s)

	// One call designs the whole architecture: how many test buses, how
	// wide each one is, which cores share which bus, and a wrapper per
	// core — minimizing the SOC testing time.
	res, err := soctam.Solve(s, 32, soctam.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TAMs:            %d\n", res.NumTAMs)
	fmt.Printf("width partition: %v (total %d wires)\n", res.Partition, res.TotalWidth)
	fmt.Printf("assignment:      %s\n", res.Assignment.Vector())
	fmt.Printf("testing time:    %d cycles\n", res.Time)
	fmt.Printf("found in:        %s (%d partitions enumerated, %d pruned early)\n",
		res.Elapsed.Round(1000), res.Stats.Enumerated, res.Stats.Aborted)

	// Each core's wrapper on its chosen TAM.
	fmt.Println("\ncore placements:")
	for i := range s.Cores {
		core := &s.Cores[i]
		tam := res.Assignment.TAMOf[i]
		d, err := soctam.DesignWrapper(core, res.Partition[tam])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s -> TAM %d (%2d wires): %2d wrapper chains, %7d cycles\n",
			core.Name, tam+1, res.Partition[tam], d.UsedWidth(), d.Time)
	}
}
