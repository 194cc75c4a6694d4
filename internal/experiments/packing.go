package experiments

import (
	"fmt"

	"soctam/internal/coopt"
	"soctam/internal/report"
)

// PackingVsPartition compares the two co-optimization backends on d695
// over the width sweep: the paper's partition flow against the rectangle
// bin-packing scheduler of the follow-up TAM literature. This experiment
// has no counterpart in the source paper — it opens the scenario family
// the arXiv rectangle-packing studies describe.
func PackingVsPartition(opt Options) ([]*report.Table, error) {
	s, err := benchmarkSOC("d695")
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Packing vs partition: d695, rectangle bin-packing against the partition flow",
		Header: []string{"W", "T_part (cycles)", "T_pack (cycles)", "dT (%)",
			"LB_pack", "busy (%)", "t_part (s)", "t_pack (s)"},
	}
	cfg := opt.cooptOptions()
	for _, w := range opt.widths() {
		part, err := coopt.Solve(s, w, cfg)
		if err != nil {
			return nil, err
		}
		packCfg := cfg
		packCfg.Strategy = coopt.StrategyPacking
		packed, err := coopt.Solve(s, w, packCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(w),
			report.Cycles(part.Time),
			report.Cycles(packed.Time),
			report.DeltaPercent(packed.Time, part.Time),
			report.Cycles(packed.Packing.Bound),
			fmt.Sprintf("%.1f", 100*packed.Packing.BusyFraction()),
			report.Seconds(part.Elapsed),
			report.Seconds(packed.Elapsed),
		)
	}
	t.AddNote("T_part is the partition flow's final time; T_pack the packed makespan; dT compares them")
	t.AddNote("LB_pack is the lower bound every backend's gap is measured against (bin area vs longest single test); busy is wire-cycle utilization")
	return []*report.Table{t}, nil
}
