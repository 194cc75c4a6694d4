package experiments

import (
	"fmt"

	"soctam/internal/coopt"
	"soctam/internal/report"
	"soctam/internal/soc"
)

// powerCeilings is the peak-power sweep: unconstrained first (the
// bit-for-bit baseline), then progressively tighter ceilings in the
// units the d695 power figures use (the literature's classic operating
// points 2500 and 1800 among them).
var powerCeilings = []int{0, 2500, 2000, 1800, 1500, 1200}

// powerWidths keeps the sweep affordable: the corner widths plus the
// paper's headline W=32.
var powerWidths = []int{16, 32, 64}

// PowerSweep measures testing time against the peak-power ceiling on
// d695 for both backends — the power-constrained test scheduling of the
// rectangle bin-packing literature (arXiv:1008.4448) and its
// serial-per-TAM counterpart on the partition flow. This experiment has
// no counterpart in the source paper, which does not model power; the
// ceiling-0 rows double as a regression anchor for the unconstrained
// tables above.
func PowerSweep(opt Options) ([]*report.Table, error) {
	s, err := benchmarkSOC("d695")
	if err != nil {
		return nil, err
	}
	widths := powerWidths
	if len(opt.Widths) > 0 {
		widths = opt.Widths
	}
	t := &report.Table{
		Title: "Power sweep: d695, testing time vs peak-power ceiling, partition vs packing",
		Header: []string{"W", "Pmax", "T_part (cycles)", "peak_part", "dT_part (%)",
			"T_pack (cycles)", "peak_pack", "dT_pack (%)"},
	}
	cfg := opt.cooptOptions()
	for _, w := range widths {
		var freePart, freePack soc.Cycles
		for _, pmax := range powerCeilings {
			partCfg := cfg
			partCfg.MaxPower = pmax
			part, err := coopt.Solve(s, w, partCfg)
			if err != nil {
				return nil, err
			}
			packCfg := partCfg
			packCfg.Strategy = coopt.StrategyPacking
			packed, err := coopt.Solve(s, w, packCfg)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprint(pmax)
			if pmax == 0 {
				label = "inf"
				freePart, freePack = part.Time, packed.Time
			}
			t.AddRow(fmt.Sprint(w), label,
				report.Cycles(part.Time),
				fmt.Sprint(part.PeakPower),
				report.DeltaPercent(part.Time, freePart),
				report.Cycles(packed.Time),
				fmt.Sprint(packed.PeakPower),
				report.DeltaPercent(packed.Time, freePack),
			)
		}
	}
	t.AddNote("Pmax is the peak-power ceiling in the d695 literature's power units; inf = unconstrained")
	t.AddNote("T_part/T_pack are the backends' final testing times, peak_* the schedules' peak concurrent power")
	t.AddNote("dT_* compare against the same backend unconstrained; the inf rows equal the unconstrained tables above")
	return []*report.Table{t}, nil
}
