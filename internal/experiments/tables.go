package experiments

import (
	"fmt"

	"soctam/internal/assign"
	"soctam/internal/coopt"
	"soctam/internal/partition"
	"soctam/internal/report"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// Figure2 reproduces the paper's worked example: the 5-core/3-TAM testing
// time matrix of Fig. 2(a) and the Core_assign result of Fig. 2(b).
func Figure2(Options) ([]*report.Table, error) {
	widths, times := socdata.Figure2()
	in := &assign.Instance{Widths: widths, Times: times}

	matrix := &report.Table{
		Title:  "Figure 2(a): core testing times on each TAM (cycles)",
		Header: []string{"Core", "TAM 1 (32 bits)", "TAM 2 (16 bits)", "TAM 3 (8 bits)"},
	}
	for i, row := range times {
		matrix.AddRow(fmt.Sprint(i+1), report.Cycles(row[0]), report.Cycles(row[1]), report.Cycles(row[2]))
	}

	a, ok := assign.CoreAssign(in, 0)
	if !ok {
		return nil, fmt.Errorf("figure2: Core_assign aborted unexpectedly")
	}
	result := &report.Table{
		Title:  "Figure 2(b): Core_assign final assignment",
		Header: []string{"Core", "TAM", "Testing time (cycles)"},
	}
	for i, j := range a.TAMOf {
		result.AddRow(fmt.Sprint(i+1), fmt.Sprint(j+1), report.Cycles(times[i][j]))
	}
	result.AddNote("TAM loads: %d, %d, %d cycles; SOC testing time %d cycles",
		a.Loads[0], a.Loads[1], a.Loads[2], a.Time)
	result.AddNote("paper reports loads 180, 200, 200 and assignment (2,3,2,1,1)")
	return []*report.Table{matrix, result}, nil
}

// Table1 reproduces the Partition_evaluate pruning-efficiency study on
// p21241: exact P(W,B) against the partitions evaluated to completion.
func Table1(opt Options) ([]*report.Table, error) {
	s, err := benchmarkSOC("p21241")
	if err != nil {
		return nil, err
	}
	widths := opt.Widths
	if len(widths) == 0 {
		widths = []int{44, 48, 52, 56, 60, 64}
	}
	t := &report.Table{
		Title: "Table 1: efficiency of the Partition_evaluate heuristic (p21241)",
		Header: []string{"W",
			"P(W,4)", "p_eval", "E",
			"P(W,5)", "p_eval", "E"},
	}
	for _, w := range widths {
		row := []string{fmt.Sprint(w)}
		for _, b := range []int{4, 5} {
			if w < b {
				row = append(row, "-", "-", "-")
				continue
			}
			// The paper-faithful Figure 3 odometer on a single worker,
			// so the pruning statistics (which depend on evaluation
			// order) are comparable with the published Table 1.
			res, err := coopt.PartitionEvaluate(s, w, b, coopt.Options{
				SkipFinal:   true,
				Enumeration: coopt.EnumOdometer,
				Workers:     1,
			})
			if err != nil {
				return nil, err
			}
			count := partition.Count(w, b)
			row = append(row,
				fmt.Sprint(count),
				fmt.Sprint(res.Stats.Completed),
				fmt.Sprintf("%.4f", float64(res.Stats.Completed)/float64(count)),
			)
		}
		t.AddRow(row...)
	}
	t.AddNote("P(W,B) is the exact unique-partition count; the paper estimates it as W^(B-1)/(B!(B-1)!)")
	t.AddNote("p_eval counts partitions whose Core_assign evaluation ran to completion")
	return []*report.Table{t}, nil
}

// ppawPair runs the exhaustive [8] baseline and the new co-optimization
// method for a fixed TAM count over the width sweep, producing the
// paper's paired result tables.
func ppawPair(socName string, numTAMs int, labelOld, labelNew string, opt Options) ([]*report.Table, error) {
	s, err := benchmarkSOC(socName)
	if err != nil {
		return nil, err
	}
	old := &report.Table{
		Title:  fmt.Sprintf("%s: %s, exhaustive method of [8], B=%d (P_PAW)", labelOld, socName, numTAMs),
		Header: []string{"W", "TAM partition", "Core assignment", "T_old (cycles)", "t_old (s)", "optimal"},
	}
	fresh := &report.Table{
		Title:  fmt.Sprintf("%s: %s, new co-optimization method, B=%d (P_PAW)", labelNew, socName, numTAMs),
		Header: []string{"W", "TAM partition", "Core assignment", "T_new (cycles)", "t_new (s)", "dT (%)", "t_new/t_old"},
	}
	cfg := opt.cooptOptions()
	for _, w := range opt.widths() {
		if w < numTAMs {
			continue
		}
		exh, err := coopt.Exhaustive(s, w, numTAMs, cfg)
		if err != nil {
			return nil, err
		}
		old.AddRow(fmt.Sprint(w),
			report.Partition(exh.Partition),
			exh.Assignment.Vector(),
			report.Cycles(exh.Time),
			report.Seconds(exh.Elapsed),
			report.Bool(exh.AssignmentOptimal),
		)
		neu, err := coopt.PartitionEvaluate(s, w, numTAMs, cfg)
		if err != nil {
			return nil, err
		}
		fresh.AddRow(fmt.Sprint(w),
			report.Partition(neu.Partition),
			neu.Assignment.Vector(),
			report.Cycles(neu.Time),
			report.Seconds(neu.Elapsed),
			report.DeltaPercent(neu.Time, exh.Time),
			report.TimeRatio(neu.Elapsed, exh.Elapsed),
		)
	}
	return []*report.Table{old, fresh}, nil
}

// npawTable runs the full P_NPAW co-optimization over the width sweep and
// compares against the exhaustive baseline limited to refTAMs (the
// largest B the [8] method could complete on that SOC).
func npawTable(socName, label string, refTAMs int, opt Options) ([]*report.Table, error) {
	s, err := benchmarkSOC(socName)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("%s: %s, new co-optimization method (P_NPAW, B <= %d; reference: exhaustive [8] with B <= %d)",
			label, socName, opt.maxTAMs(), refTAMs),
		Header: []string{"W", "B", "TAM partition", "Core assignment",
			"T_new (cycles)", "t_new (s)", "dT (%)", "t_new/t_old"},
	}
	cfg := opt.cooptOptions()
	for _, w := range opt.widths() {
		res, err := coopt.Solve(s, w, cfg)
		if err != nil {
			return nil, err
		}
		refCfg := cfg
		refCfg.MaxTAMs = refTAMs
		refCfg.Strategy = coopt.StrategyExhaustive
		ref, err := coopt.Solve(s, w, refCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(w),
			fmt.Sprint(res.NumTAMs),
			report.Partition(res.Partition),
			res.Assignment.Vector(),
			report.Cycles(res.Time),
			report.Seconds(res.Elapsed),
			report.DeltaPercent(res.Time, ref.Time),
			report.TimeRatio(res.Elapsed, ref.Elapsed),
		)
	}
	t.AddNote("dT compares against the best exhaustive result with B <= %d, as the paper does", refTAMs)
	return []*report.Table{t}, nil
}

// rangesTable reproduces the core-data range tables (4, 8, 14).
func rangesTable(socName, label string) ([]*report.Table, error) {
	s, err := benchmarkSOC(socName)
	if err != nil {
		return nil, err
	}
	r := socdata.Summarize(s)
	t := &report.Table{
		Title: fmt.Sprintf("%s: ranges in test data for the %d cores in %s", label, len(s.Cores), socName),
		Header: []string{"Circuit (core)", "Test patterns", "Functional I/Os",
			"Scan chains", "Scan lengths min", "Scan lengths max"},
	}
	t.AddRow(fmt.Sprintf("Logic cores (%d)", r.NumLogic),
		fmt.Sprintf("%d-%d", r.LogicPatterns.Min, r.LogicPatterns.Max),
		fmt.Sprintf("%d-%d", r.LogicIO.Min, r.LogicIO.Max),
		fmt.Sprintf("%d-%d", r.LogicChains.Min, r.LogicChains.Max),
		fmt.Sprint(r.LogicChainLen.Min),
		fmt.Sprint(r.LogicChainLen.Max),
	)
	t.AddRow(fmt.Sprintf("Memory cores (%d)", r.NumMemory),
		fmt.Sprintf("%d-%d", r.MemPatterns.Min, r.MemPatterns.Max),
		fmt.Sprintf("%d-%d", r.MemIO.Min, r.MemIO.Max),
		"0", "-", "-",
	)
	t.AddNote("test complexity number: %d (SOC name target: %s)", s.TestComplexity(), s.Name)
	return []*report.Table{t}, nil
}

// Table2 is the d695 P_PAW comparison for B=2 (sub-tables a, b) and B=3
// (sub-tables c, d).
func Table2(opt Options) ([]*report.Table, error) {
	b2, err := ppawPair("d695", 2, "Table 2(a)", "Table 2(b)", opt)
	if err != nil {
		return nil, err
	}
	b3, err := ppawPair("d695", 3, "Table 2(c)", "Table 2(d)", opt)
	if err != nil {
		return nil, err
	}
	return append(b2, b3...), nil
}

// Table3 is the d695 P_NPAW sweep.
func Table3(opt Options) ([]*report.Table, error) {
	return npawTable("d695", "Table 3", 3, opt)
}

// Table4 is the p21241 core-data range table.
func Table4(Options) ([]*report.Table, error) {
	return rangesTable("p21241", "Table 4")
}

// Table5and6 is the p21241 P_PAW comparison for B=2.
func Table5and6(opt Options) ([]*report.Table, error) {
	return ppawPair("p21241", 2, "Table 5", "Table 6", opt)
}

// Table7 is the p21241 P_NPAW sweep; the paper's exhaustive reference did
// not complete beyond B=2 on this SOC.
func Table7(opt Options) ([]*report.Table, error) {
	return npawTable("p21241", "Table 7", 2, opt)
}

// Table8 is the p31108 core-data range table.
func Table8(Options) ([]*report.Table, error) {
	return rangesTable("p31108", "Table 8")
}

// Table9and10 is the p31108 P_PAW comparison for B=2.
func Table9and10(opt Options) ([]*report.Table, error) {
	return ppawPair("p31108", 2, "Table 9", "Table 10", opt)
}

// Table11and12 is the p31108 P_PAW comparison for B=3, where the
// bottleneck core floors the testing time.
func Table11and12(opt Options) ([]*report.Table, error) {
	return ppawPair("p31108", 3, "Table 11", "Table 12", opt)
}

// Table13 is the p31108 P_NPAW sweep.
func Table13(opt Options) ([]*report.Table, error) {
	return npawTable("p31108", "Table 13", 3, opt)
}

// Table14 is the p93791 core-data range table.
func Table14(Options) ([]*report.Table, error) {
	return rangesTable("p93791", "Table 14")
}

// Table15and16 is the p93791 P_PAW comparison for B=2.
func Table15and16(opt Options) ([]*report.Table, error) {
	return ppawPair("p93791", 2, "Table 15", "Table 16", opt)
}

// Table17and18 is the p93791 P_PAW comparison for B=3.
func Table17and18(opt Options) ([]*report.Table, error) {
	return ppawPair("p93791", 3, "Table 17", "Table 18", opt)
}

// Table19 is the p93791 P_NPAW sweep.
func Table19(opt Options) ([]*report.Table, error) {
	return npawTable("p93791", "Table 19", 3, opt)
}

// FloorCheck verifies the p31108 lower-bound phenomenon the paper
// discusses (Section 4.3): beyond some width the P_NPAW testing time
// stops improving because one core's wrapper staircase has bottomed out.
// It returns the flat tail value and the width at which it is reached.
// Exposed for tests and EXPERIMENTS.md.
func FloorCheck(opt Options) (floor soc.Cycles, fromWidth int, err error) {
	s, err := benchmarkSOC("p31108")
	if err != nil {
		return 0, 0, err
	}
	cfg := opt.cooptOptions()
	var last soc.Cycles
	widths := opt.widths()
	for _, w := range widths {
		res, err := coopt.Solve(s, w, cfg)
		if err != nil {
			return 0, 0, err
		}
		if last != res.Time {
			last = res.Time
			fromWidth = w
		}
	}
	return last, fromWidth, nil
}
