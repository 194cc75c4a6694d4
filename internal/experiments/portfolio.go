package experiments

import (
	"fmt"

	"soctam/internal/coopt"
	"soctam/internal/report"
)

// raceableBackends returns the engines the bare portfolio races — every
// non-exact, non-combinator backend, in rank (tie-break) order. The
// experiment derives its columns from Solvers so a heuristic added to
// the backend table joins the comparison without touching this file.
func raceableBackends() []coopt.BackendInfo {
	var out []coopt.BackendInfo
	for _, info := range coopt.Solvers() {
		if !info.Exact && !info.Combinator {
			out = append(out, info)
		}
	}
	return out
}

// PortfolioVsSingle compares the portfolio racer against every single
// backend on each benchmark SOC over the width sweep: the race must
// return the best single-backend time (the portfolio invariant), and
// the interesting question is which backend wins where and what the
// race costs in wall clock against running the backends one after
// another. This experiment has no counterpart in the source paper — it
// quantifies the multi-backend scenario the ROADMAP's north star asks
// for. The racing set comes from the backend table, so the tables grow
// a column per heuristic added to it.
func PortfolioVsSingle(opt Options) ([]*report.Table, error) {
	cfg := opt.cooptOptions()
	backends := raceableBackends()
	var tables []*report.Table
	for _, name := range []string{"d695", "p21241", "p31108", "p93791"} {
		s, err := benchmarkSOC(name)
		if err != nil {
			return nil, err
		}
		header := []string{"W"}
		for _, b := range backends {
			header = append(header, "T_"+b.Name)
		}
		header = append(header, "T_portfolio", "winner", "t_serial (s)", "t_race (s)")
		t := &report.Table{
			Title: fmt.Sprintf("Portfolio vs single backends: %s, best-of-%d race with incumbent cancellation",
				name, len(backends)),
			Header: header,
		}
		for _, w := range opt.widths() {
			times := make([]string, len(backends))
			var serial float64
			for i, b := range backends {
				c := cfg
				c.Strategy = b.Strategy
				res, err := coopt.Solve(s, w, c)
				if err != nil {
					return nil, err
				}
				times[i] = report.Cycles(res.Time)
				serial += res.Elapsed.Seconds()
			}
			c := cfg
			c.Strategy = coopt.StrategyPortfolio
			race, err := coopt.Solve(s, w, c)
			if err != nil {
				return nil, err
			}
			row := append([]string{fmt.Sprint(w)}, times...)
			row = append(row,
				report.Cycles(race.Time),
				race.Strategy.String(),
				fmt.Sprintf("%.3f", serial),
				fmt.Sprintf("%.3f", race.Elapsed.Seconds()),
			)
			t.AddRow(row...)
		}
		t.AddNote("T_portfolio is always the minimum of the single-backend times; ties go to the earlier-registered backend")
		t.AddNote("t_serial sums the standalone runs; t_race is the concurrent portfolio wall clock")
		tables = append(tables, t)
	}
	return tables, nil
}
