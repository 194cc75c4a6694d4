package experiments

import (
	"fmt"
	"io"
	"sort"

	"soctam/internal/coopt"
	"soctam/internal/report"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// Options tunes experiment scale. The zero value reproduces the paper's
// parameters.
type Options struct {
	// Widths are the total TAM widths swept; nil means the paper's
	// {16, 24, 32, 40, 48, 56, 64}.
	Widths []int
	// MaxTAMs bounds B in the P_NPAW sweeps; <= 0 means 10.
	MaxTAMs int
	// NodeLimit caps each exact solve; <= 0 uses the solver default.
	NodeLimit int64
	// Workers is the partition-evaluation goroutine count passed through
	// to coopt (0 = all CPUs, 1 = the paper's sequential order). Table 1
	// always runs sequentially — its pruning statistics depend on the
	// paper's evaluation order.
	Workers int
}

func (o Options) widths() []int {
	if len(o.Widths) > 0 {
		return o.Widths
	}
	return []int{16, 24, 32, 40, 48, 56, 64}
}

func (o Options) maxTAMs() int {
	if o.MaxTAMs <= 0 {
		return 10
	}
	return o.MaxTAMs
}

func (o Options) cooptOptions() coopt.Options {
	return coopt.Options{
		MaxTAMs:   o.maxTAMs(),
		NodeLimit: o.NodeLimit,
		Workers:   o.Workers,
	}
}

// Generator produces the report tables of one experiment.
type Generator func(Options) ([]*report.Table, error)

// registry maps experiment names to generators. Keys follow the paper's
// artifact numbering; paired old/new tables share a key (e.g. table5-6).
var registry = map[string]Generator{
	"figure2":    Figure2,
	"table1":     Table1,
	"table2":     Table2,
	"table3":     Table3,
	"table4":     Table4,
	"table5-6":   Table5and6,
	"table7":     Table7,
	"table8":     Table8,
	"table9-10":  Table9and10,
	"table11-12": Table11and12,
	"table13":    Table13,
	"table14":    Table14,
	"table15-16": Table15and16,
	"table17-18": Table17and18,
	"table19":    Table19,
	"packing":    PackingVsPartition,
	"power":      PowerSweep,
	"portfolio":  PortfolioVsSingle,
	"serve":      ServeCache,
}

// Names returns the registered experiment names in order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by name.
func Run(name string, opt Options) ([]*report.Table, error) {
	gen, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return gen(opt)
}

// RunAll executes every experiment in registry order, writing rendered
// tables to w.
func RunAll(opt Options, w io.Writer) error {
	for _, name := range orderedNames() {
		tables, err := Run(name, opt)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		if _, err := fmt.Fprintf(w, "==== %s ====\n\n", name); err != nil {
			return err
		}
		if err := report.RenderAll(w, tables); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// orderedNames returns registry keys in paper order (figure first, then
// tables numerically).
func orderedNames() []string {
	return []string{
		"figure2", "table1", "table2", "table3", "table4", "table5-6",
		"table7", "table8", "table9-10", "table11-12", "table13",
		"table14", "table15-16", "table17-18", "table19", "packing",
		"power", "portfolio", "serve",
	}
}

// benchmarkSOC resolves the paper's SOCs by name (the shared
// socdata.ByName dispatch).
func benchmarkSOC(name string) (*soc.SOC, error) {
	return socdata.ByName(name)
}
