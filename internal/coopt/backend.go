package coopt

import (
	"context"
	"fmt"
	"strings"

	"soctam/internal/pack"
	"soctam/internal/soc"
)

// This file is the backend table: one row per solver engine (the
// paper's partition flow, the two rectangle packers, the exhaustive
// baseline of [8] and the ILP branch and bound), in rank order.
// Strategy.String, Solvers, ParseSpec, Solve's dispatch and the
// portfolio's subset resolution all read it. See ARCHITECTURE.md §11.

// BackendInfo describes a selectable backend: its name (the -strategy /
// API spelling), the Strategy constant it answers to and its
// capability flags.
type BackendInfo struct {
	// Name is the backend's name, the spelling ParseSpec accepts and
	// Strategy.String returns.
	Name string
	// Strategy is the Options.Strategy value that selects the backend.
	Strategy Strategy
	// Description is a one-line human-readable summary.
	Description string
	// PowerAware reports that the backend honors the peak-power ceiling
	// (Options.MaxPower or the SOC's own MaxPower).
	PowerAware bool
	// Cancellable reports that the backend polls its context and stops
	// early once it fires — the property the portfolio's consequence-free
	// cancellation builds on.
	Cancellable bool
	// Exact reports that the backend proves the optimality of what it
	// returns (and typically pays exponential time for it). Exact
	// backends are excluded from the bare "portfolio" race and join only
	// when named explicitly in a portfolio spec.
	Exact bool
	// Combinator reports that the backend races other backends rather
	// than solving itself (the portfolio entry in Solvers).
	Combinator bool
}

// engine is one row of the backend table: the BackendInfo plus the
// solve function. The solve function receives the progress sink of the
// enclosing Solve call so that one call's events — whether the engine
// runs alone or inside a portfolio race — share a single serialized
// stream. Engines must be safe for concurrent use and honor the
// contract their BackendInfo advertises (a Cancellable engine polls
// ctx; a PowerAware engine enforces the effective ceiling).
type engine struct {
	info  BackendInfo
	solve solveFunc
}

// solveFunc is an engine's entry point; runEngine frames it with the
// start and done/cancelled events.
type solveFunc func(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error)

// engines is the backend table. A row's index is its rank: the
// portfolio's tie-break order and the order Solvers lists. The first
// three ranks are the partition/packing/diagonal order the portfolio
// was introduced with, and the exact engines follow, so every earlier
// result — portfolio tie-breaks included — is reproduced bit for bit.
// A new engine is one row appended at the end, which cannot change an
// existing rank.
var engines = []engine{
	{
		info: BackendInfo{
			Name:        partitionBackendName,
			Strategy:    StrategyPartition,
			Description: "the paper's flow: TAM width partitioning with Partition_evaluate plus the exact final step",
			PowerAware:  true,
			Cancellable: true,
		},
		solve: solvePartition,
	},
	{
		info: BackendInfo{
			Name:        "packing",
			Strategy:    StrategyPacking,
			Description: "rectangle bin-packing: cores become width x time rectangles placed into the W x T bin",
			PowerAware:  true,
			Cancellable: true,
		},
		solve: packEngine(StrategyPacking, pack.PackContext),
	},
	{
		info: BackendInfo{
			Name:        "diagonal",
			Strategy:    StrategyDiagonal,
			Description: "rectangle bin-packing with the diagonal-length heuristic of arXiv:1008.4446",
			PowerAware:  true,
			Cancellable: true,
		},
		solve: packEngine(StrategyDiagonal, pack.PackDiagonalContext),
	},
	{
		info: BackendInfo{
			Name:        exhaustiveBackendName,
			Strategy:    StrategyExhaustive,
			Description: "the exact enumerate-and-solve baseline of the earlier JETTA 2002 paper [8]; exponential cost",
			PowerAware:  true,
			Cancellable: true,
			Exact:       true,
		},
		solve: solveExhaustive,
	},
	{
		info: BackendInfo{
			Name:        ilpBackendName,
			Strategy:    StrategyILP,
			Description: "exact branch-and-bound over width partitions with LP-relaxation and lower-bound pruning",
			PowerAware:  true,
			Cancellable: true,
			Exact:       true,
		},
		solve: solveILP,
	},
}

// Names of the enumerating engines, which label the improvement events
// their scan emits (no table row is in scope there), and of the
// combinator, which races rows rather than being one.
const (
	partitionBackendName  = "partition"
	exhaustiveBackendName = "exhaustive"
	ilpBackendName        = "ilp"
	portfolioName         = "portfolio"
)

// portfolioInfo is the Solvers entry for the combinator.
func portfolioInfo() BackendInfo {
	return BackendInfo{
		Name:        portfolioName,
		Strategy:    StrategyPortfolio,
		Description: "races a subset of the registered backends concurrently and returns the winner (spec: portfolio:name,name,...)",
		PowerAware:  true,
		Cancellable: true,
		Combinator:  true,
	}
}

// Solvers returns the BackendInfo of every selectable backend: the
// engines in rank order, then the portfolio combinator. The slice is
// freshly allocated; callers may keep it.
func Solvers() []BackendInfo {
	out := make([]BackendInfo, 0, len(engines)+1)
	for _, e := range engines {
		out = append(out, e.info)
	}
	return append(out, portfolioInfo())
}

// engineOf maps a strategy constant to its table row.
func engineOf(s Strategy) (*engine, bool) {
	for i := range engines {
		if engines[i].info.Strategy == s {
			return &engines[i], true
		}
	}
	return nil, false
}

// canonicalName folds a backend name to its table spelling.
func canonicalName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// ParseSpec parses a strategy spec: either a bare strategy name or a
// portfolio subset "portfolio:name,name,...". It returns the strategy
// and, for a subset spec, the canonical portfolio subset for
// Options.Portfolio (names trimmed, folded to lower case and ordered by
// rank — the canonical form Normalized produces). Names match
// case-insensitively with surrounding whitespace ignored; the error of
// an unknown name lists every valid choice.
func ParseSpec(spec string) (Strategy, string, error) {
	folded := canonicalName(spec)
	if rest, ok := strings.CutPrefix(folded, portfolioName+":"); ok {
		ranks, err := subsetRanks(rest)
		if err != nil {
			return 0, "", err
		}
		return StrategyPortfolio, subsetNames(ranks), nil
	}
	solvers := Solvers()
	valid := make([]string, len(solvers))
	for i, info := range solvers {
		if info.Name == folded {
			return info.Strategy, "", nil
		}
		valid[i] = info.Name
	}
	return 0, "", fmt.Errorf("coopt: unknown strategy %q (valid strategies: %s)", spec, strings.Join(valid, ", "))
}

// subsetRanks resolves a comma-separated portfolio subset to the ranks
// of its engines, ascending: each name is trimmed, folded and looked up
// in the table, and duplicates and unknowns are rejected, so every
// spelling of the same subset is one race (one cache entry, one
// tie-break order). An empty subset is an error — the bare "portfolio"
// strategy, not an empty spec, selects the default race.
func subsetRanks(spec string) ([]int, error) {
	picked := make([]bool, len(engines))
	for _, raw := range strings.Split(spec, ",") {
		name := canonicalName(raw)
		if name == "" {
			return nil, fmt.Errorf("coopt: empty backend name in portfolio spec %q", spec)
		}
		rank := -1
		for i := range engines {
			if engines[i].info.Name == name {
				rank = i
			}
		}
		if rank < 0 {
			valid := make([]string, len(engines))
			for i := range engines {
				valid[i] = engines[i].info.Name
			}
			return nil, fmt.Errorf("coopt: unknown backend %q in portfolio spec (registered backends: %s)",
				strings.TrimSpace(raw), strings.Join(valid, ", "))
		}
		if picked[rank] {
			return nil, fmt.Errorf("coopt: backend %q listed twice in portfolio spec", name)
		}
		picked[rank] = true
	}
	var ranks []int
	for i, p := range picked {
		if p {
			ranks = append(ranks, i)
		}
	}
	return ranks, nil
}

// raceRanks resolves Options.Portfolio to the ranks of the racing
// engines, ascending. "" is the default race: every non-exact engine.
// Exact engines pay exponential time and can change the winner on SOCs
// where the heuristics are off-optimal, so they join a race only when a
// spec names them — keeping the bare portfolio bit-for-bit identical to
// the fixed partition/packing/diagonal trio it replaced.
func raceRanks(spec string) ([]int, error) {
	if canonicalName(spec) != "" {
		return subsetRanks(spec)
	}
	var ranks []int
	for i := range engines {
		if !engines[i].info.Exact {
			ranks = append(ranks, i)
		}
	}
	return ranks, nil
}

// subsetNames spells ranks as the canonical Options.Portfolio value.
func subsetNames(ranks []int) string {
	names := make([]string, len(ranks))
	for i, rank := range ranks {
		names[i] = engines[rank].info.Name
	}
	return strings.Join(names, ",")
}
