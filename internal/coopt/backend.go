package coopt

import (
	"context"
	"fmt"
	"strings"

	"soctam/internal/pack"
	"soctam/internal/soc"
)

// This file is the solver-engine registry: the seam that makes the set
// of co-optimization backends open. Each engine (the paper's partition
// flow, the two rectangle packers, the exhaustive baseline of [8], and
// any future heuristic) registers a name, capability flags and a solve
// entry point; ParseStrategy, StrategyNames, Solve's dispatch and the
// portfolio combinator are all lookups over the registry, so adding an
// engine is one register call — not surgery across coopt, serve and the
// commands. See ARCHITECTURE.md §11.

// BackendInfo describes a registered backend: its name (the -strategy /
// API spelling) and its capability flags.
type BackendInfo struct {
	// Name is the backend's registered name, the spelling ParseStrategy
	// accepts and Strategy.String returns.
	Name string
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

// engine is a registered backend: the BackendInfo plus the strategy
// constant it answers to and its solve function. The solve function
// receives the progress sink of the enclosing Solve call so that one
// call's events — whether the engine runs alone or inside a portfolio
// race — share a single serialized stream. Engines must be safe for
// concurrent use and honor the contract their BackendInfo advertises (a
// Cancellable engine polls ctx; a PowerAware engine enforces the
// effective ceiling).
type engine struct {
	info     BackendInfo
	strategy Strategy
	solve    solveFunc
}

// solveFunc is a registered engine's entry point; SolveContext frames
// it with the start and done/cancelled events.
type solveFunc func(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink) (Result, error)

// registry holds the registered engines in registration order — the
// order that fixes the portfolio's tie-break ranks and the StrategyNames
// listing, so registering a new engine after the existing ones can never
// change an existing result.
var registry []*engine

// register appends an engine to the registry under the given strategy
// constant and returns it. It panics on a duplicate name or strategy:
// registration happens at init time and a collision is a programming
// error, not a runtime condition.
func register(info BackendInfo, strategy Strategy, solve solveFunc) *engine {
	name := canonicalName(info.Name)
	if name == "" || name == portfolioName || strings.ContainsAny(name, ":, \t") {
		panic(fmt.Sprintf("coopt: invalid backend name %q", info.Name))
	}
	for _, e := range registry {
		if e.info.Name == name || e.strategy == strategy {
			panic(fmt.Sprintf("coopt: duplicate backend registration %q / %v", info.Name, strategy))
		}
	}
	if strategy == StrategyPortfolio {
		panic("coopt: the portfolio strategy is a combinator, not a registrable engine")
	}
	info.Name = name
	e := &engine{info: info, strategy: strategy, solve: solve}
	registry = append(registry, e)
	return e
}

// The built-in engines, in the registration order that PR 3 fixed as
// the portfolio tie-break order (partition, packing, diagonal) with the
// exhaustive baseline of [8] appended last — so every pre-registry
// result is reproduced bit for bit.
func init() {
	register(BackendInfo{
		Name:        partitionBackendName,
		Description: "the paper's flow: TAM width partitioning with Partition_evaluate plus the exact final step",
		PowerAware:  true,
		Cancellable: true,
	}, StrategyPartition, solvePartition)
	register(BackendInfo{
		Name:        "packing",
		Description: "rectangle bin-packing: cores become width x time rectangles placed into the W x T bin",
		PowerAware:  true,
		Cancellable: true,
	}, StrategyPacking, packEngine(StrategyPacking, pack.PackContext))
	register(BackendInfo{
		Name:        "diagonal",
		Description: "rectangle bin-packing with the diagonal-length heuristic of arXiv:1008.4446",
		PowerAware:  true,
		Cancellable: true,
	}, StrategyDiagonal, packEngine(StrategyDiagonal, pack.PackDiagonalContext))
	register(BackendInfo{
		Name:        exhaustiveBackendName,
		Description: "the exact enumerate-and-solve baseline of the earlier JETTA 2002 paper [8]; exponential cost",
		PowerAware:  true,
		Cancellable: true,
		Exact:       true,
	}, StrategyExhaustive, solveExhaustive)
}

// portfolioName is the reserved name of the combinator; it lives outside
// the engine registry because it races engines rather than solving.
const portfolioName = "portfolio"

// Registered names of the engines that emit their own incumbent
// improvements (the enumerating engines label the events their scan
// emits, where no engine value is in scope).
const (
	partitionBackendName  = "partition"
	exhaustiveBackendName = "exhaustive"
)

// portfolioInfo is the Solvers entry for the combinator.
func portfolioInfo() BackendInfo {
	return BackendInfo{
		Name:        portfolioName,
		Description: "races a subset of the registered backends concurrently and returns the winner (spec: portfolio:name,name,...)",
		PowerAware:  true,
		Cancellable: true,
		Combinator:  true,
	}
}

// Solvers returns the BackendInfo of every selectable backend: the
// registered engines in registration order, then the portfolio
// combinator. The slice is freshly allocated; callers may keep it.
func Solvers() []BackendInfo {
	out := make([]BackendInfo, 0, len(registry)+1)
	for _, e := range registry {
		out = append(out, e.info)
	}
	return append(out, portfolioInfo())
}

func lookupEngine(name string) (*engine, bool) {
	name = canonicalName(name)
	for _, e := range registry {
		if e.info.Name == name {
			return e, true
		}
	}
	return nil, false
}

// engineOf maps a strategy constant back to its registered engine.
func engineOf(s Strategy) (*engine, bool) {
	for _, e := range registry {
		if e.strategy == s {
			return e, true
		}
	}
	return nil, false
}

// rankOf is a backend's fixed tie-break rank in a portfolio race: its
// registration index. Lower rank wins ties, whatever subset races and
// whatever order the spec listed it in.
func rankOf(target *engine) int {
	for i, e := range registry {
		if e == target {
			return i
		}
	}
	return len(registry) // unreachable for registered engines
}

// canonicalName folds a backend name to its registered spelling.
func canonicalName(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// StrategyNames returns the names ParseStrategy accepts: the registered
// engines in registration order (the portfolio's fixed tie-break
// order), then "portfolio".
func StrategyNames() []string {
	out := make([]string, 0, len(registry)+1)
	for _, e := range registry {
		out = append(out, e.info.Name)
	}
	return append(out, portfolioName)
}

// ParseStrategy maps a strategy name to its constant, trimming
// whitespace and matching case-insensitively. The error of an unknown
// name lists every valid choice. Portfolio subset specs
// ("portfolio:a,b") are ParseSpec's business; this accepts bare names
// only.
func ParseStrategy(name string) (Strategy, error) {
	folded := canonicalName(name)
	if folded == portfolioName {
		return StrategyPortfolio, nil
	}
	if e, ok := lookupEngine(folded); ok {
		return e.strategy, nil
	}
	if strings.HasPrefix(folded, portfolioName+":") {
		return 0, fmt.Errorf("coopt: %q is a portfolio spec, not a strategy name (use ParseSpec)", name)
	}
	return 0, fmt.Errorf("coopt: unknown strategy %q (valid strategies: %s)",
		name, strings.Join(StrategyNames(), ", "))
}

// ParseSpec parses a strategy spec: either a bare strategy name or a
// portfolio subset "portfolio:name,name,...". It returns the strategy
// and, for a subset spec, the canonical portfolio subset for
// Options.Portfolio (names trimmed, folded to lower case and ordered by
// registration rank — the canonical form Normalized produces). Names
// match case-insensitively with surrounding whitespace ignored.
func ParseSpec(spec string) (Strategy, string, error) {
	folded := canonicalName(spec)
	rest, ok := strings.CutPrefix(folded, portfolioName+":")
	if !ok {
		strat, err := ParseStrategy(spec)
		return strat, "", err
	}
	subset, err := canonicalSubset(rest)
	if err != nil {
		return 0, "", err
	}
	return StrategyPortfolio, subset, nil
}

// canonicalSubset canonicalizes a comma-separated portfolio subset:
// trim and fold each name, resolve it in the registry, reject
// duplicates and unknowns, and re-order by registration rank so that
// every spelling of the same subset is one string (one cache entry, one
// tie-break order). An empty subset is an error — the bare "portfolio"
// strategy, not an empty spec, selects the default race.
func canonicalSubset(spec string) (string, error) {
	names := strings.Split(spec, ",")
	seen := make(map[string]bool, len(names))
	picked := make([]bool, len(registry))
	for _, raw := range names {
		name := canonicalName(raw)
		if name == "" {
			return "", fmt.Errorf("coopt: empty backend name in portfolio spec %q", spec)
		}
		e, ok := lookupEngine(name)
		if !ok {
			valid := make([]string, 0, len(registry))
			for _, e := range registry {
				valid = append(valid, e.info.Name)
			}
			return "", fmt.Errorf("coopt: unknown backend %q in portfolio spec (registered backends: %s)",
				strings.TrimSpace(raw), strings.Join(valid, ", "))
		}
		if seen[name] {
			return "", fmt.Errorf("coopt: backend %q listed twice in portfolio spec", name)
		}
		seen[name] = true
		picked[rankOf(e)] = true
	}
	var out []string
	for i, e := range registry {
		if picked[i] {
			out = append(out, e.info.Name)
		}
	}
	return strings.Join(out, ","), nil
}

// defaultSubset is the race the bare "portfolio" strategy runs: every
// registered non-exact engine, in registration order. Exact engines
// (the exhaustive baseline) pay exponential time and can change the
// winner on SOCs where the heuristics are off-optimal, so they join a
// race only when a spec names them — keeping the bare portfolio
// bit-for-bit identical to the fixed partition/packing/diagonal trio it
// replaced.
func defaultSubset() []*engine {
	var out []*engine
	for _, e := range registry {
		if !e.info.Exact {
			out = append(out, e)
		}
	}
	return out
}

// resolveSubset turns a canonical-or-raw Options.Portfolio value into
// the racing engines in registration order ("" = the default subset).
func resolveSubset(spec string) ([]*engine, error) {
	if canonicalName(spec) == "" {
		return defaultSubset(), nil
	}
	canon, err := canonicalSubset(spec)
	if err != nil {
		return nil, err
	}
	var out []*engine
	for _, name := range strings.Split(canon, ",") {
		e, _ := lookupEngine(name)
		out = append(out, e)
	}
	return out, nil
}
