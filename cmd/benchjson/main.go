// Command benchjson is the repo's benchmark-trajectory harness: it runs
// the tier-1 benchmarks with -benchmem, records ns/op, B/op and
// allocs/op per benchmark into BENCH_solve.json at the repository root,
// and gates regressions against the last committed entry. The file is a
// history — every -update appends an entry instead of overwriting — so
// the repo carries a measurable performance trajectory across PRs
// instead of throwaway prose timings.
//
// Usage:
//
//	benchjson                  # run benches, compare vs the last entry, exit 1 on regression
//	benchjson -update -label x # run benches and append an entry labelled x
//	benchjson -print           # print the comparison table and any regressions, exit 0
//
// The gate fails on a >10% wall-time regression (tunable with
// -time-tolerance) or on any allocs/op regression beyond 0.01% of the
// recorded count: allocation counts are deterministic to that
// precision, so +1 alloc/op on a lean bench is a real code change,
// while time is noisy and gets slack. (The 0.01% slack exists for the
// 100k+-alloc ILP bench, whose count jitters by a handful with the map
// hash seed; integer arithmetic keeps every bench under 10k allocs
// gated exactly.) Because ns/op depends on the recording
// machine, every entry also stores the time of a fixed deterministic
// calibration workload measured in-process; comparisons scale the old
// entry's times by the calibration ratio, so a slower CI runner does not
// read as a code regression.
//
// Each run is two benchmark passes. The timing pass uses a time-based
// -benchtime (default 0.2s) so sub-microsecond benchmarks execute
// enough iterations for a stable ns/op — at a fixed tiny iteration
// count their timing is dominated by timer granularity and the ±10%
// gate would fire on noise. The allocation pass uses a fixed iteration
// count (default 2x) so allocs/op and B/op are bit-for-bit reproducible:
// a time-based pass varies b.N with machine speed, and one-time warm-up
// allocations would then amortize differently from run to run.
//
// Time regressions are re-measured before they fail the gate: a genuine
// slowdown reproduces on every sample, while a contention spike (a
// loaded or single-core runner) does not. Up to two extra timing passes
// re-run only the suspect benchmarks, keeping the per-benchmark minimum;
// the gate fails only if the regression survives. Allocation regressions
// are deterministic and never retried.
//
// Benchmarks are selected by -bench over -packages (defaults cover the
// root trajectory set BenchmarkSolve plus the per-package hot-path
// benches). A benchmark present in the last entry but absent from the
// run fails the gate unless -allow-missing: silently dropping a bench
// would end its trajectory unnoticed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the trajectory benchmarks: the root per-SOC ×
// per-strategy solve set, the hot-path primitive benches (the final
// exact step among them), the packers and wrapper curves on the
// synthesized 1000-core SOC, and the service's two cache-hit paths
// (library and HTTP handler).
const defaultBench = "^(BenchmarkSolve$|BenchmarkILP$|BenchmarkILPPrune$|BenchmarkCoreAssignP93791$|BenchmarkExactStepP93791$|BenchmarkTimeTableP93791$|BenchmarkDesignWrapperS38584$|BenchmarkPartitionScoring|BenchmarkSkylinePlacement|BenchmarkWrapperCurve$|BenchmarkPowerTimeline|BenchmarkObs|BenchmarkSolveCacheHit$|BenchmarkHTTPSolveHit$|BenchmarkPackSynth1000$|BenchmarkWrapperCurvesSynth1000$)"

// defaultPackages are the packages holding trajectory benchmarks.
const defaultPackages = ".,./internal/coopt,./internal/pack,./internal/wrapper,./internal/obs,./internal/serve"

func main() {
	var (
		file      = flag.String("file", "BENCH_solve.json", "trajectory file (relative to -root)")
		root      = flag.String("root", ".", "repository root")
		update    = flag.Bool("update", false, "append a new entry to the trajectory instead of gating")
		label     = flag.String("label", "local", "label of the entry written by -update")
		benchRE   = flag.String("bench", defaultBench, "benchmark selection regexp (go test -bench)")
		packages  = flag.String("packages", defaultPackages, "comma-separated packages to benchmark")
		benchtime = flag.String("benchtime", "0.2s", "go test -benchtime of the timing pass")
		count     = flag.Int("count", 3, "go test -count of the timing pass; the minimum over runs is recorded")
		alloctime = flag.String("alloc-benchtime", "2x", "go test -benchtime of the allocation pass (a fixed iteration count keeps allocs/op deterministic)")
		tol       = flag.Float64("time-tolerance", 0.10, "allowed fractional ns/op regression")
		summary   = flag.String("summary", "", "append the markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
		printOnly = flag.Bool("print", false, "print the comparison without gating")
		missing   = flag.Bool("allow-missing", false, "do not fail when a recorded benchmark is absent from the run")
	)
	flag.Parse()
	if err := run(config{
		file: *file, root: *root, update: *update, label: *label,
		bench: *benchRE, packages: strings.Split(*packages, ","),
		benchtime: *benchtime, alloctime: *alloctime, count: *count, tol: *tol,
		summary: *summary, printOnly: *printOnly, allowMissing: *missing,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

type config struct {
	file, root, label, bench, benchtime, alloctime, summary string
	packages                                                []string
	count                                                   int
	tol                                                     float64
	update, printOnly, allowMissing                         bool
}

// Measurement is one benchmark's recorded figures (minimum over -count
// runs; allocation figures are deterministic, time keeps the least-noisy
// run).
type Measurement struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Entry is one point of the trajectory: every selected benchmark's
// measurements plus the environment they were taken in.
type Entry struct {
	Label string `json:"label"`
	// Recorded is the RFC 3339 UTC timestamp of the run.
	Recorded string `json:"recorded"`
	Go       string `json:"go"`
	// CalibrationNs is the in-process time of the fixed calibration
	// workload on the recording machine; time comparisons across entries
	// scale by the calibration ratio to factor the hardware out.
	CalibrationNs float64                `json:"calibration_ns"`
	Benchmarks    map[string]Measurement `json:"benchmarks"`
}

// Trajectory is the whole BENCH_solve.json file.
type Trajectory struct {
	Schema int `json:"schema"`
	// History holds one entry per recorded run, oldest first; the gate
	// compares against the last.
	History []Entry `json:"history"`
}

func run(cfg config, out io.Writer) error {
	traj, err := load(cfg.path())
	if err != nil {
		return err
	}
	var prev *Entry
	if n := len(traj.History); n > 0 {
		prev = &traj.History[n-1]
	}
	if prev == nil && !cfg.update {
		return fmt.Errorf("%s has no recorded entries; run benchjson -update -label <label> to start the trajectory", cfg.file)
	}

	fmt.Fprintf(out, "benchjson: running %s (timing %s x%d, allocs %s)\n", cfg.bench, cfg.benchtime, cfg.count, cfg.alloctime)
	cur, err := measure(cfg, out)
	if err != nil {
		return err
	}
	if len(cur.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched %q in %v", cfg.bench, cfg.packages)
	}

	var rows []deltaRow
	var regressions []string
	if prev != nil {
		var suspects []string
		rows, regressions, suspects = compare(prev, &cur, cfg.tol, cfg.allowMissing)
		// Time is noisy — especially on loaded single-core runners —
		// while a genuine slowdown reproduces on every sample. Re-measure
		// just the suspected time regressions (twice, keeping the minimum)
		// before believing them; allocation regressions are deterministic
		// and never retried.
		for attempt := 0; attempt < 2 && len(suspects) > 0; attempt++ {
			fmt.Fprintf(out, "benchjson: re-measuring %d suspected time regression(s): %s\n",
				len(suspects), strings.Join(suspects, ", "))
			again, err := runBench(cfg, suspectRegex(suspects), cfg.benchtime, cfg.count, out)
			if err != nil {
				return err
			}
			for name, m := range again {
				if c, ok := cur.Benchmarks[name]; ok && m.NsOp < c.NsOp {
					c.NsOp = m.NsOp
					cur.Benchmarks[name] = c
				}
			}
			rows, regressions, suspects = compare(prev, &cur, cfg.tol, cfg.allowMissing)
		}
		table := renderTable(prev.Label, cur.Label, rows)
		fmt.Fprint(out, table)
		if cfg.summary != "" {
			if err := appendSummary(cfg.summary, prev.Label, cur.Label, rows, regressions); err != nil {
				return err
			}
		}
	}

	if cfg.update {
		traj.Schema = 1
		traj.History = append(traj.History, cur)
		if err := save(cfg.path(), traj); err != nil {
			return err
		}
		fmt.Fprintf(out, "benchjson: appended entry %q (%d benchmarks) to %s\n", cur.Label, len(cur.Benchmarks), cfg.file)
		return nil
	}
	if len(regressions) == 0 {
		fmt.Fprintf(out, "benchjson: no regressions vs entry %q\n", prev.Label)
		return nil
	}
	verdict := fmt.Sprintf("%d benchmark regression(s) vs entry %q:\n  %s",
		len(regressions), prev.Label, strings.Join(regressions, "\n  "))
	if !cfg.printOnly {
		return errors.New(verdict)
	}
	fmt.Fprintf(out, "benchjson: %s\n", verdict) // -print reports but does not gate
	return nil
}

func (cfg config) path() string {
	if cfg.root == "" || cfg.root == "." {
		return cfg.file
	}
	return strings.TrimSuffix(cfg.root, "/") + "/" + cfg.file
}

func load(path string) (Trajectory, error) {
	var traj Trajectory
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return traj, nil
	}
	if err != nil {
		return traj, err
	}
	if err := json.Unmarshal(raw, &traj); err != nil {
		return traj, fmt.Errorf("%s: %w", path, err)
	}
	return traj, nil
}

func save(path string, traj Trajectory) error {
	buf, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// measure runs the two benchmark passes (timing, then allocations) and
// the calibration workload, returning a complete entry: ns/op from the
// timing pass, B/op and allocs/op from the deterministic allocation
// pass.
func measure(cfg config, out io.Writer) (Entry, error) {
	timing, err := runBench(cfg, cfg.bench, cfg.benchtime, cfg.count, out)
	if err != nil {
		return Entry{}, err
	}
	allocs, err := runBench(cfg, cfg.bench, cfg.alloctime, 1, out)
	if err != nil {
		return Entry{}, err
	}
	for name, m := range timing {
		if am, ok := allocs[name]; ok {
			m.BOp, m.AllocsOp = am.BOp, am.AllocsOp
			timing[name] = m
		}
	}
	for name, am := range allocs {
		if _, ok := timing[name]; !ok {
			timing[name] = am
		}
	}
	return Entry{
		Label:         cfg.label,
		Recorded:      time.Now().UTC().Format(time.RFC3339),
		Go:            runtime.Version(),
		CalibrationNs: calibrate(),
		Benchmarks:    timing,
	}, nil
}

// runBench executes one `go test -bench` pass and parses it.
func runBench(cfg config, bench, benchtime string, count int, out io.Writer) (map[string]Measurement, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, cfg.packages...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.root
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprint(out, buf.String())
		return nil, fmt.Errorf("go test -bench failed: %w", err)
	}
	return ParseBench(buf.String())
}

// benchLine matches one `go test -bench -benchmem` result line:
// name-P, iterations, ns/op, then unit-tagged values among which B/op
// and allocs/op are extracted (custom ReportMetric columns may sit in
// between).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// unitValue matches one trailing "value unit" pair of a bench line.
var unitValue = regexp.MustCompile(`([\d.]+) (\S+)`)

// ParseBench parses `go test -bench` output into measurements keyed by
// benchmark name, qualified by package for non-root packages (e.g.
// "internal/pack:BenchmarkSkylinePlacement"). Repeated lines (-count>1)
// keep the minimum of each figure.
func ParseBench(output string) (map[string]Measurement, error) {
	res := make(map[string]Measurement)
	modulePrefix := ""
	pkg := ""
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			if modulePrefix == "" {
				// The first pkg line fixes the module path ("soctam" or
				// "soctam/internal/..."): everything before "/internal/".
				modulePrefix, _, _ = strings.Cut(rest, "/internal/")
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if sub := strings.TrimPrefix(pkg, modulePrefix); sub != "" {
			name = strings.TrimPrefix(sub, "/") + ":" + name
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q", line)
		}
		cur := Measurement{NsOp: ns, BOp: -1, AllocsOp: -1}
		for _, uv := range unitValue.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(uv[1], 64)
			if err != nil {
				continue
			}
			switch uv[2] {
			case "B/op":
				cur.BOp = int64(v)
			case "allocs/op":
				cur.AllocsOp = int64(v)
			}
		}
		if cur.BOp < 0 || cur.AllocsOp < 0 {
			return nil, fmt.Errorf("benchmark line without -benchmem figures: %q", line)
		}
		if old, ok := res[name]; ok {
			if old.NsOp < cur.NsOp {
				cur.NsOp = old.NsOp
			}
			if old.BOp < cur.BOp {
				cur.BOp = old.BOp
			}
			if old.AllocsOp < cur.AllocsOp {
				cur.AllocsOp = old.AllocsOp
			}
		}
		res[name] = cur
	}
	return res, sc.Err()
}

// calibrate times a fixed deterministic integer workload (xorshift sum
// over 1<<25 rounds), returning the best of three runs in nanoseconds.
// The workload has no allocations and no memory traffic, so its time
// tracks the core speed of the machine — the scale factor that makes
// ns/op comparable across recording environments.
func calibrate() float64 {
	best := math.MaxFloat64
	for run := 0; run < 3; run++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		var sum uint64
		for i := 0; i < 1<<25; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sum += x
		}
		elapsed := float64(time.Since(start).Nanoseconds())
		calibrationSink = sum
		if elapsed < best {
			best = elapsed
		}
	}
	return best
}

// calibrationSink keeps the calibration loop observable so the compiler
// cannot delete it.
var calibrationSink uint64

// deltaRow is one line of the comparison table.
type deltaRow struct {
	name               string
	oldNs, newNs       float64 // oldNs already calibration-scaled
	oldAllocs, nAllocs int64
	oldB, nB           int64
	status             string // "", "new", "missing"
}

// compare builds the delta rows, the list of gate failures, and the
// names of benchmarks failing only the time tolerance (candidates for
// re-measurement). Old times are scaled by the calibration ratio before
// the tolerance check.
func compare(prev, cur *Entry, tol float64, allowMissing bool) ([]deltaRow, []string, []string) {
	scale := 1.0
	if prev.CalibrationNs > 0 && cur.CalibrationNs > 0 {
		scale = cur.CalibrationNs / prev.CalibrationNs
	}
	names := make([]string, 0, len(prev.Benchmarks)+len(cur.Benchmarks))
	seen := make(map[string]bool)
	for n := range prev.Benchmarks {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur.Benchmarks {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	var rows []deltaRow
	var regressions, suspects []string
	for _, n := range names {
		old, hasOld := prev.Benchmarks[n]
		now, hasNew := cur.Benchmarks[n]
		switch {
		case !hasOld:
			rows = append(rows, deltaRow{name: n, newNs: now.NsOp, nAllocs: now.AllocsOp, nB: now.BOp, status: "new"})
		case !hasNew:
			rows = append(rows, deltaRow{name: n, oldNs: old.NsOp * scale, oldAllocs: old.AllocsOp, oldB: old.BOp, status: "missing"})
			if !allowMissing {
				regressions = append(regressions, fmt.Sprintf("%s: recorded benchmark missing from this run", n))
			}
		default:
			scaledOld := old.NsOp * scale
			rows = append(rows, deltaRow{name: n, oldNs: scaledOld, newNs: now.NsOp,
				oldAllocs: old.AllocsOp, nAllocs: now.AllocsOp, oldB: old.BOp, nB: now.BOp})
			// Any alloc increase fails, with one carve-out: counts are
			// reproducible only to ~10^-4 on the very largest benches
			// (the ILP engine's 138k allocs/op jitter by a handful with
			// the map hash seed), so increases within 0.01% of a
			// 10k+-alloc baseline are noise, not a code change. The
			// integer floor keeps every bench under 10k allocs — all
			// the zero-alloc hot-path pins included — exactly gated.
			if now.AllocsOp > old.AllocsOp+old.AllocsOp/10000 {
				regressions = append(regressions, fmt.Sprintf("%s: allocs/op %d -> %d (any increase beyond 0.01%% fails)", n, old.AllocsOp, now.AllocsOp))
			}
			if now.NsOp > scaledOld*(1+tol) {
				regressions = append(regressions, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
					n, scaledOld, now.NsOp, 100*(now.NsOp/scaledOld-1), 100*tol))
				suspects = append(suspects, n)
			}
		}
	}
	return rows, regressions, suspects
}

// suspectRegex builds a `go test -bench` selector matching only the
// given benchmarks. Names are package-qualified ("internal/pack:Bench…")
// and may carry sub-benchmark paths ("BenchmarkSolve/d695/packing");
// -bench matches the top-level function name, so both are stripped.
func suspectRegex(suspects []string) string {
	seen := make(map[string]bool)
	var tops []string
	for _, n := range suspects {
		if _, rest, ok := strings.Cut(n, ":"); ok {
			n = rest
		}
		top, _, _ := strings.Cut(n, "/")
		if !seen[top] {
			seen[top] = true
			tops = append(tops, regexp.QuoteMeta(top))
		}
	}
	sort.Strings(tops)
	return "^(" + strings.Join(tops, "|") + ")$"
}

// pct renders a relative delta benchstat-style.
func pct(old, now float64) string {
	if old == 0 {
		return "   ~   "
	}
	return fmt.Sprintf("%+6.1f%%", 100*(now/old-1))
}

// renderTable prints the benchstat-style delta table.
func renderTable(oldLabel, newLabel string, rows []deltaRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-44s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	fmt.Fprintf(&b, "%-44s %14s %14s %8s %12s %12s %8s\n",
		fmt.Sprintf("(old=%s, new=%s)", oldLabel, newLabel), "", "", "", "", "", "")
	for _, r := range rows {
		switch r.status {
		case "new":
			fmt.Fprintf(&b, "%-44s %14s %14.0f %8s %12s %12d %8s\n", r.name, "-", r.newNs, "new", "-", r.nAllocs, "new")
		case "missing":
			fmt.Fprintf(&b, "%-44s %14.0f %14s %8s %12d %12s %8s\n", r.name, r.oldNs, "-", "gone", r.oldAllocs, "-", "gone")
		default:
			fmt.Fprintf(&b, "%-44s %14.0f %14.0f %8s %12d %12d %8s\n",
				r.name, r.oldNs, r.newNs, pct(r.oldNs, r.newNs),
				r.oldAllocs, r.nAllocs, pct(float64(r.oldAllocs), float64(r.nAllocs)))
		}
	}
	return b.String()
}

// appendSummary writes the delta table as a markdown table (for a CI job
// summary) to the given file.
func appendSummary(path, oldLabel, newLabel string, rows []deltaRow, regressions []string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "### Benchmark trajectory (old=%s, new=%s)\n\n", oldLabel, newLabel)
	fmt.Fprintln(w, "| benchmark | old ns/op | new ns/op | Δ time | old allocs/op | new allocs/op | Δ allocs |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	for _, r := range rows {
		switch r.status {
		case "new":
			fmt.Fprintf(w, "| %s | – | %.0f | new | – | %d | new |\n", r.name, r.newNs, r.nAllocs)
		case "missing":
			fmt.Fprintf(w, "| %s | %.0f | – | gone | %d | – | gone |\n", r.name, r.oldNs, r.oldAllocs)
		default:
			fmt.Fprintf(w, "| %s | %.0f | %.0f | %s | %d | %d | %s |\n",
				r.name, r.oldNs, r.newNs, strings.TrimSpace(pct(r.oldNs, r.newNs)),
				r.oldAllocs, r.nAllocs, strings.TrimSpace(pct(float64(r.oldAllocs), float64(r.nAllocs))))
		}
	}
	fmt.Fprintln(w)
	if len(regressions) > 0 {
		fmt.Fprintf(w, "**%d regression(s):**\n\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(w, "- %s\n", r)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "No regressions.")
	}
	return w.Flush()
}
