package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: soctam
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolve/d695/partition         	       2	   1072343 ns/op	     21566 cycles	  313984 B/op	    5168 allocs/op
BenchmarkSolve/d695/partition         	       2	   1002343 ns/op	     21566 cycles	  313984 B/op	    5170 allocs/op
BenchmarkSolve/d695/packing           	       2	   1561972 ns/op	     21616 cycles	  173040 B/op	    1202 allocs/op
PASS
ok  	soctam	0.016s
pkg: soctam/internal/pack
BenchmarkSkylinePlacement             	    1000	      1500 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	soctam/internal/pack	0.5s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	part, ok := got["BenchmarkSolve/d695/partition"]
	if !ok {
		t.Fatalf("root bench not parsed; keys: %v", keys(got))
	}
	// -count repeats keep the minimum of every figure independently.
	if part.NsOp != 1002343 || part.AllocsOp != 5168 || part.BOp != 313984 {
		t.Errorf("partition = %+v, want min ns 1002343, min allocs 5168", part)
	}
	sky, ok := got["internal/pack:BenchmarkSkylinePlacement"]
	if !ok {
		t.Fatalf("package-qualified bench not parsed; keys: %v", keys(got))
	}
	if sky.AllocsOp != 0 || sky.NsOp != 1500 {
		t.Errorf("skyline = %+v", sky)
	}
	if _, ok := got["BenchmarkSkylinePlacement"]; ok {
		t.Error("non-root bench leaked in unqualified")
	}
}

func TestParseBenchRejectsMissingBenchmem(t *testing.T) {
	if _, err := ParseBench("pkg: soctam\nBenchmarkX-8   10   100 ns/op\n"); err == nil {
		t.Error("want error for a line without -benchmem figures")
	}
}

func keys(m map[string]Measurement) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestCompareGates(t *testing.T) {
	prev := &Entry{
		Label:         "seed",
		CalibrationNs: 100,
		Benchmarks: map[string]Measurement{
			"A": {NsOp: 1000, BOp: 100, AllocsOp: 10},
			"B": {NsOp: 1000, BOp: 100, AllocsOp: 10},
			"C": {NsOp: 1000, BOp: 100, AllocsOp: 10},
		},
	}
	// The current machine's calibration is 2x slower, so 1900 ns against
	// a scaled old of 2000 ns is NOT a regression; allocs gate strictly.
	cur := &Entry{
		Label:         "pr",
		CalibrationNs: 200,
		Benchmarks: map[string]Measurement{
			"A": {NsOp: 1900, BOp: 100, AllocsOp: 10},
			"B": {NsOp: 1000, BOp: 100, AllocsOp: 11},
			"D": {NsOp: 5, BOp: 0, AllocsOp: 0},
		},
	}
	rows, regressions, suspects := compare(prev, cur, 0.10, false)
	if len(suspects) != 0 {
		t.Errorf("suspects = %v, want none (no time regression yet)", suspects)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// Exactly two gate failures: B's alloc bump and C's disappearance.
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want exactly 2 (allocs on B, missing C)", regressions)
	}
	joined := strings.Join(regressions, "\n")
	if !strings.Contains(joined, "B: allocs/op 10 -> 11") {
		t.Errorf("missing alloc regression for B: %v", regressions)
	}
	if !strings.Contains(joined, "C: recorded benchmark missing") {
		t.Errorf("missing 'gone bench' failure for C: %v", regressions)
	}
	// allow-missing waives only the disappearance.
	if _, r, _ := compare(prev, cur, 0.10, true); len(r) != 1 {
		t.Errorf("allow-missing: regressions = %v, want only B's", r)
	}
	// A genuine time regression beyond tolerance fails and is flagged for
	// re-measurement.
	cur.Benchmarks["A"] = Measurement{NsOp: 2300, BOp: 100, AllocsOp: 10}
	_, r, sus := compare(prev, cur, 0.10, true)
	if len(r) != 2 {
		t.Errorf("time regression not caught: %v", r)
	}
	if len(sus) != 1 || sus[0] != "A" {
		t.Errorf("suspects = %v, want [A]", sus)
	}
}

func TestSuspectRegex(t *testing.T) {
	got := suspectRegex([]string{
		"BenchmarkSolve/d695/packing",
		"BenchmarkSolve/p93791/portfolio",
		"internal/pack:BenchmarkSkylinePlacement",
	})
	want := "^(BenchmarkSkylinePlacement|BenchmarkSolve)$"
	if got != want {
		t.Errorf("suspectRegex = %q, want %q", got, want)
	}
}

func TestRenderTable(t *testing.T) {
	rows := []deltaRow{
		{name: "A", oldNs: 1000, newNs: 500, oldAllocs: 10, nAllocs: 5, oldB: 1, nB: 1},
		{name: "D", newNs: 5, status: "new"},
	}
	out := renderTable("seed", "pr", rows)
	if !strings.Contains(out, "-50.0%") {
		t.Errorf("table lacks the -50%% delta:\n%s", out)
	}
	if !strings.Contains(out, "new") {
		t.Errorf("table lacks the new-bench marker:\n%s", out)
	}
}

// TestPrintReportsRegressions runs benchjson -print over a throwaway
// module whose one benchmark allocates, against a recorded entry that
// says it does not. The run must name the regression, not claim there
// is none, and still succeed: -print reports without gating.
func TestPrintReportsRegressions(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module benchfixture\n\ngo 1.24\n",
		"fixture_test.go": `package benchfixture

import "testing"

var sink []byte

func BenchmarkAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = make([]byte, 64)
	}
}
`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recorded := Trajectory{Schema: 1, History: []Entry{{
		Label:      "base",
		Benchmarks: map[string]Measurement{"BenchmarkAlloc": {NsOp: 1e9}},
	}}}
	if err := save(filepath.Join(dir, "BENCH_solve.json"), recorded); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(config{
		file: "BENCH_solve.json", root: dir, label: "now", bench: "^BenchmarkAlloc$",
		packages: []string{"."}, benchtime: "100x", alloctime: "2x", count: 1, tol: 0.10,
		printOnly: true,
	}, &out)
	if err != nil {
		t.Fatalf("-print failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "no regressions") {
		t.Errorf("-print claimed no regressions over a table that has one:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `1 benchmark regression(s) vs entry "base"`) ||
		!strings.Contains(out.String(), "BenchmarkAlloc: allocs/op 0 -> 1") {
		t.Errorf("-print did not name the regression:\n%s", out.String())
	}
}
