package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownStrategyListsValidNames pins the fix for the bare
// -strategy error: an unknown value must name every valid strategy.
func TestUnknownStrategyListsValidNames(t *testing.T) {
	err := run([]string{"-benchmark", "d695", "-strategy", "simulated-annealing"})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, want := range []string{"partition", "packing", "diagonal", "portfolio", "simulated-annealing"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestHelpAndParseErrors pins the FlagSet behaviour: -h is success
// (usage printed, no error), a malformed flag is the already-reported
// sentinel so main does not print it twice.
func TestHelpAndParseErrors(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if err := run([]string{"-width", "abc"}); !errors.Is(err, errBadFlags) {
		t.Errorf("run(-width abc) = %v, want errBadFlags", err)
	}
	if err := run([]string{"-no-such-flag"}); !errors.Is(err, errBadFlags) {
		t.Errorf("run(-no-such-flag) = %v, want errBadFlags", err)
	}
}

// TestTracePrintsSpanTree runs a real solve with -trace and -progress
// and asserts the span tree lands on stderr: a trace header named after
// the benchmark, a root span and the solve's strategy attribute. The
// default path runs through Solve, so the partition backend is framed
// like every other: its span closes with the final time instead of
// rendering as still open, and -progress prints its start and finish.
func TestTracePrintsSpanTree(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-benchmark", "d695", "-width", "16", "-trace", "-progress"})
	os.Stderr = orig
	w.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\nstderr:\n%s", runErr, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"trace d695", "solve", "strategy=partition",
		"partition  started", "partition  finished: 42787 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(open)") {
		t.Errorf("trace left a span open:\n%s", out)
	}
	closed := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "partition [") {
			closed = strings.HasSuffix(line, "time=42787")
		}
	}
	if !closed {
		t.Errorf("partition span does not close with time=42787:\n%s", out)
	}
}

// TestPrintsGapAndProven runs a fixed-TAM and a packing strategy and
// requires both reports to carry the gap and the proof bit. Under the
// ceiling the ILP engine drops partitions for power, so its answer is
// not proven optimal although its assignment is.
func TestPrintsGapAndProven(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-benchmark", "d695", "-width", "32", "-strategy", "ilp", "-max-power", "1800"},
			[]string{"testing time:     41291 cycles", "assignment:       proven optimal for the chosen partition",
				"gap:              99.40% above the lower bound", "proven optimal:   false"}},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "packing"},
			[]string{"lower bound:", "gap:", "proven optimal:"}},
	} {
		out := runStdout(t, tc.args...)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("run(%v) output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// TestStatsNoteFollowsReportedEngine pins that the "split varies" note
// describes the engine whose Stats are printed: a portfolio race won by
// the sequential ILP engine reports ILP's deterministic counts with no
// note, even with the partition racer on a two-worker pool, while the
// partition flow on that pool keeps the note.
func TestStatsNoteFollowsReportedEngine(t *testing.T) {
	const note = "split varies"
	race := runStdout(t, "-benchmark", "d695", "-width", "32", "-strategy", "portfolio:partition,ilp", "-workers", "2")
	if !strings.Contains(race, "* ilp") || strings.Contains(race, note) {
		t.Errorf("ILP-won race must print ILP's stats without %q:\n%s", note, race)
	}
	if alone := runStdout(t, "-benchmark", "d695", "-width", "32", "-workers", "2"); !strings.Contains(alone, note) {
		t.Errorf("partition flow on two workers lost %q:\n%s", note, alone)
	}
}

// TestGanttDrawsWireBands runs -gantt on d695/W=32 with the default
// strategy and with packing: both schedules print as one row per wire
// with a makespan line equal to the testing time, and the partition
// flow's schedule keeps 98.2% of its wire-cycles busy.
func TestGanttDrawsWireBands(t *testing.T) {
	for _, tc := range []struct {
		args []string
		busy string
	}{
		{[]string{"-benchmark", "d695", "-width", "32", "-gantt"}, "wire-cycles:      98.2% busy"},
		{[]string{"-benchmark", "d695", "-width", "32", "-gantt", "-strategy", "packing"}, "% busy"},
	} {
		out := runStdout(t, tc.args...)
		var cycles int
		for _, line := range strings.Split(out, "\n") {
			fmt.Sscanf(line, "testing time: %d cycles", &cycles)
		}
		for _, want := range []string{"wire  0 |", "wire 31 |", fmt.Sprintf("makespan: %d cycles", cycles), tc.busy} {
			if cycles == 0 || !strings.Contains(out, want) {
				t.Errorf("run(%v) output missing %q:\n%s", tc.args, want, out)
			}
		}
	}
}

// runStdout runs the command with args and returns what it printed to
// stdout, failing the test on an error.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = orig
	w.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return sb.String()
}

// TestStrategyFlagCompatibility checks the per-strategy flag rejection:
// partition-only flags fail fast with the packers and the portfolio,
// and -tams fixes B only for the partition and exhaustive strategies.
func TestStrategyFlagCompatibility(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // flag the error must name; "" = must succeed
	}{
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "packing", "-tams", "3"}, "-tams"},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "diagonal", "-workers", "2"}, "-workers"},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "portfolio", "-tams", "2"}, "-tams"},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "portfolio", "-workers", "2", "-max-tams", "4"}, ""},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "diagonal"}, ""},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "exhaustive", "-tams", "2"}, ""},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "exhaustive", "-workers", "2"}, "-workers"},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "ilp", "-tams", "2"}, "-tams"},
		{[]string{"-benchmark", "d695", "-width", "12", "-tams", "2", "-workers", "2"}, ""},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "exhaustive", "-max-tams", "3"}, ""},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "portfolio:partition,exhaustive"}, ""},
		{[]string{"-benchmark", "d695", "-width", "12", "-strategy", "portfolio:packing,diagonal", "-progress"}, ""},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", " PACKING "}, ""},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "portfolio:partition,partition"}, "twice"},
		{[]string{"-benchmark", "d695", "-width", "16", "-strategy", "portfolio:warp-drive"}, "unknown backend"},
	} {
		err := run(tc.args)
		if tc.bad == "" {
			if err != nil {
				t.Errorf("run(%v): unexpected error %v", tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("run(%v): error %v does not reject %s", tc.args, err, tc.bad)
		}
	}
}

func TestLoadSOCValidation(t *testing.T) {
	if _, err := loadSOC("", ""); err == nil {
		t.Error("neither -soc nor -benchmark accepted")
	}
	if _, err := loadSOC("x.soc", "d695"); err == nil {
		t.Error("both -soc and -benchmark accepted")
	}
	if _, err := loadSOC("", "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := loadSOC("/does/not/exist.soc", ""); err == nil {
		t.Error("missing file accepted")
	}
	for _, name := range []string{"d695", "p21241", "p31108", "p93791"} {
		s, err := loadSOC("", name)
		if err != nil {
			t.Errorf("benchmark %s: %v", name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("benchmark %s invalid: %v", name, err)
		}
	}
}

func TestLoadSOCFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chip.soc")
	text := "soc chip\ncore a inputs 4 outputs 4 patterns 10 scan 8 8\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := loadSOC(path, "")
	if err != nil {
		t.Fatalf("loadSOC: %v", err)
	}
	if s.Name != "chip" || len(s.Cores) != 1 {
		t.Errorf("parsed %q with %d cores", s.Name, len(s.Cores))
	}
	// Malformed file must fail.
	bad := filepath.Join(dir, "bad.soc")
	if err := os.WriteFile(bad, []byte("core before soc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSOC(bad, ""); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestPartitionString(t *testing.T) {
	if got := partitionString([]int{9, 16, 23}); got != "9+16+23" {
		t.Errorf("partitionString = %q", got)
	}
	if got := partitionString(nil); got != "" {
		t.Errorf("partitionString(nil) = %q", got)
	}
}
