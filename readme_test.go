package soctam_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"soctam"
)

// TestReadmeStrategyTableMatchesSolvers keeps the README's "Choosing a
// strategy" table honest: one row per Solvers() entry, in registration
// order, with the capability columns agreeing with the registry flags.
// Registering a new backend without regenerating the table fails here.
func TestReadmeStrategyTableMatchesSolvers(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	var rows []string
	inTable := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "| Backend |"):
			inTable = true
		case inTable && strings.HasPrefix(line, "|--"), inTable && strings.HasPrefix(line, "|--- "), inTable && strings.HasPrefix(line, "|---"):
			// separator row
		case inTable && strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		case inTable:
			inTable = false
		}
	}
	infos := soctam.Solvers()
	if len(rows) != len(infos) {
		t.Fatalf("README strategy table has %d rows, Solvers() lists %d backends", len(rows), len(infos))
	}
	yes := func(cell string) bool { return strings.Contains(strings.ToLower(cell), "yes") }
	for i, info := range infos {
		cells := strings.Split(rows[i], "|")
		// Leading/trailing empty cells from the outer pipes.
		if len(cells) < 7 {
			t.Errorf("row %d malformed: %q", i, rows[i])
			continue
		}
		name, power, cancel, exact := cells[1], cells[2], cells[3], cells[4]
		if !strings.Contains(name, fmt.Sprintf("`%s`", info.Name)) {
			t.Errorf("row %d names %s, registry has %q (registration order)", i, name, info.Name)
		}
		if yes(power) != info.PowerAware || yes(cancel) != info.Cancellable || yes(exact) != info.Exact {
			t.Errorf("row %q flags disagree with registry %+v", rows[i], info)
		}
	}
}

// TestReadmeMentionsEveryStrategyName is the coarse net under the table
// test: every selectable name (and the spec syntax) appears somewhere
// in the README.
func TestReadmeMentionsEveryStrategyName(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, info := range soctam.Solvers() {
		if !strings.Contains(text, "`"+info.Name+"`") {
			t.Errorf("README never mentions strategy `%s`", info.Name)
		}
	}
	if !strings.Contains(text, "portfolio:") {
		t.Error("README never shows the portfolio subset spec syntax")
	}
}

// TestReadmeFlagTablesMatchCLIs keeps the README's wtam/wtamd/loadgen
// flag tables honest against the commands' actual flag sets: every
// flag a binary defines must appear as a `-name` in the README, so
// adding a flag without documenting it fails here.
func TestReadmeFlagTablesMatchCLIs(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	flagDef := regexp.MustCompile(`flags\.(?:String|Int|Int64|Bool|Duration|Float64)\("([^"]+)"`)
	for _, cmd := range []string{"wtam", "wtamd", "loadgen"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		matches := flagDef.FindAllStringSubmatch(string(src), -1)
		if len(matches) == 0 {
			t.Fatalf("no flag definitions found in cmd/%s/main.go (did the definition idiom change?)", cmd)
		}
		for _, m := range matches {
			if !strings.Contains(readme, "`-"+m[1]) {
				t.Errorf("cmd/%s flag -%s is missing from the README flag tables", cmd, m[1])
			}
		}
	}
}
