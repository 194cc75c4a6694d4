package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to the directory
// holding go.mod, so the test runs identically under `go test ./...`
// from anywhere inside the repository.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// TestSurfaceMatchesSnapshot is the in-process form of the CI gate:
// `go test ./...` fails when the root package's exported API drifts
// from api/soctam.api without a snapshot update.
func TestSurfaceMatchesSnapshot(t *testing.T) {
	root := repoRoot(t)
	surface, err := Surface(root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(root, snapshotPath))
	if err != nil {
		t.Fatalf("%v (run `go run ./cmd/apidiff -update` from the repo root)", err)
	}
	if diff := Diff(string(want), surface); diff != "" {
		t.Errorf("public API surface drifted from %s:\n%s\nregenerate with `go run ./cmd/apidiff -update`",
			snapshotPath, diff)
	}
}

// TestSurfaceListsRedesignEntryPoints spot-checks that the rendered
// surface carries the API this redesign introduced — the gate is only
// worth its CI minutes if the surface actually covers the registry.
func TestSurfaceListsRedesignEntryPoints(t *testing.T) {
	surface, err := Surface(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BackendInfo = coopt.BackendInfo",
		"func Solvers() []BackendInfo",
		"func ParseStrategySpec(spec string) (Strategy, string, error)",
		"func SolveContext(ctx context.Context, s *SOC, totalWidth int, opt Options) (Result, error)",
		"func CoOptimizeFixedTAMs(s *SOC, totalWidth, numTAMs int, opt Options) (Result, error)",
		"StrategyExhaustive = coopt.StrategyExhaustive",
		"ProgressEvent = coopt.ProgressEvent",
	} {
		if !strings.Contains(surface, want) {
			t.Errorf("surface does not list %q", want)
		}
	}
}

// TestDiff exercises the minimal diff renderer.
func TestDiff(t *testing.T) {
	if Diff("a\nb\n", "a\nb\n") != "" {
		t.Error("identical inputs diffed")
	}
	d := Diff("a\nold\n", "a\nnew\n")
	if !strings.Contains(d, "- old") || !strings.Contains(d, "+ new") {
		t.Errorf("diff %q missing removal/addition", d)
	}
}
