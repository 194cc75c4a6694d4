package coopt

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"soctam/internal/socdata"
)

// A pre-cancelled context must stop every backend with the context's
// own error and no partial result, on one worker and on the pool.
func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := socdata.D695()
	for _, workers := range []int{1, 4} {
		for _, strat := range []Strategy{StrategyPartition, StrategyPacking, StrategyDiagonal, StrategyExhaustive, StrategyILP, StrategyPortfolio} {
			_, err := SolveContext(ctx, s, 32, Options{Strategy: strat, Workers: workers})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v, %d workers: cancelled solve returned %v, want context.Canceled", strat, workers, err)
			}
		}
	}
}

// TestSolveContextCancelledMidRun cancels a pooled partition solve from its
// first improvement: the solve must return context.Canceled, and every
// worker goroutine must have exited once it has.
func TestSolveContextCancelledMidRun(t *testing.T) {
	s := socdata.D695()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Workers: 4, Progress: func(ev ProgressEvent) {
		if ev.Kind == ProgressImproved {
			cancel()
		}
	}}
	if _, err := SolveContext(ctx, s, 64, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool solve returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the cancelled solve, %d after", before, after)
	}
}

// A background context must reproduce Solve bit for bit: threading the
// context through may never change a completed run.
func TestSolveContextMatchesSolve(t *testing.T) {
	s := socdata.D695()
	for _, strat := range []Strategy{StrategyPartition, StrategyPacking, StrategyILP, StrategyPortfolio} {
		opt := Options{Strategy: strat, Workers: 1}
		a, err := Solve(s, 24, opt)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		b, err := SolveContext(context.Background(), s, 24, opt)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if a.Time != b.Time || a.NumTAMs != b.NumTAMs {
			t.Errorf("%v: SolveContext got %d cycles / %d TAMs, Solve got %d / %d",
				strat, b.Time, b.NumTAMs, a.Time, a.NumTAMs)
		}
	}
}

func TestOptionsNormalized(t *testing.T) {
	n := Options{Workers: 8, NodeLimit: -3, MaxPower: -2}.Normalized()
	if n.Workers != 0 || n.NodeLimit != 0 || n.MaxPower != 0 {
		t.Errorf("sentinels survived normalization: %+v", n)
	}
	if n.MaxTAMs != 10 {
		t.Errorf("MaxTAMs defaulted to %d, want 10", n.MaxTAMs)
	}
	// Normalizing must be idempotent and must not touch result-relevant
	// fields.
	o := Options{MaxTAMs: 4, Strategy: StrategyPacking, MaxPower: 1800, SkipFinal: true, Workers: 3}
	n = o.Normalized()
	if n.MaxTAMs != 4 || n.Strategy != StrategyPacking || n.MaxPower != 1800 || !n.SkipFinal {
		t.Errorf("normalization altered result-relevant fields: %+v", n)
	}
	// Options carries a func field now, so compare via DeepEqual (both
	// sides' Progress are nil after normalization).
	if !reflect.DeepEqual(n, n.Normalized()) {
		t.Error("Normalized is not idempotent")
	}
	// A deadline bounds how long a run may take, never what a completed
	// run computes: both forms must vanish so cache keys derived from
	// the normalized form stay deadline-independent.
	dl := Options{Deadline: time.Now(), Budget: time.Second}.Normalized()
	if !dl.Deadline.IsZero() || dl.Budget != 0 {
		t.Errorf("deadline/budget survived normalization: %+v", dl)
	}
}

// TestOptionsNormalizedPortfolio pins the subset canonicalization: the
// spelled-out default, case/space noise and subset order collapse onto
// one canonical string, non-portfolio strategies drop the field, and
// the observability hook never reaches the canonical form.
func TestOptionsNormalizedPortfolio(t *testing.T) {
	def := Options{Strategy: StrategyPortfolio}.Normalized()
	if def.Portfolio != "partition,packing,diagonal" {
		t.Errorf("default subset normalized to %q", def.Portfolio)
	}
	spelled := Options{Strategy: StrategyPortfolio, Portfolio: " Diagonal, PACKING ,partition "}.Normalized()
	if spelled.Portfolio != def.Portfolio {
		t.Errorf("spelled-out default %q != bare default %q", spelled.Portfolio, def.Portfolio)
	}
	subset := Options{Strategy: StrategyPortfolio, Portfolio: "exhaustive, partition"}.Normalized()
	if subset.Portfolio != "partition,exhaustive" {
		t.Errorf("subset normalized to %q, want registration order", subset.Portfolio)
	}
	if subset.Portfolio == def.Portfolio {
		t.Error("distinct subsets collapsed onto one canonical form")
	}
	leak := Options{Strategy: StrategyPartition, Portfolio: "partition"}.Normalized()
	if leak.Portfolio != "" {
		t.Errorf("non-portfolio strategy kept subset %q", leak.Portfolio)
	}
	hooked := Options{Progress: func(ProgressEvent) {}}.Normalized()
	if hooked.Progress != nil {
		t.Error("Progress hook survived normalization")
	}
}
