package coopt

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// The server's one solve call records the soctam_solver_* families from
// what a solve hands back: Options.Progress events while it runs and
// the Result on return. The TestSolveObserved* tests pin that contract
// on coopt's side, the one observation seam it keeps.

// observe runs one solve on testSOC at width 16 with a hook that keeps
// every event, forwarding each to any hook opt already carries.
func observe(opt Options) (Result, []ProgressEvent, error) {
	var evs []ProgressEvent
	caller := opt.Progress
	opt.Progress = func(ev ProgressEvent) {
		evs = append(evs, ev)
		if caller != nil {
			caller(ev)
		}
	}
	res, err := SolveContext(context.Background(), testSOC(), 16, opt)
	return res, evs, err
}

// TestSolveObservedRecordsMetrics checks an observed solve carries
// every figure a metrics observer books: one start and one done for the
// backend the result names, as many improvements as Stats.Improved with
// strictly falling times, and a done time equal to the result's.
func TestSolveObservedRecordsMetrics(t *testing.T) {
	res, evs, err := observe(Options{})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	backend := res.Strategy.String()
	count := map[ProgressKind]int{}
	var last ProgressEvent
	for _, ev := range evs {
		if ev.Backend != backend {
			t.Errorf("%s event from backend %q, want %q", ev.Kind, ev.Backend, backend)
		}
		count[ev.Kind]++
		if ev.Kind == ProgressImproved {
			if last.Kind == ProgressImproved && ev.Time >= last.Time {
				t.Errorf("incumbent %d after %d: times must strictly fall", ev.Time, last.Time)
			}
			if ev.Time < res.Time {
				t.Errorf("incumbent %d below the returned time %d", ev.Time, res.Time)
			}
		}
		last = ev
	}
	if count[ProgressBackendStart] != 1 || count[ProgressBackendDone] != 1 || count[ProgressBackendCancelled] != 0 {
		t.Errorf("lifecycle start %d done %d cancelled %d, want 1 1 0",
			count[ProgressBackendStart], count[ProgressBackendDone], count[ProgressBackendCancelled])
	}
	if res.Stats.Improved == 0 || count[ProgressImproved] != res.Stats.Improved {
		t.Errorf("%d improved events, Stats.Improved %d; want equal and > 0",
			count[ProgressImproved], res.Stats.Improved)
	}
	if last.Kind != ProgressBackendDone || last.Time != res.Time || last.Err != "" {
		t.Errorf("last event %s time %d err %q, want done at %d", last.Kind, last.Time, last.Err, res.Time)
	}
	if res.Stats.Enumerated == 0 || res.Gap < 0 {
		t.Errorf("Stats.Enumerated %d gap %v, want > 0 and >= 0", res.Stats.Enumerated, res.Gap)
	}
}

// TestSolveObservedNilMetrics checks the unobserved path: a nil hook
// makes a nil sink whose emitters are no-ops, and the solve returns
// what an observed one does.
func TestSolveObservedNilMetrics(t *testing.T) {
	sink := newProgressSink(nil)
	if sink != nil {
		t.Fatal("nil hook made a live sink")
	}
	sink.start("partition")
	sink.improved("partition", 1, 1)
	sink.done("partition", 1, nil)
	sink.cancelled("partition")

	plain, err := SolveContext(context.Background(), testSOC(), 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	observed, _, err := observe(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != observed.Time || plain.NumTAMs != observed.NumTAMs {
		t.Errorf("unobserved solve diverged: %d/%d vs %d/%d",
			plain.Time, plain.NumTAMs, observed.Time, observed.NumTAMs)
	}
}

// TestSolveObservedResultIdentical checks observing changes no result:
// with one worker, where even Stats are order-exact, an observed solve
// equals a plain one in every field but the wall clock.
func TestSolveObservedResultIdentical(t *testing.T) {
	plain, err := SolveContext(context.Background(), testSOC(), 16, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	observed, evs, err := observe(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("observed solve delivered no events")
	}
	plain.Elapsed, observed.Elapsed = 0, 0
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observed solve diverged:\n observed %+v\n plain    %+v", observed, plain)
	}
}

// TestSolveObservedCountsErrors checks a failed solve gives an observer
// nothing to book as a solve: an error with a zero Result and no
// improvement or successful done on the stream; a backend that fails
// once started reports done with its error and no time.
func TestSolveObservedCountsErrors(t *testing.T) {
	res, evs, err := observe(Options{Strategy: StrategyPortfolio, Portfolio: "no-such-backend"})
	if err == nil {
		t.Fatal("expected error for bogus portfolio subset")
	}
	if res.Time != 0 || res.Stats != (Stats{}) {
		t.Errorf("failed solve returned time %d stats %+v, want zero", res.Time, res.Stats)
	}
	if len(evs) != 0 {
		t.Errorf("rejected portfolio spec delivered %d events, want none", len(evs))
	}

	evs = evs[:0]
	hook := func(ev ProgressEvent) { evs = append(evs, ev) }
	res, err = SolveContext(context.Background(), testSOC(), 0, Options{Strategy: StrategyPartition, Progress: hook})
	if err == nil {
		t.Fatal("expected error for width 0")
	}
	if res.Time != 0 {
		t.Errorf("failed solve returned time %d, want 0", res.Time)
	}
	var done int
	for _, ev := range evs {
		switch ev.Kind {
		case ProgressImproved:
			t.Errorf("failed solve reported an incumbent %d", ev.Time)
		case ProgressBackendDone:
			done++
			if ev.Err != err.Error() || ev.Time != 0 {
				t.Errorf("done err %q time %d, want %q and 0", ev.Err, ev.Time, err)
			}
		}
	}
	if done != 1 {
		t.Errorf("%d done events for a failed backend, want 1", done)
	}
}

// TestSolveObservedChainsProgress checks what lets an observer chain a
// caller's hook behind its own with no lock: a portfolio race delivers
// every event to the chain one at a time, each backend in causal order
// (start, strictly falling incumbents, then one done or cancelled), and
// each backend's events in one block, in rank order.
func TestSolveObservedChainsProgress(t *testing.T) {
	var inFlight atomic.Int32
	type state struct {
		started, ended bool
		best           int64
	}
	backends := map[string]*state{}
	var events int
	caller := func(ev ProgressEvent) {
		if inFlight.Add(1) != 1 {
			t.Error("hook ran concurrently with itself")
		}
		defer inFlight.Add(-1)
		events++
		st := backends[ev.Backend]
		if st == nil {
			st = &state{}
			backends[ev.Backend] = st
		}
		switch {
		case st.ended:
			t.Errorf("%s: %s after the backend ended", ev.Backend, ev.Kind)
		case ev.Kind == ProgressBackendStart:
			if st.started {
				t.Errorf("%s: started twice", ev.Backend)
			}
			st.started = true
		case !st.started:
			t.Errorf("%s: %s before start", ev.Backend, ev.Kind)
		case ev.Kind == ProgressImproved:
			if st.best > 0 && int64(ev.Time) >= st.best {
				t.Errorf("%s: incumbent %d after %d", ev.Backend, ev.Time, st.best)
			}
			st.best = int64(ev.Time)
		default:
			st.ended = true
		}
	}
	res, evs, err := observe(Options{Strategy: StrategyPortfolio, Workers: 1, Progress: caller})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || events != len(evs) {
		t.Errorf("caller hook saw %d events behind an observer that saw %d", events, len(evs))
	}
	if len(backends) != len(res.Portfolio) {
		t.Errorf("events from %d backends, portfolio raced %d", len(backends), len(res.Portfolio))
	}
	for name, st := range backends {
		if !st.ended {
			t.Errorf("%s: never reported done or cancelled", name)
		}
	}
	// The racers run one after another in rank order, so the stream is
	// each racer's framed block in turn: start, its improvements, then
	// one done or cancelled.
	i := 0
	for _, run := range res.Portfolio {
		name := run.Strategy.String()
		if i == len(evs) || evs[i].Backend != name || evs[i].Kind != ProgressBackendStart {
			t.Fatalf("event %d: want %s's start, stream %+v", i, name, evs)
		}
		for i++; i < len(evs) && evs[i].Backend == name && evs[i].Kind == ProgressImproved; i++ {
		}
		if i == len(evs) || evs[i].Backend != name ||
			evs[i].Kind != ProgressBackendDone && evs[i].Kind != ProgressBackendCancelled {
			t.Fatalf("event %d: want %s's done or cancelled, stream %+v", i, name, evs)
		}
		i++
	}
	if i != len(evs) {
		t.Errorf("%d events after the last racer's block: %+v", len(evs)-i, evs[i:])
	}
}

func TestSolveTraceTree(t *testing.T) {
	st := NewSolveTrace("mini w=16")
	opt := Options{Strategy: StrategyPortfolio, Workers: 1, Progress: st.Hook()}
	res, err := SolveContext(context.Background(), testSOC(), 16, opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Finish(res, err)
	var sb strings.Builder
	st.WriteTree(&sb)
	tree := sb.String()
	if !strings.Contains(tree, "trace mini w=16") {
		t.Errorf("missing header:\n%s", tree)
	}
	if !strings.Contains(tree, "solve [") {
		t.Errorf("missing root span:\n%s", tree)
	}
	// Every racing backend gets a span; the winner's name appears.
	if !strings.Contains(tree, res.Strategy.String()+" [") {
		t.Errorf("missing winner span %q:\n%s", res.Strategy, tree)
	}
	if !strings.Contains(tree, "strategy="+res.Strategy.String()) {
		t.Errorf("root missing strategy attr:\n%s", tree)
	}
	if !strings.Contains(tree, "incumbent ") {
		t.Errorf("no incumbent events recorded:\n%s", tree)
	}
}
