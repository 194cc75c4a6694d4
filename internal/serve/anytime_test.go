package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"soctam/internal/coopt"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// The cache-poisoning regression test: a deadline-bounded solve whose
// result was truncated must never enter the cache — the shared entry
// for a key holds complete results only, and cache keys are
// deadline-independent, so a later deadline-free client would otherwise
// silently receive the truncated incumbent.
func TestTruncatedResultNeverPoisonsCache(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	s := socdata.D695()

	bounded := coopt.Options{Budget: time.Nanosecond} // spent before the scan's first poll
	r1, m1, err := sv.Solve(context.Background(), s, 32, bounded)
	if err != nil {
		t.Fatalf("deadline-bounded solve: %v", err)
	}
	if !r1.Truncated {
		t.Fatal("expired deadline did not truncate (test needs a truncated result to be meaningful)")
	}
	if m1.Cached {
		t.Error("deadline-bounded solve reported a cache hit on a cold server")
	}

	// The deadline-free client must get a cold, complete solve — not the
	// truncated incumbent under the shared key.
	r2, m2, err := sv.Solve(context.Background(), s, 32, coopt.Options{})
	if err != nil {
		t.Fatalf("follow-up solve: %v", err)
	}
	if m2.Cached {
		t.Error("truncated result was cached and answered a deadline-free query")
	}
	if r2.Truncated {
		t.Error("complete solve marked truncated")
	}
	if r2.Time > r1.Time {
		t.Errorf("complete solve (%d cycles) worse than truncated incumbent (%d)", r2.Time, r1.Time)
	}

	// Once a complete result is cached it answers deadline-bounded
	// queries too: a complete answer satisfies any deadline.
	r3, m3, err := sv.Solve(context.Background(), s, 32, bounded)
	if err != nil {
		t.Fatalf("cached deadline query: %v", err)
	}
	if !m3.Cached {
		t.Error("deadline-bounded query missed the cache after a complete solve")
	}
	if r3.Truncated || r3.Time != r2.Time {
		t.Errorf("cache hit for deadline query returned %d cycles (truncated %v), want complete %d",
			r3.Time, r3.Truncated, r2.Time)
	}
}

// threeChains is a SOC whose optimum provably sits above the
// architecture-independent lower bound: three identical single-chain
// cores on two wires. Each core tests in the same time at any width, so
// the best schedule runs two serially on one wire (gap > 0 against the
// volume bound), and the exhaustive baseline proves it in microseconds
// — the escalation worker's ideal customer.
func threeChains() *soc.SOC {
	core := func(name string) soc.Core {
		return soc.Core{Name: name, Inputs: 1, Outputs: 1, Patterns: 10, ScanChains: []int{100}}
	}
	return &soc.SOC{Name: "threechains", Cores: []soc.Core{core("a"), core("b"), core("c")}}
}

// With Config.Escalate on, a cached non-proven result is upgraded in
// place to the exhaustive baseline's proven result.
func TestEscalationUpgradesCachedEntry(t *testing.T) {
	sv := New(Config{Escalate: true, EscalateBudget: 30 * time.Second})
	defer sv.Close()
	s := threeChains()

	r1, _, err := sv.Solve(context.Background(), s, 2, coopt.Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if r1.Proven {
		t.Fatal("heuristic result already proven (test SOC needs a positive gap to exercise escalation)")
	}

	// The escalation reads the entry it upgrades, but it is no client:
	// the client's one lookup (a miss) stays the cache's only one.
	eventually(t, 10*time.Second, "the escalation to upgrade the entry", func() bool {
		return sv.Stats().Jobs.Escalated >= 1
	})
	if st := sv.Stats().Cache; st.Hits != 0 || st.Misses != 1 {
		t.Errorf("cache hits %d misses %d after one client miss and one escalation, want 0 and 1", st.Hits, st.Misses)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		res, meta, err := sv.Solve(context.Background(), s, 2, coopt.Options{})
		if err != nil {
			t.Fatalf("poll solve: %v", err)
		}
		if meta.Cached && res.Proven {
			if res.Time > r1.Time {
				t.Errorf("escalated entry is worse: %d cycles, was %d", res.Time, r1.Time)
			}
			if res.Strategy != coopt.StrategyILP {
				t.Errorf("escalated entry carries strategy %v, want ilp", res.Strategy)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache entry never escalated (stats: %+v)", sv.Stats().Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := sv.Stats().Jobs; st.Escalations < 1 || st.Escalated < 1 {
		t.Errorf("stats did not count the escalation: %+v", st)
	}
}

// Escalation leaves already-proven results alone.
func TestEscalationSkipsProvenEntries(t *testing.T) {
	sv := New(Config{Escalate: true})
	defer sv.Close()

	// The exhaustive strategy's own result is proven on arrival.
	_, _, err := sv.Solve(context.Background(), threeChains(), 2, coopt.Options{Strategy: coopt.StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if st := sv.Stats().Jobs; st.Escalations != 0 {
		t.Errorf("proven entry triggered %d escalation attempts", st.Escalations)
	}
}

// Escalation leaves exact-engine results alone: under a power ceiling
// the ilp engine's answer is unproven once it drops a partition for
// power, and an ilp re-solve would return the same answer.
func TestEscalationSkipsExactEngineResults(t *testing.T) {
	sv := New(Config{Escalate: true, EscalateBudget: 30 * time.Second})
	defer sv.Close()

	res, _, err := sv.Solve(context.Background(), socdata.D695(), 16,
		coopt.Options{Strategy: coopt.StrategyILP, MaxPower: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatal("ilp answer proven (test needs an unproven exact answer)")
	}
	// The worker drains its backlog in order, so once it has taken a
	// marker queued after the solve, any escalation the solve queued has
	// run. The marker's key is not cached, so it counts nothing itself.
	sv.escq <- escJob{key: "marker"}
	eventually(t, 30*time.Second, "the escalation worker to take the marker", func() bool {
		return len(sv.escq) == 0
	})
	if st := sv.Stats().Jobs; st.Escalations != 0 {
		t.Errorf("exact-engine result triggered %d escalation attempts", st.Escalations)
	}
	var text strings.Builder
	if err := sv.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(text.String(), `soctam_solver_solves_total{strategy="ilp"}`); got != 1 {
		t.Errorf(`soctam_solver_solves_total{strategy="ilp"} = %v, want 1`, got)
	}
}

// POST /v1/solve must validate deadline_ms and carry the anytime fields
// in every response.
func TestDeadlineMSOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16,"options":{"deadline_ms":-5}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms: status %d: %s", resp.StatusCode, body)
	}

	// An aggressive deadline on the exponential baseline truncates; the
	// response must still be a valid schedule with its gap.
	resp, body = postJSON(t, ts.URL+"/v1/solve",
		`{"benchmark":"d695","width":32,"options":{"strategy":"exhaustive","deadline_ms":1}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline-bounded solve: status %d: %s", resp.StatusCode, body)
	}
	var out solveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !out.Result.Truncated {
		t.Error("1ms exhaustive solve of d695 W=32 was not truncated")
	}
	if out.Result.Time <= 0 || out.Result.Gap < 0 {
		t.Errorf("bad anytime result: time=%d gap=%f", out.Result.Time, out.Result.Gap)
	}
	if out.Cached {
		t.Error("truncated response claims a cache hit")
	}
}

// readStreamLines posts a /v1/stream request and decodes every NDJSON
// line, asserting the transport-level contract (status, content type).
func readStreamLines(t *testing.T, url, body string) []streamLine {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// POST /v1/stream delivers the solve's progress events as NDJSON and
// terminates with exactly one "result" line matching the /v1/solve
// schema; a cache hit skips straight to the terminal line.
func TestStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	lines := readStreamLines(t, ts.URL, `{"benchmark":"d695","width":16}`)
	if len(lines) < 2 {
		t.Fatalf("cold stream produced %d lines, want progress + result", len(lines))
	}
	last := lines[len(lines)-1]
	if last.Event != "result" || last.Result == nil {
		t.Fatalf("terminal line is %+v, want a result", last)
	}
	if last.Result.Cached {
		t.Error("cold stream reported cached")
	}
	if last.Result.Result.Time <= 0 {
		t.Errorf("streamed result has no testing time: %+v", last.Result.Result)
	}
	sawDone := false
	for i, line := range lines[:len(lines)-1] {
		switch line.Event {
		case "start", "improved", "cancelled":
		case "done":
			sawDone = true
		default:
			t.Errorf("line %d: unexpected event %q", i, line.Event)
		}
		if line.Result != nil || line.Error != nil {
			t.Errorf("line %d: progress event carries a terminal payload", i)
		}
	}
	if !sawDone {
		t.Error("stream never reported a backend done")
	}

	// A portfolio's racers report from their own goroutines, any of
	// which may write the first line and with it the 200 header; every
	// line must still arrive whole, before the one terminal line.
	lines = readStreamLines(t, ts.URL, `{"benchmark":"d695","width":24,"options":{"strategy":"portfolio"}}`)
	if last := lines[len(lines)-1]; last.Event != "result" || last.Result == nil {
		t.Fatalf("portfolio stream ended with %+v, want a result", last)
	}
	started := map[string]bool{}
	for _, line := range lines[:len(lines)-1] {
		if line.Event == "start" {
			started[line.Backend] = true
		}
	}
	if len(started) < 2 {
		t.Errorf("portfolio stream started backends %v, want every racer", started)
	}

	// The identical job again: answered from the cache, no progress to
	// observe, just the terminal line.
	lines = readStreamLines(t, ts.URL, `{"benchmark":"d695","width":16}`)
	if len(lines) != 1 || lines[0].Event != "result" || lines[0].Result == nil {
		t.Fatalf("cached stream produced %d lines (first %+v), want a lone result", len(lines), lines[0])
	}
	if !lines[0].Result.Cached {
		t.Error("identical streamed job missed the cache")
	}

	// Pre-stream request errors keep the plain JSON error surface.
	resp, body := postJSON(t, ts.URL+"/v1/stream", `{"width":16}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing soc: status %d: %s", resp.StatusCode, body)
	}
}
