package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/socdata"
)

// metricValue extracts one sample's value from an exposition body; -1
// when the sample is absent.
func metricValue(body, sample string) float64 {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return -1
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SolveWorkers: 1})

	// One solve, repeated: a cold miss then a cache hit.
	body := `{"benchmark":"d695","width":16}`
	for i := 0; i < 2; i++ {
		if resp, raw := postJSON(t, ts.URL+"/v1/solve", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
		}
	}
	resp, raw := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type %q is not the v0.0.4 exposition type", ct)
	}

	// The acceptance families: solver, serve, cache (ring is covered by
	// TestMetricsRingFamilies — it needs a cluster).
	strat := coopt.StrategyPartition.String()
	for sample, want := range map[string]float64{
		fmt.Sprintf("soctam_solver_solves_total{strategy=%q}", strat): 1, // one cold solve
		fmt.Sprintf("soctam_jobs_solved_total"):                       1,
		fmt.Sprintf("soctam_jobs_completed_total"):                    2,
		fmt.Sprintf("soctam_cache_hits_total"):                        1,
		fmt.Sprintf("soctam_cache_misses_total"):                      1,
	} {
		if got := metricValue(text, sample); got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
	// Histograms and per-route series exist with the right shapes.
	for _, needle := range []string{
		fmt.Sprintf("soctam_solver_solve_seconds_count{strategy=%q} 1", strat),
		fmt.Sprintf("soctam_solver_gap_ratio_count{strategy=%q} 1", strat),
		`soctam_http_requests_total{route="/v1/solve",code="200"} 2`,
		`soctam_http_request_seconds_bucket{route="/v1/solve",le="+Inf"} 2`,
		"soctam_cache_entries 1",
		"# TYPE soctam_jobs_solve_seconds histogram",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}
	// The truncation counter family only materializes children when a
	// deadline fires; what matters here is the registry serves cleanly
	// and the solver families cover count/latency/gap.
	if strings.Contains(text, "soctam_solver_truncated_total{") {
		t.Error("truncated counter has children without any deadline-bounded solve")
	}
}

// TestStatsMatchesMetrics is the shared-source-of-truth check: the
// /v1/stats JSON must equal the registry's counters, because it IS a
// read of the registry (no second bookkeeping to drift).
func TestStatsMatchesMetrics(t *testing.T) {
	sv, ts := newTestServer(t, Config{Workers: 1, SolveWorkers: 1})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16}`)
	}
	postJSON(t, ts.URL+"/v1/solve", `{"width":0}`) // a parse failure

	_, raw := getBody(t, ts.URL+"/metrics")
	text := string(raw)
	st := sv.Stats()
	for sample, want := range map[string]float64{
		"soctam_jobs_completed_total": float64(st.Jobs.Completed),
		"soctam_jobs_failed_total":    float64(st.Jobs.Failed),
		"soctam_jobs_solved_total":    float64(st.Jobs.Solved),
		"soctam_cache_hits_total":     float64(st.Cache.Hits),
		"soctam_cache_misses_total":   float64(st.Cache.Misses),
	} {
		if got := metricValue(text, sample); got != want {
			t.Errorf("%s = %v, stats says %v", sample, got, want)
		}
	}
}

func TestMetricsRingFamilies(t *testing.T) {
	// A one-node "cluster": ring families must exist even before any
	// routing happens, so dashboards can be built against an idle node.
	sv, err := NewCluster(Config{Peers: []string{"127.0.0.1:7101", "127.0.0.1:7102"}, Self: "127.0.0.1:7101"})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	var sb strings.Builder
	if err := sv.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, needle := range []string{
		"soctam_ring_routed_total 0",
		"soctam_ring_degraded_total 0",
		"soctam_ring_warm_pushed_total 0",
		`soctam_ring_peer_up{peer="127.0.0.1:7101"} 1`,
		`soctam_ring_peer_up{peer="127.0.0.1:7102"} 1`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("ring exposition missing %q:\n%s", needle, text)
		}
	}
}

func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if resp, _ := getBody(t, off.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without -pprof (status %d)", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{Pprof: true})
	if resp, _ := getBody(t, on.URL+"/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof not served with Pprof on (status %d)", resp.StatusCode)
	}
}

func TestRegistryIsPerServer(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	defer a.Close()
	defer b.Close()
	if a.Registry() == b.Registry() {
		t.Fatal("two servers share one registry (cluster tests run several nodes per process)")
	}
	a.Registry().Counter("soctam_jobs_completed_total",
		"Jobs answered successfully (any path: cache, coalesced, cold).").Add(7)
	if got := b.m.completed.Value(); got != 0 {
		t.Fatalf("server B sees server A's counters (%d)", got)
	}
}

// TestStatsDuringBatch is the /v1/stats race regression: hammer the
// stats endpoint (and /metrics) while a batch is in flight. Run with
// -race this guards the read path; the monotonicity checks below catch
// counter drift (a stat going backwards means double bookkeeping).
func TestStatsDuringBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SolveWorkers: 1})

	var jobs []string
	for w := 10; w < 22; w++ {
		jobs = append(jobs, fmt.Sprintf(`{"benchmark":"d695","width":%d}`, w))
	}
	batch := `{"jobs":[` + strings.Join(jobs, ",") + `]}`

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		postJSON(t, ts.URL+"/v1/batch", batch)
	}()
	var prev Stats
	for i := 0; ; i++ {
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
		resp, raw := getBody(t, ts.URL+"/v1/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		var st Stats
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("stats JSON: %v (%s)", err, raw)
		}
		if st.Jobs.Completed < prev.Jobs.Completed || st.Jobs.Solved < prev.Jobs.Solved ||
			st.Cache.Hits < prev.Cache.Hits || st.Jobs.Failed < prev.Jobs.Failed {
			t.Fatalf("counters went backwards: %+v after %+v", st.Jobs, prev.Jobs)
		}
		prev = st
		if i%4 == 0 {
			getBody(t, ts.URL+"/metrics")
		}
	}
}

// TestSolveObservedViaServer pins the server's one solve call: a cold
// solve records every solver family and returns what a plain library
// solve of the same (canonical) SOC returns, an error counts as an
// error and not a solve, a caller's progress hook sees every event,
// and a cache hit records nothing.
func TestSolveObservedViaServer(t *testing.T) {
	sv := New(Config{Workers: 1, SolveWorkers: 1})
	defer sv.Close()
	m := &sv.m
	strat := coopt.StrategyPartition.String()
	res, _, err := sv.Solve(t.Context(), socdata.D695(), 16, coopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]uint64{
		"solves":        m.solverSolves.With(strat).Value(),
		"solve_seconds": m.solverSeconds.With(strat).Count(),
		"gap":           m.solverGap.With(strat).Count(),
		"jobs seconds":  m.solveSeconds.Count(),
	} {
		if got != 1 {
			t.Errorf("%s after one cold solve = %d, want 1", name, got)
		}
	}
	if got := m.solverPartitions.With(strat, "enumerated").Value(); res.Stats.Enumerated == 0 || got != uint64(res.Stats.Enumerated) {
		t.Errorf("partitions{enumerated} = %d, want Stats.Enumerated %d (> 0)", got, res.Stats.Enumerated)
	}
	if res.Stats.Improved == 0 || m.solverIncumbents.With(strat).Value() == 0 {
		t.Errorf("incumbents %d with Stats.Improved %d, want both > 0",
			m.solverIncumbents.With(strat).Value(), res.Stats.Improved)
	}
	if got := m.solverErrors.With(strat).Value(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}

	canon, _ := socdata.D695().Canonical()
	plain, err := coopt.Solve(canon, 16, coopt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != plain.Time || res.Gap != plain.Gap || res.NumTAMs != plain.NumTAMs {
		t.Errorf("observed solve %d cycles gap %v on %d TAMs, plain solve %d %v %d",
			res.Time, res.Gap, res.NumTAMs, plain.Time, plain.Gap, plain.NumTAMs)
	}

	bogus := coopt.Options{Strategy: coopt.StrategyPortfolio, Portfolio: "no-such-backend"}
	if _, _, err := sv.Solve(t.Context(), socdata.D695(), 16, bogus); err == nil {
		t.Fatal("bogus portfolio subset solved")
	}
	port := coopt.StrategyPortfolio.String()
	if e, n := m.solverErrors.With(port).Value(), m.solverSolves.With(port).Value(); e != 1 || n != 0 {
		t.Errorf("failed solve counted errors %d solves %d, want 1 and 0", e, n)
	}

	// A caller's progress hook (the /v1/stream writer) still sees every
	// event behind the incumbent counter.
	incumbents := m.solverIncumbents.With(strat).Value()
	var improved int
	if _, _, err := sv.solve(t.Context(), resolve(socdata.D695()), 24, coopt.Options{}, func(ev coopt.ProgressEvent) {
		if ev.Kind == coopt.ProgressImproved {
			improved++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.solverIncumbents.With(strat).Value() - incumbents; improved == 0 || got != uint64(improved) {
		t.Errorf("caller hook saw %d improvements, incumbents advanced by %d; want equal and > 0", improved, got)
	}

	solves, seconds := m.solverSolves.With(strat).Value(), m.solverSeconds.With(strat).Count()
	if _, meta, err := sv.Solve(t.Context(), socdata.D695(), 16, coopt.Options{}); err != nil || !meta.Cached {
		t.Fatalf("repeat: cached %v, err %v", meta.Cached, err)
	}
	if n, c := m.solverSolves.With(strat).Value(), m.solverSeconds.With(strat).Count(); n != solves || c != seconds {
		t.Errorf("cache hit advanced solves %d -> %d and solve_seconds %d -> %d (no solve ran)", solves, n, seconds, c)
	}
}

// Zero-alloc guard at the serve layer: the counters the request path
// touches per job must not allocate.
func TestServeCountersAllocationFree(t *testing.T) {
	sv := New(Config{})
	defer sv.Close()
	if n := testing.AllocsPerRun(200, func() { sv.m.completed.Inc() }); n != 0 {
		t.Errorf("completed.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { sv.m.solveSeconds.Observe(0.01) }); n != 0 {
		t.Errorf("solveSeconds.Observe allocates %.1f/op", n)
	}
}
