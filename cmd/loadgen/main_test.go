package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"soctam/internal/serve"
)

func TestLoadgenBadFlags(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"stray"},
		{"-scenarios", "magic"},
		{"-concurrency", "0"},
		{"-duration", "-1s"},
		{"-widths", "16,zero"},
		{"-benchmarks", ",,"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// loadgen against a real in-process server: every scenario runs, the
// report lands on disk with plausible numbers, and the zipfian skew
// actually produces cache hits.
func TestLoadgenWritesReport(t *testing.T) {
	sv := serve.New(serve.Config{Workers: 2})
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	outPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var log strings.Builder
	err := run([]string{
		"-addr", ts.URL,
		"-scenarios", "zipfian,burst,mixed",
		"-duration", "300ms",
		"-concurrency", "4",
		"-benchmarks", "d695",
		"-widths", "16,24",
		"-out", outPath,
	}, &log)
	if err != nil {
		t.Fatalf("run: %v\nlog:\n%s", err, log.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report %s: %v", raw, err)
	}
	if len(rep.Scenarios) != 3 {
		t.Fatalf("report has %d scenarios, want 3:\n%s", len(rep.Scenarios), raw)
	}
	for i, want := range []string{"zipfian", "burst", "mixed"} {
		sc := rep.Scenarios[i]
		if sc.Name != want {
			t.Errorf("scenario %d named %q, want %q", i, sc.Name, want)
		}
		if sc.Requests < 1 {
			t.Errorf("scenario %q made no requests", sc.Name)
		}
		if sc.Errors != 0 {
			t.Errorf("scenario %q had %d errors against a healthy server", sc.Name, sc.Errors)
		}
		if sc.Requests > 1 && sc.P50MS <= 0 {
			t.Errorf("scenario %q p50 = %v", sc.Name, sc.P50MS)
		}
		if sc.ThroughputRPS <= 0 {
			t.Errorf("scenario %q throughput = %v", sc.Name, sc.ThroughputRPS)
		}
	}
	// Two distinct jobs and hundreds of zipf-skewed requests: everything
	// after the two cold solves must be a hit or coalesce.
	if rep.Scenarios[0].Requests > 10 && rep.Scenarios[0].HitRate == 0 {
		t.Errorf("zipfian hit rate = 0 over %d requests", rep.Scenarios[0].Requests)
	}
	// -metrics defaults on and the target serves /metrics: every scenario
	// that made requests must carry server-side percentiles from the
	// histogram delta.
	for _, sc := range rep.Scenarios {
		if sc.Requests > 0 && (sc.ServerP50MS <= 0 || sc.ServerP95MS < sc.ServerP50MS) {
			t.Errorf("scenario %q server percentiles p50=%v p95=%v over %d requests",
				sc.Name, sc.ServerP50MS, sc.ServerP95MS, sc.Requests)
		}
	}
	if len(rep.ServerStats) == 0 {
		t.Error("report carries no server stats snapshot")
	}
	var stats serve.Stats
	if err := json.Unmarshal(rep.ServerStats, &stats); err != nil {
		t.Errorf("server stats not a /v1/stats body: %v", err)
	}
	if stats.Jobs.Completed < 1 {
		t.Errorf("server completed %d jobs", stats.Jobs.Completed)
	}
	if !strings.Contains(log.String(), "loadgen: wrote "+outPath) {
		t.Errorf("no report announcement in log:\n%s", log.String())
	}
}

// TestLoadgenFailsWhenNothingSucceeds: against a server that answers
// every request with a 500, the run still writes its report but fails,
// naming each scenario that got no successful response.
func TestLoadgenFailsWhenNothingSucceeds(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer ts.Close()
	outPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	err := run([]string{
		"-addr", ts.URL,
		"-scenarios", "zipfian,mixed",
		"-duration", "100ms",
		"-concurrency", "2",
		"-out", outPath,
	}, io.Discard)
	if err == nil {
		t.Fatal("an all-error run succeeded")
	}
	for _, name := range []string{"zipfian", "mixed"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name scenario %q: %v", name, err)
		}
	}
	raw, rerr := os.ReadFile(outPath)
	if rerr != nil {
		t.Fatalf("the failed run wrote no report: %v", rerr)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad report %s: %v", raw, err)
	}
	for _, sc := range rep.Scenarios {
		if sc.Requests == 0 || sc.Errors != sc.Requests {
			t.Errorf("scenario %q: %d requests, %d errors; want every request an error", sc.Name, sc.Requests, sc.Errors)
		}
	}
}

func TestHistPercentile(t *testing.T) {
	inf := math.Inf(1)
	le := []float64{0.1, 0.2, 0.4, inf}
	snap := func(cum ...uint64) histSnapshot { return histSnapshot{le: le, cum: cum} }
	before := snap(0, 0, 0, 0)

	// 10 observations spread 4/4/2 over the finite buckets: the median
	// rank (5) lands in the second bucket, 1/4 of the way in.
	after := snap(4, 8, 10, 10)
	if got, want := histPercentile(before, after, 0.5), (0.1+0.1*0.25)*1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// All mass beyond the largest finite bound clamps there.
	if got := histPercentile(before, snap(0, 0, 0, 5), 0.5); got != 400 {
		t.Errorf("+Inf-bucket p50 = %v, want 400", got)
	}
	// A scrape pair with no observations in between reports nothing.
	if got := histPercentile(after, after, 0.95); got != 0 {
		t.Errorf("empty delta p95 = %v, want 0", got)
	}
	// A counter that went backwards (server restart) is rejected.
	if got := histPercentile(after, before, 0.5); got != 0 {
		t.Errorf("reset delta p50 = %v, want 0", got)
	}
	// Deltas only: the before-counts must be subtracted per bucket.
	shifted := snap(104, 108, 110, 110)
	if got, want := histPercentile(snap(100, 100, 100, 100), shifted, 0.5), (0.1+0.1*0.25)*1000; math.Abs(got-want) > 1e-9 {
		t.Errorf("shifted p50 = %v, want %v", got, want)
	}
}

func TestScrapeSolveHist(t *testing.T) {
	exposition := `# TYPE soctam_http_request_seconds histogram
soctam_http_request_seconds_bucket{route="/v1/solve",le="0.1"} 3
soctam_http_request_seconds_bucket{route="/v1/solve",le="+Inf"} 7
soctam_http_request_seconds_bucket{route="/v1/stats",le="0.1"} 99
soctam_http_request_seconds_sum{route="/v1/solve"} 1.5
`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, exposition)
	}))
	defer ts.Close()
	h, err := scrapeSolveHist(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.le) != 2 || h.le[0] != 0.1 || !math.IsInf(h.le[1], 1) {
		t.Errorf("bounds = %v (other routes must be excluded)", h.le)
	}
	if h.cum[0] != 3 || h.cum[1] != 7 {
		t.Errorf("counts = %v, want [3 7]", h.cum)
	}

	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer empty.Close()
	if _, err := scrapeSolveHist(empty.URL); err == nil {
		t.Error("exposition without solve buckets accepted")
	}
}

// TestRetryAfterFractional pins the backoff parser: a fractional
// Retry-After must be slept out as-is, not rejected (which would
// substitute the full one-second cap).
func TestRetryAfterFractional(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.2")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	t0 := time.Now()
	s := doRequest(http.DefaultClient, ts.URL, `{}`)
	elapsed := time.Since(t0)
	if !s.shed {
		t.Fatalf("429 not classified as shed: %+v", s)
	}
	if elapsed < 200*time.Millisecond {
		t.Errorf("backoff %v shorter than the advertised 0.2s", elapsed)
	}
	if elapsed >= time.Second {
		t.Errorf("backoff %v hit the 1s cap; fractional value was not honored", elapsed)
	}
}
