// Command loadgen drives a running wtamd (a single node or any entry
// node of a -peers cluster) with realistic request mixes and writes a
// machine-readable benchmark report. It is the measurement half of the
// distributed serving tier: CI runs it against a three-node cluster
// and publishes the report as BENCH_serve.json (see ARCHITECTURE.md
// §15).
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080
//	loadgen -addr 127.0.0.1:8080 -scenarios zipfian,burst -duration 10s
//	loadgen -addr 127.0.0.1:8080 -concurrency 16 -out BENCH_serve.json
//
// Scenarios:
//
//   - zipfian: requests repeat over the benchmark×width job set with a
//     Zipf-distributed popularity skew — the cache-friendly steady
//     state a production service actually sees.
//   - burst: the same job mix in saturating on/off bursts with idle
//     gaps, exercising admission control and queue drain.
//   - mixed: uniform job choice plus varied strategies and deadlines —
//     the cache-hostile worst case.
//
// Every scenario reports request count, error and shed (HTTP 429)
// counts, the observed cache-hit fraction, throughput, and latency
// percentiles. With -metrics (the default) each scenario also scrapes
// the server's GET /metrics exposition before and after the run and
// reports server-side p50/p95 from the /v1/solve latency-histogram
// delta — the gap between the client's and the server's p95 is the
// network and queueing overhead the server never saw. The report ends
// with the server's own /v1/stats snapshot, so a cluster run also
// records routing and degradation counters. A shed request is honored:
// the worker backs off for the server's Retry-After (fractional
// seconds respected, capped at one second) before continuing.
//
// loadgen exits non-zero, after writing the report, when any scenario
// got no successful response at all: a run against a dead or broken
// server is not a measurement.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errBadFlags) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

var errBadFlags = errors.New("bad flags")

// job is one entry of the benchmark×width request universe.
type job struct {
	benchmark string
	width     int
}

// scenarioResult is one scenario's row in the report.
type scenarioResult struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// Errors counts failed requests (transport errors and non-2xx other
	// than 429); Shed counts 429 load-shed responses, reported apart
	// because shedding is the server working as designed.
	Errors int `json:"errors"`
	Shed   int `json:"shed"`
	// HitRate is the fraction of successful responses answered from the
	// result cache or by coalescing into an in-flight solve.
	HitRate       float64 `json:"hit_rate"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	// ServerP50MS/ServerP95MS are the server's own view of this
	// scenario's /v1/solve latency: the GET /metrics histogram delta
	// between a scrape before and after the run, interpolated within
	// buckets. Client p95 minus server p95 is the network + queueing
	// overhead. Absent when -metrics is off or the scrape failed.
	ServerP50MS float64 `json:"server_p50_ms,omitempty"`
	ServerP95MS float64 `json:"server_p95_ms,omitempty"`
}

// report is the BENCH_serve.json schema.
type report struct {
	Addr        string           `json:"addr"`
	Concurrency int              `json:"concurrency"`
	DurationSec float64          `json:"duration_seconds"`
	Scenarios   []scenarioResult `json:"scenarios"`
	// ServerStats is the target's final /v1/stats body verbatim — on a
	// cluster node it carries the ring, routing and shed counters.
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr        = flags.String("addr", "http://127.0.0.1:8080", "base URL (or host:port) of the wtamd node to drive")
		scenarios   = flags.String("scenarios", "all", `comma-separated scenario list from "zipfian", "burst", "mixed" (or "all")`)
		duration    = flags.Duration("duration", 5*time.Second, "wall-clock run time per scenario")
		concurrency = flags.Int("concurrency", 8, "concurrent client workers")
		benchmarks  = flags.String("benchmarks", "d695,p21241,p31108,p93791", "comma-separated benchmark SOCs to request")
		widths      = flags.String("widths", "16,24,32,48", "comma-separated TAM widths to request")
		seed        = flags.Int64("seed", 1, "RNG seed for job choice (same seed, same request sequence)")
		outPath     = flags.String("out", "BENCH_serve.json", "report file to write")
		metricsOn   = flags.Bool("metrics", true, "scrape GET /metrics around each scenario and report the server's own latency percentiles from the histogram delta")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errBadFlags
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (loadgen takes only flags)", flags.Arg(0))
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency %d < 1", *concurrency)
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration %s must be positive", *duration)
	}
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	names := strings.Split(*scenarios, ",")
	if *scenarios == "all" {
		names = []string{"zipfian", "burst", "mixed"}
	}
	for _, n := range names {
		switch strings.TrimSpace(n) {
		case "zipfian", "burst", "mixed":
		default:
			return fmt.Errorf("unknown scenario %q (valid: zipfian, burst, mixed)", n)
		}
	}

	var jobs []job
	for _, b := range strings.Split(*benchmarks, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			return fmt.Errorf("empty entry in -benchmarks %q", *benchmarks)
		}
		for _, ws := range strings.Split(*widths, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(ws))
			if err != nil || w < 1 {
				return fmt.Errorf("bad width %q in -widths", ws)
			}
			jobs = append(jobs, job{benchmark: b, width: w})
		}
	}

	rep := report{Addr: base, Concurrency: *concurrency, DurationSec: duration.Seconds()}
	for _, name := range names {
		name = strings.TrimSpace(name)
		fmt.Fprintf(out, "loadgen: scenario %s for %s against %s\n", name, *duration, base)
		var before histSnapshot
		if *metricsOn {
			var err error
			if before, err = scrapeSolveHist(base); err != nil {
				fmt.Fprintf(out, "loadgen: could not scrape /metrics: %v (server-side percentiles skipped)\n", err)
				*metricsOn = false
			}
		}
		res := runScenario(name, base, jobs, *concurrency, *duration, *seed)
		if *metricsOn {
			if after, err := scrapeSolveHist(base); err != nil {
				fmt.Fprintf(out, "loadgen: could not scrape /metrics: %v (server-side percentiles skipped)\n", err)
			} else {
				res.ServerP50MS = histPercentile(before, after, 0.50)
				res.ServerP95MS = histPercentile(before, after, 0.95)
			}
		}
		fmt.Fprintf(out, "loadgen: %s: %d requests, %.1f req/s, hit rate %.2f, p95 %.1fms (server %.1fms), %d shed, %d errors\n",
			name, res.Requests, res.ThroughputRPS, res.HitRate, res.P95MS, res.ServerP95MS, res.Shed, res.Errors)
		rep.Scenarios = append(rep.Scenarios, res)
	}

	if stats, err := fetchStats(base); err == nil {
		rep.ServerStats = stats
	} else {
		fmt.Fprintf(out, "loadgen: could not fetch /v1/stats: %v\n", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "loadgen: wrote %s\n", *outPath)
	return failedScenarios(rep.Scenarios)
}

// failedScenarios reports an error naming every scenario that got no
// successful response: such a run measured a dead or broken server, not
// the service, and must not pass as a benchmark. The report is written
// first, so the failure can still be inspected.
func failedScenarios(scenarios []scenarioResult) error {
	var dead []string
	for _, sc := range scenarios {
		if sc.Requests-sc.Errors-sc.Shed == 0 {
			dead = append(dead, fmt.Sprintf("%s (%d requests, %d errors, %d shed)", sc.Name, sc.Requests, sc.Errors, sc.Shed))
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("no successful response in scenario(s): %s", strings.Join(dead, "; "))
	}
	return nil
}

// sample is one request's outcome as a worker saw it.
type sample struct {
	latency time.Duration
	hit     bool
	shed    bool
	err     bool
}

// runScenario drives one scenario to completion and aggregates its
// samples.
func runScenario(name, base string, jobs []job, concurrency int, duration time.Duration, seed int64) scenarioResult {
	// burstPeriod is the on/off cycle of the burst scenario: full rate
	// for a half-period, idle for the next.
	const burstPeriod = 500 * time.Millisecond

	start := time.Now()
	deadline := start.Add(duration)
	results := make(chan []sample, concurrency)
	for w := 0; w < concurrency; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			// s > 1 concentrates mass on low ranks: a few hot jobs, a long
			// cold tail — the canonical web-workload popularity curve.
			zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(jobs)-1))
			client := &http.Client{Timeout: 2 * time.Minute}
			var got []sample
			for time.Now().Before(deadline) {
				if name == "burst" {
					sinceStart := time.Since(start)
					if (sinceStart/burstPeriod)%2 == 1 { // off half-cycle
						next := sinceStart.Truncate(burstPeriod) + burstPeriod
						time.Sleep(next - sinceStart)
						continue
					}
				}
				var j job
				body := ""
				switch name {
				case "mixed":
					j = jobs[rng.Intn(len(jobs))]
					opts := ""
					switch rng.Intn(4) {
					case 1:
						opts = `,"options":{"strategy":"packing"}`
					case 2:
						opts = `,"options":{"deadline_ms":100}`
					}
					body = fmt.Sprintf(`{"benchmark":%q,"width":%d%s}`, j.benchmark, j.width, opts)
				default: // zipfian popularity, also used by burst
					j = jobs[zipf.Uint64()]
					body = fmt.Sprintf(`{"benchmark":%q,"width":%d}`, j.benchmark, j.width)
				}
				got = append(got, doRequest(client, base, body))
			}
			results <- got
		}(w)
	}

	var all []sample
	for w := 0; w < concurrency; w++ {
		all = append(all, <-results...)
	}
	elapsed := time.Since(start)

	res := scenarioResult{Name: name, Requests: len(all)}
	var latencies []float64
	hits, oks := 0, 0
	for _, s := range all {
		switch {
		case s.err:
			res.Errors++
		case s.shed:
			res.Shed++
		default:
			oks++
			if s.hit {
				hits++
			}
			latencies = append(latencies, float64(s.latency)/float64(time.Millisecond))
		}
	}
	if oks > 0 {
		res.HitRate = float64(hits) / float64(oks)
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(all)) / elapsed.Seconds()
	}
	sort.Float64s(latencies)
	res.P50MS = percentile(latencies, 0.50)
	res.P95MS = percentile(latencies, 0.95)
	res.P99MS = percentile(latencies, 0.99)
	return res
}

// doRequest posts one solve and classifies the outcome. A 429 is
// honored by sleeping out the server's Retry-After, capped at a second
// so one pessimistic estimate cannot idle the worker for the whole run.
func doRequest(client *http.Client, base, body string) sample {
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		return sample{err: true}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	latency := time.Since(t0)
	if err != nil {
		return sample{err: true}
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		// ParseFloat, not Atoi: a fractional Retry-After ("0.25") must
		// back off 250ms, not be rejected and replaced by the full cap.
		backoff := time.Second
		if secs, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err == nil && secs >= 0 {
			if d := time.Duration(secs * float64(time.Second)); d < backoff {
				backoff = d
			}
		}
		time.Sleep(backoff)
		return sample{shed: true}
	case resp.StatusCode != http.StatusOK:
		return sample{err: true}
	}
	var out struct {
		Cached    bool `json:"cached"`
		Coalesced bool `json:"coalesced"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return sample{err: true}
	}
	return sample{latency: latency, hit: out.Cached || out.Coalesced}
}

// percentile reads the p-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// histSnapshot is one scrape of the server's /v1/solve latency
// histogram: cumulative observation counts per upper bound, sorted by
// bound ascending, with the +Inf bucket last.
type histSnapshot struct {
	le  []float64 // bucket upper bounds in seconds; last is +Inf
	cum []uint64  // cumulative counts, aligned with le
}

// solveBucketRE matches one exposition line of the /v1/solve latency
// histogram; group 1 is the le bound, group 2 the cumulative count.
var solveBucketRE = regexp.MustCompile(`^soctam_http_request_seconds_bucket\{route="/v1/solve",le="([^"]+)"\} (\d+)$`)

// scrapeSolveHist fetches GET /metrics and extracts the /v1/solve
// latency histogram. Exposition order (ascending le) is preserved.
func scrapeSolveHist(base string) (histSnapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return histSnapshot{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return histSnapshot{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return histSnapshot{}, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	var h histSnapshot
	for _, line := range strings.Split(string(raw), "\n") {
		m := solveBucketRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		le := math.Inf(1)
		if m[1] != "+Inf" {
			if le, err = strconv.ParseFloat(m[1], 64); err != nil {
				return histSnapshot{}, fmt.Errorf("bad le %q in %q", m[1], line)
			}
		}
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			return histSnapshot{}, fmt.Errorf("bad count in %q", line)
		}
		h.le = append(h.le, le)
		h.cum = append(h.cum, n)
	}
	if len(h.le) == 0 {
		return histSnapshot{}, fmt.Errorf("no /v1/solve latency buckets in exposition")
	}
	return h, nil
}

// histPercentile reads the q-quantile in milliseconds from the
// observations the server recorded between two scrapes, interpolating
// linearly within the bucket the quantile rank lands in (the standard
// histogram-quantile estimate). Observations in the +Inf bucket clamp
// to the largest finite bound. Returns 0 when the delta is empty or
// the scrapes are incompatible (server restarted mid-run).
func histPercentile(before, after histSnapshot, q float64) float64 {
	if len(before.le) != len(after.le) {
		return 0
	}
	n := len(after.le)
	delta := make([]uint64, n)
	for i := 0; i < n; i++ {
		if before.le[i] != after.le[i] || after.cum[i] < before.cum[i] {
			return 0
		}
		delta[i] = after.cum[i] - before.cum[i]
	}
	total := delta[n-1] // +Inf bucket is cumulative over everything
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	for i := 0; i < n; i++ {
		if float64(delta[i]) < rank {
			continue
		}
		lower, lowerCount := 0.0, uint64(0)
		if i > 0 {
			lower, lowerCount = after.le[i-1], delta[i-1]
		}
		upper := after.le[i]
		if math.IsInf(upper, 1) {
			// Past the largest finite bound there is nothing to
			// interpolate against; clamp like Prometheus does.
			return lower * 1000
		}
		inBucket := float64(delta[i] - lowerCount)
		if inBucket <= 0 {
			return upper * 1000
		}
		return (lower + (upper-lower)*(rank-float64(lowerCount))/inBucket) * 1000
	}
	return after.le[n-1] * 1000
}

// fetchStats snapshots the target's /v1/stats body.
func fetchStats(base string) (json.RawMessage, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	return raw, nil
}
