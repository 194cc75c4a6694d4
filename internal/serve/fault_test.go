package serve

// Fault injection against the cluster fixture: dead and wedged peers,
// saturated pools, recovery. The invariants under test are the ones
// ARCHITECTURE.md §15 promises — no job is ever lost or answered
// twice, a down owner degrades to a bit-identical local solve, a
// saturated node sheds with 429 + Retry-After instead of queueing
// unboundedly, and a recovered owner gets its cache warmed by job
// replay.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A dead owner's jobs degrade to local solves: still 200, still the
// same bytes a healthy cluster would return, marked degraded.
func TestClusterDegradesWhenOwnerDown(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	s := variantOwnedBy(t, nodes, nodes[1])
	body := socJob(t, s, 16)

	// Healthy reference first, through the owner directly.
	resp, raw := postJSON(t, nodes[1].ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy solve status %d: %s", resp.StatusCode, raw)
	}
	var want solveResponse
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	nodes[1].fail()
	resp, raw = postJSON(t, nodes[0].ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve status %d: %s", resp.StatusCode, raw)
	}
	var got solveResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Degraded {
		t.Error("local fallback not marked degraded")
	}
	if got.Node != nodes[0].addr {
		t.Errorf("degraded solve attributed to %s, want %s", got.Node, nodes[0].addr)
	}
	scrubVolatile(&want)
	scrubVolatile(&got)
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("degraded result differs from the owner's:\n%s\n%s", b, a)
	}

	st := nodes[0].sv.Stats()
	if st.Ring == nil || st.Ring.Degraded < 1 || st.Ring.RoutedErrors < 1 {
		t.Errorf("ring stats after degradation = %+v", st.Ring)
	}

	// The peer is now marked down: the next job degrades immediately,
	// without paying another failed forward.
	before := nodes[0].sv.rt.routedErrors.Value()
	resp, raw = postJSON(t, nodes[0].ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second degraded solve status %d: %s", resp.StatusCode, raw)
	}
	if got := nodes[0].sv.rt.routedErrors.Value(); got != before {
		t.Errorf("marked-down peer was retried (%d -> %d forward errors)", before, got)
	}
}

// batchLines posts a batch and decodes every NDJSON line, failing on
// short reads; callers check the per-job outcomes.
type batchLineIn struct {
	Job      int        `json:"job"`
	Node     string     `json:"node"`
	Degraded bool       `json:"degraded"`
	Result   resultJSON `json:"result"`
	Error    *errorBody `json:"error,omitempty"`
}

func batchLines(t *testing.T, url string, jobs []string) []batchLineIn {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json",
		strings.NewReader(`{"jobs":[`+strings.Join(jobs, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var lines []batchLineIn
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var line batchLineIn
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

// checkBatchComplete asserts the no-lost/no-duplicated-jobs invariant:
// exactly one successful line per submitted job.
func checkBatchComplete(t *testing.T, lines []batchLineIn, njobs int) {
	t.Helper()
	if len(lines) != njobs {
		t.Fatalf("got %d NDJSON lines for %d jobs", len(lines), njobs)
	}
	seen := make([]bool, njobs)
	for _, line := range lines {
		if line.Job < 0 || line.Job >= njobs || seen[line.Job] {
			t.Fatalf("bad or repeated job index %d", line.Job)
		}
		seen[line.Job] = true
		if line.Error != nil {
			t.Errorf("job %d failed: %s", line.Job, line.Error.Message)
		} else if line.Result.Time == 0 {
			t.Errorf("job %d returned an empty result", line.Job)
		}
	}
}

// A peer killed mid-batch loses no jobs and duplicates none: its
// already-forwarded jobs answer normally, the rest degrade to local
// solves, and every submitted index comes back exactly once.
func TestClusterBatchSurvivesPeerKilledMidBatch(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	var jobs []string
	for i := 0; i < 8; i++ {
		for _, w := range []int{16, 24, 32} {
			jobs = append(jobs, socJob(t, variant(i), w))
		}
	}
	// The victim serves one forwarded request, then dies under the rest.
	nodes[2].failAfter(1)
	lines := batchLines(t, nodes[0].ts.URL, jobs)
	checkBatchComplete(t, lines, len(jobs))
	for _, line := range lines {
		if line.Node == "" {
			t.Errorf("job %d carries no node identity", line.Job)
		}
	}
}

// A peer that hangs (rather than failing fast) is cut off by the peer
// timeout and its jobs degrade; the batch still completes in full.
func TestClusterBatchSurvivesHungPeer(t *testing.T) {
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.PeerTimeout = 250 * time.Millisecond
	})
	var jobs []string
	for i := 0; i < 6; i++ {
		jobs = append(jobs, socJob(t, variant(i), 16))
	}
	nodes[1].hang()
	start := time.Now()
	lines := batchLines(t, nodes[0].ts.URL, jobs)
	checkBatchComplete(t, lines, len(jobs))
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hung peer stalled the batch for %s", elapsed)
	}
	// At least the hung node's jobs must have degraded somewhere.
	hungOwned := 0
	for i := 0; i < 6; i++ {
		if ownerOf(t, nodes, variant(i).Digest()) == nodes[1] {
			hungOwned++
		}
	}
	degraded := 0
	for _, line := range lines {
		if line.Degraded {
			degraded++
		}
	}
	if degraded < hungOwned {
		t.Errorf("%d jobs owned by the hung peer but only %d degraded lines", hungOwned, degraded)
	}
}

// Injected saturation: with the admission window full, a cold job is
// shed with 429 + Retry-After; cache hits still answer; draining the
// window restores admission. Counted in /v1/stats.
func TestOverloadShedsWith429(t *testing.T) {
	sv, ts := newTestServer(t, Config{Workers: 2, MaxQueue: 2})

	// Warm one job while the pool is idle, so the hit-exemption below
	// has something to hit.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, raw)
	}

	limit := sv.cfg.Workers + sv.cfg.MaxQueue
	if limit != 4 {
		t.Fatalf("admission limit = %d, want workers+queue = 4", limit)
	}
	sv.occupancy.Add(int64(limit)) // the pool is full of imaginary jobs
	defer sv.occupancy.Add(-int64(limit))

	resp, raw = postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":24}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve status %d, want 429: %s", resp.StatusCode, raw)
	}
	var e errorJSON
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "overloaded" {
		t.Errorf("shed body %s (%v)", raw, err)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After %q, want an integer in [1,60]", resp.Header.Get("Retry-After"))
	}

	// A cache hit costs no worker: it must not be shed.
	resp, raw = postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":16}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit shed under saturation: status %d: %s", resp.StatusCode, raw)
	}
	var hit solveResponse
	if err := json.Unmarshal(raw, &hit); err != nil || !hit.Cached {
		t.Errorf("saturated repeat not served from cache: %s", raw)
	}

	if st := sv.Stats(); st.Jobs.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Jobs.Shed)
	}

	// Drain the window: admission resumes.
	sv.occupancy.Add(-int64(limit))
	defer sv.occupancy.Add(int64(limit)) // rebalance the outer defer
	resp, raw = postJSON(t, ts.URL+"/v1/solve", `{"benchmark":"d695","width":24}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain solve status %d: %s", resp.StatusCode, raw)
	}
}

// A shed /v1/stream job answers exactly as a shed /v1/solve job does:
// 429 + Retry-After and the plain JSON error body, because the stream's
// 200 header waits for its first line and a shed job never has one.
func TestStreamShedsWith429(t *testing.T) {
	sv, ts := newTestServer(t, Config{Workers: 1, MaxQueue: 1})
	limit := sv.cfg.Workers + sv.cfg.MaxQueue
	sv.occupancy.Add(int64(limit))
	defer sv.occupancy.Add(-int64(limit))

	resp, raw := postJSON(t, ts.URL+"/v1/stream", `{"benchmark":"d695","width":24}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated stream status %d, want 429: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("shed stream content type %q, want application/json", ct)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After %q, want an integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	var e errorJSON
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "overloaded" {
		t.Errorf("shed stream body %s (%v)", raw, err)
	}
	if st := sv.Stats(); st.Jobs.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Jobs.Shed)
	}
}

// An owner's 429 relays through the entry node verbatim — absorbing it
// locally would defeat the owner's backpressure — and does not count
// as degradation.
func TestClusterRelaysOwnersShed(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.MaxQueue = 1
	})
	owner := nodes[1]
	s := variantOwnedBy(t, nodes, owner)

	limit := owner.sv.cfg.Workers + owner.sv.cfg.MaxQueue
	owner.sv.occupancy.Add(int64(limit))
	defer owner.sv.occupancy.Add(-int64(limit))

	resp, raw := postJSON(t, nodes[0].ts.URL+"/v1/solve", socJob(t, s, 16))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("relayed shed status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed shed lost the Retry-After header")
	}
	var e errorJSON
	if err := json.Unmarshal(raw, &e); err != nil || e.Error.Code != "overloaded" {
		t.Errorf("relayed shed body %s (%v)", raw, err)
	}
	st := nodes[0].sv.Stats()
	if st.Ring.Degraded != 0 {
		t.Errorf("a relayed 429 counted as degradation: %+v", st.Ring)
	}
	if ost := owner.sv.Stats(); ost.Jobs.Shed != 1 {
		t.Errorf("owner shed counter = %d, want 1", ost.Jobs.Shed)
	}
}

// The recovery path end to end: a down owner's jobs degrade and are
// remembered; when the owner comes back, the prober notices, the jobs
// replay to it (it solves them itself — no result bytes cross the
// wire), and the next request routes to a warm owner cache.
func TestClusterWarmHandoffOnRecovery(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ProbeInterval = 25 * time.Millisecond
	})
	owner := nodes[1]
	s := variantOwnedBy(t, nodes, owner)
	body := socJob(t, s, 16)

	owner.fail()
	eventually(t, 5*time.Second, "prober to mark the owner down", func() bool {
		p := nodes[0].sv.rt.peers[owner.addr]
		return !p.up.Load()
	})

	resp, raw := postJSON(t, nodes[0].ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve status %d: %s", resp.StatusCode, raw)
	}
	var degraded solveResponse
	if err := json.Unmarshal(raw, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded {
		t.Error("fallback solve not marked degraded")
	}
	if nodes[0].sv.rt.warmlog.Len() != 1 {
		t.Fatalf("warm log holds %d jobs after one degraded solve, want 1", nodes[0].sv.rt.warmlog.Len())
	}

	owner.restore()
	eventually(t, 5*time.Second, "warm handoff to reach the recovered owner", func() bool {
		return nodes[0].sv.rt.warmPushed.Value() >= 1
	})
	if nodes[0].sv.rt.warmlog.Len() != 0 {
		t.Errorf("warm log still holds %d jobs after handoff", nodes[0].sv.rt.warmlog.Len())
	}

	// The owner solved the replay itself; the next routed request is a
	// hit on its cache.
	eventually(t, 5*time.Second, "routing to resume to the recovered owner", func() bool {
		p := nodes[0].sv.rt.peers[owner.addr]
		return p.up.Load()
	})
	resp, raw = postJSON(t, nodes[0].ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery solve status %d: %s", resp.StatusCode, raw)
	}
	var warm solveResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Node != owner.addr {
		t.Errorf("post-recovery solve answered by %s, want the owner %s", warm.Node, owner.addr)
	}
	if !warm.Cached {
		t.Error("recovered owner's cache was not warmed")
	}
	// And the warmed answer is bit-identical to the degraded one.
	scrubVolatile(&degraded)
	scrubVolatile(&warm)
	a, _ := json.Marshal(degraded)
	b, _ := json.Marshal(warm)
	if string(a) != string(b) {
		t.Errorf("warmed result differs from the degraded solve:\n%s\n%s", b, a)
	}

	if st := nodes[0].sv.Stats(); st.Ring.WarmPushed != 1 {
		t.Errorf("warm-pushed counter = %d, want 1", st.Ring.WarmPushed)
	}
}

// A down owner degrades /v1/stream too: the stream still runs locally,
// its terminal line marked degraded.
func TestClusterStreamDegradesWhenOwnerDown(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	s := variantOwnedBy(t, nodes, nodes[1])
	nodes[1].fail()

	resp, raw := postJSON(t, nodes[0].ts.URL+"/v1/stream", socJob(t, s, 16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var terminal *solveResponse
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Event  string         `json:"event"`
			Result *solveResponse `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if ev.Event == "result" {
			terminal = ev.Result
		}
	}
	if terminal == nil {
		t.Fatalf("no terminal result line in %s", raw)
	}
	if !terminal.Degraded || terminal.Node != nodes[0].addr {
		t.Errorf("degraded stream terminal = node %s degraded %v", terminal.Node, terminal.Degraded)
	}
}
