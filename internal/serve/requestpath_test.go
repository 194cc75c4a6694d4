package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRequestPathPinned pins what each way into a cluster node answers
// — /v1/solve, /v1/stream and a one-job /v1/batch — for every routing
// outcome of one job: answered here, rejected before routing, forwarded
// to a live owner, degraded past an owner that answers 503, and an
// owner's 429 relayed. It checks the status (a batch line's error
// code), the answering node, the degraded mark and the entry node's
// job and ring counters.
func TestRequestPathPinned(t *testing.T) {
	type want struct {
		// status per way in: /v1/solve, /v1/stream, /v1/batch. A stream
		// answers an error found before its first line (a shed job) with
		// the error's status, as /v1/solve does, and a batch reports
		// every job's error on its line.
		status   [3]int
		code     string // error code; "" for a result
		node     string // "entry", "owner" or "" for an error
		degraded bool
		// Deltas of the entry node's counters.
		completed, failed, routed, routedErrors, degradedJobs int64
	}
	cases := []struct {
		name string
		// job returns the request body; it may inject a fault on the
		// owner (nodes[1]) first.
		job  func(t *testing.T, nodes []*clusterNode) string
		want want
	}{
		{"answered here", func(t *testing.T, nodes []*clusterNode) string {
			return socJob(t, variantOwnedBy(t, nodes, nodes[0]), 16)
		}, want{status: [3]int{200, 200, 200}, node: "entry", completed: 1}},
		{"malformed body", func(*testing.T, []*clusterNode) string {
			return `{"benchmark":"d695","widht":16}`
		}, want{status: [3]int{400, 400, 200}, code: "bad_request", failed: 1}},
		{"width 0", func(*testing.T, []*clusterNode) string {
			return `{"benchmark":"d695","width":0}`
		}, want{status: [3]int{400, 400, 200}, code: "bad_request", failed: 1}},
		{"owned by a live peer", func(t *testing.T, nodes []*clusterNode) string {
			return socJob(t, variantOwnedBy(t, nodes, nodes[1]), 16)
		}, want{status: [3]int{200, 200, 200}, node: "owner", routed: 1}},
		{"owner answers 503", func(t *testing.T, nodes []*clusterNode) string {
			nodes[1].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "draining", http.StatusServiceUnavailable)
			}))
			return socJob(t, variantOwnedBy(t, nodes, nodes[1]), 16)
		}, want{status: [3]int{200, 200, 200}, node: "entry", degraded: true, completed: 1, routedErrors: 1, degradedJobs: 1}},
		{"owner sheds with 429", func(t *testing.T, nodes []*clusterNode) string {
			owner := nodes[1].sv
			owner.occupancy.Add(int64(owner.cfg.Workers + owner.cfg.MaxQueue))
			return socJob(t, variantOwnedBy(t, nodes, nodes[1]), 16)
		}, want{status: [3]int{429, 429, 200}, code: "overloaded", routed: 1}},
	}
	for wi, way := range []string{"/v1/solve", "/v1/stream", "/v1/batch"} {
		for _, tc := range cases {
			t.Run(strings.TrimPrefix(way, "/v1/")+"/"+tc.name, func(t *testing.T) {
				nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
					cfg.MaxQueue = 1
					cfg.ProbeInterval = time.Hour // no probe may flip the owner mid-case
				})
				body := tc.job(t, nodes)
				before := nodes[0].sv.Stats()
				got := askWay(t, nodes[0].ts.URL, way, body)
				after := nodes[0].sv.Stats()

				w := tc.want
				if got.status != w.status[wi] || got.code != w.code {
					t.Errorf("status %d code %q, want %d %q", got.status, got.code, w.status[wi], w.code)
				}
				wantNode := map[string]string{"entry": nodes[0].addr, "owner": nodes[1].addr}[w.node]
				if got.node != wantNode || got.degraded != w.degraded {
					t.Errorf("node %q degraded %v, want %q %v", got.node, got.degraded, wantNode, w.degraded)
				}
				deltas := [5]int64{
					after.Jobs.Completed - before.Jobs.Completed,
					after.Jobs.Failed - before.Jobs.Failed,
					after.Ring.Routed - before.Ring.Routed,
					after.Ring.RoutedErrors - before.Ring.RoutedErrors,
					after.Ring.Degraded - before.Ring.Degraded,
				}
				if wantDeltas := [5]int64{w.completed, w.failed, w.routed, w.routedErrors, w.degradedJobs}; deltas != wantDeltas {
					t.Errorf("completed/failed/routed/routed_errors/degraded deltas %v, want %v", deltas, wantDeltas)
				}
			})
		}
	}
}

// wayAnswer is what one way in answered, reduced to what the pin
// compares.
type wayAnswer struct {
	status   int
	code     string
	node     string
	degraded bool
}

// askWay posts one job body through way: as the whole body of
// /v1/solve and /v1/stream, or as the one element of a /v1/batch.
func askWay(t *testing.T, base, way, job string) wayAnswer {
	t.Helper()
	body := job
	if way == "/v1/batch" {
		body = `{"jobs":[` + job + `]}`
	}
	resp, raw := postJSON(t, base+way, body)
	got := wayAnswer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var e errorJSON
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("status %d with a non-JSON error body %q", resp.StatusCode, raw)
		}
		got.code = e.Error.Code
		return got
	}
	var reply *solveResponse
	var eb *errorBody
	switch way {
	case "/v1/solve":
		reply = new(solveResponse)
		if err := json.Unmarshal(raw, reply); err != nil {
			t.Fatal(err)
		}
	case "/v1/stream":
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var last streamLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("bad terminal line %q: %v", lines[len(lines)-1], err)
		}
		reply, eb = last.Result, last.Error
	case "/v1/batch":
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 1 {
			t.Fatalf("one-job batch answered %d lines: %s", len(lines), raw)
		}
		var line batchLineIn
		if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", lines[0], err)
		}
		if line.Job != 0 {
			t.Errorf("batch line job %d, want 0", line.Job)
		}
		if line.Error != nil {
			got.code = line.Error.Code
		} else {
			got.node, got.degraded = line.Node, line.Degraded
		}
		return got
	}
	switch {
	case eb != nil:
		got.code = eb.Code
	case reply != nil:
		got.node, got.degraded = reply.Node, reply.Degraded
	default:
		t.Fatalf("%s answered neither a result nor an error: %s", way, raw)
	}
	return got
}
