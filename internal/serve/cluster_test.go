package serve

// The multi-node cluster fixture: N real Servers, each behind a real
// httptest listener, sharing one peer list built from the listeners'
// actual addresses. Requests travel the same HTTP paths production
// nodes use — the fixture fakes nothing but the machines. Fault
// injection swaps a node's handler (fail, hang, failAfter) without
// touching its Server, which is exactly what a crashed or wedged
// process looks like from its peers' side of the wire.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// clusterNode is one fixture member: its Server, its listener, and a
// swappable handler for fault injection.
type clusterNode struct {
	sv   *Server
	ts   *httptest.Server
	addr string // host:port — the node's ring identity
	h    atomic.Pointer[http.Handler]
	// hangStop releases handlers wedged by hang(); without it the
	// fixture teardown would wait forever on them (the server never
	// notices a timed-out client while the handler ignores the body).
	hangStop chan struct{}
}

func (n *clusterNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*n.h.Load()).ServeHTTP(w, r)
}

func (n *clusterNode) set(h http.Handler) { n.h.Store(&h) }

// fail makes the node answer every request with a 500 — what a crashed
// backend looks like through a load balancer, and the signal post
// treats as "peer down".
func (n *clusterNode) fail() {
	n.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected failure", http.StatusInternalServerError)
	}))
}

// hang makes the node swallow every request until the client gives up —
// a wedged process, detectable only by timeout.
func (n *clusterNode) hang() {
	n.hangStop = make(chan struct{})
	stop := n.hangStop
	n.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
}

// release frees any handlers still wedged by hang.
func (n *clusterNode) release() {
	if n.hangStop != nil {
		close(n.hangStop)
		n.hangStop = nil
	}
}

// failAfter lets k requests through and fails the rest — a node dying
// mid-batch.
func (n *clusterNode) failAfter(k int64) {
	real := n.sv.Handler()
	var served atomic.Int64
	n.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > k {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		real.ServeHTTP(w, r)
	}))
}

// restore puts the node's real handler back (a recovered process).
func (n *clusterNode) restore() { n.set(n.sv.Handler()) }

// newTestCluster starts size nodes sharing one peer list. The
// listeners come up first (their addresses are the peer list), so the
// Servers can be built already knowing the full ring.
func newTestCluster(t *testing.T, size int, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	addrs := make([]string, size)
	for i := range nodes {
		n := &clusterNode{}
		n.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "node still booting", http.StatusServiceUnavailable)
		}))
		n.ts = httptest.NewServer(n)
		n.addr = n.ts.Listener.Addr().String()
		addrs[i] = n.addr
		nodes[i] = n
	}
	for i, n := range nodes {
		cfg := Config{Workers: 2, Self: n.addr, Peers: addrs}
		if mut != nil {
			mut(i, &cfg)
		}
		sv, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.sv = sv
		n.restore()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.release()
		}
		for _, n := range nodes {
			n.ts.Close()
			n.sv.Close()
		}
	})
	return nodes
}

// variant returns a content-distinct clone of d695 — a different
// digest (hence, usually, a different ring owner) at the same small
// solve cost.
func variant(i int) *soc.SOC {
	s := socdata.D695().Clone()
	s.Cores[0].Patterns += i
	return s
}

// ownerOf resolves a digest to the owning fixture node; every node's
// ring must agree on it (history independence of internal/ring).
func ownerOf(t *testing.T, nodes []*clusterNode, digest string) *clusterNode {
	t.Helper()
	owner, ok := nodes[0].sv.rt.ring.Owner(digest)
	if !ok {
		t.Fatalf("no owner for %s", digest)
	}
	for _, n := range nodes {
		if got, _ := n.sv.rt.ring.Owner(digest); got != owner {
			t.Fatalf("nodes disagree on owner of %s: %s vs %s", digest, owner, got)
		}
	}
	for _, n := range nodes {
		if n.addr == owner {
			return n
		}
	}
	t.Fatalf("owner %s is not a cluster member", owner)
	return nil
}

// variantOwnedBy finds a cheap SOC whose digest the given node owns.
func variantOwnedBy(t *testing.T, nodes []*clusterNode, want *clusterNode) *soc.SOC {
	t.Helper()
	for i := 0; i < 256; i++ {
		s := variant(i)
		if ownerOf(t, nodes, s.Digest()) == want {
			return s
		}
	}
	t.Fatalf("no variant owned by %s in 256 tries", want.addr)
	return nil
}

// socJob renders an inline-.soc solve request body.
func socJob(t *testing.T, s *soc.SOC, width int) string {
	t.Helper()
	b, err := json.Marshal(s.EncodeString())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"soc":%s,"width":%d}`, b, width)
}

// scrubVolatile zeroes the response fields that legitimately differ
// between two servers answering the same job: wall-clock timings and
// the serving metadata (which node, cache state). Everything else must
// match bit for bit.
func scrubVolatile(out *solveResponse) {
	out.ElapsedMS = 0
	out.Cached = false
	out.Coalesced = false
	out.Node = ""
	out.Degraded = false
	out.Result.SolveMS = 0
	for i := range out.Result.Portfolio {
		out.Result.Portfolio[i].ElapsedMS = 0
	}
}

// eventually polls f until it returns true or the deadline passes.
func eventually(t *testing.T, timeout time.Duration, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Every job lands on its digest's ring owner no matter which node the
// client hit, and the cache entry lives on that owner alone: re-asking
// through the other nodes is a hit on the owner, never a second solve.
func TestClusterRoutesToOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	routedAway := 0
	for i := 0; i < 6; i++ {
		s := variant(i)
		owner := ownerOf(t, nodes, s.Digest())
		if owner != nodes[0] {
			routedAway++
		}
		body := socJob(t, s, 16+8*(i%2))
		resp, raw := postJSON(t, nodes[0].ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, resp.StatusCode, raw)
		}
		var out solveResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Node != owner.addr {
			t.Errorf("variant %d answered by %s, owner is %s", i, out.Node, owner.addr)
		}
		if out.Degraded {
			t.Errorf("variant %d degraded with every node up", i)
		}
		if out.Cached {
			t.Errorf("variant %d cached on first sight", i)
		}

		// The same job through every other entry node: still the owner's
		// answer, now from its cache — exactly one node ever solved it.
		for _, entry := range nodes[1:] {
			resp, raw := postJSON(t, entry.ts.URL+"/v1/solve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("variant %d via %s: status %d: %s", i, entry.addr, resp.StatusCode, raw)
			}
			var again solveResponse
			if err := json.Unmarshal(raw, &again); err != nil {
				t.Fatal(err)
			}
			if again.Node != owner.addr {
				t.Errorf("variant %d via %s answered by %s, owner is %s", i, entry.addr, again.Node, owner.addr)
			}
			if !again.Cached {
				t.Errorf("variant %d via %s re-solved instead of hitting the owner's cache", i, entry.addr)
			}
		}
	}
	if routedAway == 0 {
		t.Fatal("every variant hashed to the entry node; fixture gives no routing coverage")
	}
	if got := nodes[0].sv.rt.routed.Value(); got < uint64(routedAway) {
		t.Errorf("entry node forwarded %d requests, want at least %d", got, routedAway)
	}
	var solved int64
	for _, n := range nodes {
		solved += n.sv.Stats().Jobs.Solved
	}
	// 6 variants × 2 widths were asked 3 times each; each (digest, width)
	// must have been cold-solved exactly once cluster-wide.
	if solved != 6 {
		t.Errorf("cluster cold-solved %d jobs, want 6", solved)
	}
}

// The acceptance property of the distributed tier, extending
// TestCacheHitBitForBitAcrossPermutations across machines: a routed
// answer — through any entry node, for permuted and reformatted
// spellings of the query — is bit-for-bit the answer a single-node
// server gives, for every strategy family.
func TestClusterRoutedBitForBitAcrossPermutations(t *testing.T) {
	_, single := newTestServer(t, Config{})
	nodes := newTestCluster(t, 3, nil)
	base := socdata.D695()

	for _, strat := range []string{"", "packing", "portfolio"} {
		opts := ""
		if strat != "" {
			opts = fmt.Sprintf(`,"options":{"strategy":%q}`, strat)
		}
		for seed := int64(1); seed <= 3; seed++ {
			q := reformatted(t, permuted(base, seed))
			b, err := json.Marshal(q.EncodeString())
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf(`{"soc":%s,"width":24%s}`, b, opts)

			resp, raw := postJSON(t, single.URL+"/v1/solve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single node: status %d: %s", resp.StatusCode, raw)
			}
			var want solveResponse
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			scrubVolatile(&want)
			wantJSON, _ := json.Marshal(want)

			for ni, entry := range nodes {
				resp, raw := postJSON(t, entry.ts.URL+"/v1/solve", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("node %d: status %d: %s", ni, resp.StatusCode, raw)
				}
				var got solveResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatal(err)
				}
				scrubVolatile(&got)
				gotJSON, _ := json.Marshal(got)
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("strategy %q seed %d via node %d differs from single-node:\n%s\n%s",
						strat, seed, ni, gotJSON, wantJSON)
				}
			}
		}
	}
}

// A request already routed once is answered where it lands, never
// re-forwarded — transiently inconsistent health views cannot create
// forwarding loops.
func TestClusterNoRerouteLoop(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	s := variantOwnedBy(t, nodes, nodes[1])
	req, err := http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/v1/solve",
		strings.NewReader(socJob(t, s, 16)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Soctam-Routed", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Node != nodes[0].addr {
		t.Errorf("marked request answered by %s, want the receiving node %s", out.Node, nodes[0].addr)
	}
	if out.Degraded {
		t.Error("marked request counted as degraded")
	}
	if got := nodes[0].sv.rt.routed.Value(); got != 0 {
		t.Errorf("marked request was re-forwarded (%d forwards)", got)
	}
}

// /v1/stream forwards to the owner like /v1/solve does: the terminal
// result line carries the owner's identity and the owner's bit-exact
// result.
func TestClusterStreamForwarded(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	s := variantOwnedBy(t, nodes, nodes[1])
	body := socJob(t, s, 24)

	resp, raw := postJSON(t, nodes[0].ts.URL+"/v1/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
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
	if terminal.Node != nodes[1].addr {
		t.Errorf("stream answered by %s, owner is %s", terminal.Node, nodes[1].addr)
	}

	// The forwarded stream's result equals the owner's direct solve.
	resp2, raw2 := postJSON(t, nodes[1].ts.URL+"/v1/solve", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("direct solve status %d", resp2.StatusCode)
	}
	var direct solveResponse
	if err := json.Unmarshal(raw2, &direct); err != nil {
		t.Fatal(err)
	}
	scrubVolatile(terminal)
	scrubVolatile(&direct)
	a, _ := json.Marshal(terminal)
	b, _ := json.Marshal(direct)
	if string(a) != string(b) {
		t.Errorf("forwarded stream result differs from owner's solve:\n%s\n%s", a, b)
	}
}
