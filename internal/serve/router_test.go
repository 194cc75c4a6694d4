package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestPostFailurePolicy pins the one failure policy of every peer call:
// a 5xx or a transport error is the peer failing (nil, peer marked
// down), a caller that gave up says nothing about the peer, and a 4xx —
// 429 included — is the job's own outcome, returned as is.
func TestPostFailurePolicy(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	newPeer := func(base string) *peer {
		p := &peer{name: base, base: base}
		p.up.Store(true)
		return p
	}
	replying := func(status int) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if got := r.Header.Get(routedHeader); got != "1" {
				t.Errorf("peer call sent %s %q, want \"1\"", routedHeader, got)
			}
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(status)
		}))
		t.Cleanup(ts.Close)
		return ts
	}

	for _, status := range []int{http.StatusServiceUnavailable, http.StatusInternalServerError} {
		p := newPeer(replying(status).URL)
		if resp := post(t.Context(), client, p, "/v1/solve", []byte(`{}`)); resp != nil {
			resp.Body.Close()
			t.Errorf("%d: post returned the reply, want nil", status)
		}
		if p.up.Load() {
			t.Errorf("%d: peer still up", status)
		}
	}

	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	p := newPeer(closed.URL)
	if resp := post(t.Context(), client, p, "/v1/solve", []byte(`{}`)); resp != nil {
		resp.Body.Close()
		t.Error("closed server: post returned a reply, want nil")
	}
	if p.up.Load() {
		t.Error("closed server: peer still up")
	}

	// The caller hangs up while the peer is still working on the call.
	arrived := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to its end lets the server notice the hang-up.
		_, _ = io.Copy(io.Discard, r.Body)
		close(arrived)
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)
	ctx, cancel := context.WithCancel(t.Context())
	go func() {
		<-arrived
		cancel()
	}()
	p = newPeer(hung.URL)
	if resp := post(ctx, client, p, "/v1/solve", []byte(`{}`)); resp != nil {
		resp.Body.Close()
		t.Error("cancelled caller: post returned a reply, want nil")
	}
	if !p.up.Load() {
		t.Error("cancelled caller marked the peer down")
	}

	for _, status := range []int{http.StatusBadRequest, http.StatusTooManyRequests} {
		p := newPeer(replying(status).URL)
		resp := post(t.Context(), client, p, "/v1/solve", []byte(`{}`))
		if resp == nil {
			t.Errorf("%d: post returned nil, want the reply", status)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != status || resp.Header.Get("Retry-After") != "7" {
			t.Errorf("%d: reply status %d Retry-After %q, want %d \"7\"",
				status, resp.StatusCode, resp.Header.Get("Retry-After"), status)
		}
		if !p.up.Load() {
			t.Errorf("%d: peer marked down", status)
		}
	}
}

// A recovering owner that answers a warm-push replay with 503 is failing
// again: the push marks it down and sends it no further replay, like
// every other peer call.
func TestWarmPushStopsOnOwner5xx(t *testing.T) {
	nodes := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.ProbeInterval = time.Hour // the test drives the push itself
	})
	entry, owner := nodes[0], nodes[1]
	p := entry.sv.rt.peers[owner.addr]

	// Two degraded solves leave two replays for the owner.
	p.up.Store(false)
	for i, width := range []int{16, 24} {
		job := socJob(t, variantOwnedBy(t, nodes, owner), width)
		if resp, raw := postJSON(t, entry.ts.URL+"/v1/solve", job); resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded solve %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	if n := entry.sv.rt.warmlog.Len(); n != 2 {
		t.Fatalf("warm log holds %d jobs, want 2", n)
	}

	var replays atomic.Int64
	owner.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replays.Add(1)
		http.Error(w, "still recovering", http.StatusServiceUnavailable)
	}))
	p.up.Store(true) // what the prober does on the down→up transition
	entry.sv.warmPush(p)

	if n := replays.Load(); n != 1 {
		t.Errorf("owner answering 503 received %d replays, want 1", n)
	}
	if p.up.Load() {
		t.Error("owner answering 503 still marked up")
	}
	if n, pushed := entry.sv.rt.warmlog.Len(), entry.sv.rt.warmPushed.Value(); n != 2 || pushed != 0 {
		t.Errorf("warm log holds %d jobs and %d were pushed, want 2 and 0", n, pushed)
	}
}
