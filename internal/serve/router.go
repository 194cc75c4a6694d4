package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/cache"
	"soctam/internal/coopt"
	"soctam/internal/obs"
	"soctam/internal/ring"
)

// The digest-sharded routing layer (ARCHITECTURE.md §15). A cluster is
// a set of symmetric wtamd nodes sharing one peer list; every node
// derives the same digest→owner mapping from a consistent-hash ring
// over that list, forwards jobs it does not own to the owner, and
// solves the rest itself. Because soc.Digest canonicalizes a query's
// content and every node computes results deterministically, the tier
// needs no cache coherence protocol: a digest's cache entries live on
// exactly one owner, and any node that ever answers for a digest (a
// degraded fallback while the owner is down) computes the bit-for-bit
// identical result itself rather than trusting bytes from elsewhere.

const (
	// DefaultPeerTimeout bounds one forwarded /v1/solve (and the header
	// wait of a forwarded /v1/stream) when Config.PeerTimeout is zero.
	// A forward that exceeds it degrades to a local solve, so this is a
	// ceiling on added latency, never on answerability.
	DefaultPeerTimeout = 30 * time.Second
	// DefaultProbeInterval is the peer health-probe cadence when
	// Config.ProbeInterval is zero.
	DefaultProbeInterval = 2 * time.Second
	// routedHeader marks every peer call: a forwarded request or a warm
	// push. A receiving node only tests its presence and never
	// re-forwards a marked request, so transiently inconsistent health
	// views cannot create routing loops: worst case a request is
	// answered by a non-owner, exactly like a degraded local solve.
	routedHeader = "X-Soctam-Routed"
	// warmPushLimit bounds the warm-handoff replays sent to one
	// recovering peer per up-transition; handoff is best-effort cache
	// priming, not a correctness mechanism.
	warmPushLimit = 256
)

// peer is one remote cluster member: its ring identity, its base URL,
// and the last known health verdict (written by the prober and by
// failed forwards, read on every routing decision).
type peer struct {
	name string // normalized host:port — the ring member name
	base string // http://host:port
	up   atomic.Bool
}

// router carries a Server's sharding state. nil on a single-node
// server; constructed once and only read afterwards (the ring is
// static — health changes routing, never membership).
type router struct {
	self  string
	ring  *ring.Ring
	peers map[string]*peer // self excluded
	// client serves forwarded solves (overall timeout = PeerTimeout);
	// streamClient serves forwarded streams, which must not be bounded
	// whole-body (an anytime stream legitimately runs long), only on
	// the header wait.
	client       *http.Client
	streamClient *http.Client
	probeClient  *http.Client

	// warmlog remembers, per cache key, how to replay a job this node
	// answered for a digest it does not own (a degraded fallback), so
	// the owner's cache can be primed when it recovers. Replays carry
	// the job, never the result — see the package comment above.
	warmlog *cache.LRU[string, warmJob]

	// Registry-backed counters (see metrics.go): /metrics and the
	// /v1/stats ring section read the same handles.
	routed       obs.Counter // requests answered by forwarding to the owner
	routedErrors obs.Counter // forwards that failed (and degraded)
	degraded     obs.Counter // jobs solved locally although a peer owns them
	warmPushed   obs.Counter // warm-handoff replays accepted by a recovered owner
}

// warmJob is one warm-handoff candidate: the routing digest and the
// replayable request body (canonical .soc text, width, wire options).
type warmJob struct {
	digest string
	body   []byte
}

// normalizePeer canonicalizes one peer address to its ring identity:
// "host:port", accepting an optional http:// prefix and trailing slash.
func normalizePeer(addr string) (string, error) {
	a := strings.TrimSpace(addr)
	a = strings.TrimPrefix(a, "http://")
	a = strings.TrimSuffix(a, "/")
	if strings.Contains(a, "://") {
		return "", fmt.Errorf("serve: peer %q: only plain host:port or http:// addresses are supported", addr)
	}
	host, port, err := net.SplitHostPort(a)
	if err != nil {
		return "", fmt.Errorf("serve: peer %q: %v", addr, err)
	}
	if host == "" || port == "" {
		return "", fmt.Errorf("serve: peer %q: host and port are both required", addr)
	}
	return net.JoinHostPort(host, port), nil
}

// newRouter builds the sharding state from Config, or returns (nil,
// nil) for a single-node server. The ring counters and per-peer health
// gauges are registered on reg.
func newRouter(cfg Config, reg *obs.Registry) (*router, error) {
	if len(cfg.Peers) == 0 {
		if cfg.Self != "" {
			return nil, errors.New("serve: Config.Self set without Config.Peers")
		}
		return nil, nil
	}
	if cfg.Self == "" {
		return nil, errors.New("serve: Config.Peers set without Config.Self")
	}
	self, err := normalizePeer(cfg.Self)
	if err != nil {
		return nil, err
	}
	rt := &router{
		self:  self,
		ring:  ring.New(0),
		peers: make(map[string]*peer),
		routed: reg.Counter("soctam_ring_routed_total",
			"Requests answered by forwarding to the owning peer."),
		routedErrors: reg.Counter("soctam_ring_routed_errors_total",
			"Forwards that failed (each one degraded to a local solve)."),
		degraded: reg.Counter("soctam_ring_degraded_total",
			"Jobs solved locally although a peer owns their digest."),
		warmPushed: reg.Counter("soctam_ring_warm_pushed_total",
			"Warm-handoff replays accepted by recovered owners."),
	}
	peerUp := reg.GaugeVec("soctam_ring_peer_up",
		"Last known health of each ring member (1 = up), read at scrape time.", "peer")
	peerUp.Func(func() float64 { return 1 }, self) // self is up by definition
	rt.ring.Add(self)
	for _, raw := range cfg.Peers {
		name, err := normalizePeer(raw)
		if err != nil {
			return nil, err
		}
		if name == self || !rt.ring.Add(name) {
			continue // self, or a duplicate entry
		}
		p := &peer{name: name, base: "http://" + name}
		// Optimistic until proven otherwise: a cluster usually starts
		// node by node, and a wrong "up" costs one failed forward (which
		// flips it), while a wrong "down" would shed the whole warm-up.
		p.up.Store(true)
		rt.peers[name] = p
		peerUp.Func(func() float64 {
			if p.up.Load() {
				return 1
			}
			return 0
		}, name)
	}
	rt.client = &http.Client{Timeout: cfg.PeerTimeout}
	rt.streamClient = &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: cfg.PeerTimeout}}
	rt.probeClient = &http.Client{Timeout: min(cfg.ProbeInterval, 2*time.Second)}
	size := cfg.CacheSize
	if size < 0 { // the result cache is disabled; the warm log is not
		size = DefaultCacheSize
	}
	rt.warmlog = cache.New[string, warmJob](size)
	return rt, nil
}

// routeFor decides where a job should run. It returns the owning peer
// when the job must be forwarded, or nil when it runs here — either
// because this node owns the digest, or the request was already routed
// once, or (degraded=true) the owner is down and this node is the
// fallback. answer books the degraded counter once the job is solved
// here.
func (sv *Server) routeFor(r *http.Request, rs *resolvedSOC) (p *peer, degraded bool) {
	rt := sv.rt
	if rt == nil || r.Header.Get(routedHeader) != "" {
		return nil, false
	}
	owner, ok := rt.ring.Owner(rs.digest)
	if !ok || owner == rt.self {
		return nil, false
	}
	pr := rt.peers[owner]
	if pr == nil { // unreachable: every non-self member has a peer entry
		return nil, false
	}
	if !pr.up.Load() {
		return nil, true
	}
	return pr, false
}

// post is every call to a peer: forwarded solves, batch jobs and
// streams, and warm-push replays. It holds the one failure policy: a
// transport error or any 5xx is the peer failing (a peer draining for
// shutdown answers 503), so post returns nil and marks the peer down —
// unless the caller's own context ended, which says nothing about the
// peer. Any other reply returns as is, for the caller to close: a 4xx,
// 429 included, is the job's own outcome, and absorbing an owner's
// load-shed locally would defeat its backpressure.
func post(ctx context.Context, client *http.Client, p *peer, path string, body []byte) *http.Response {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(routedHeader, "1")
	resp, err := client.Do(req)
	if err == nil && resp.StatusCode < 500 {
		return resp
	}
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	p.failed(ctx)
	return nil
}

// failed marks the peer down after it failed a call, unless the
// caller's context ended first.
func (p *peer) failed(ctx context.Context) {
	if ctx.Err() == nil {
		p.up.Store(false)
	}
}

// fetch buffers a forwarded job's reply: post to the owner's
// /v1/solve, then read the whole body, a body cut short counting as the
// peer failing. A nil reply means the peer could not answer; it is
// booked as a routed error.
func (rt *router) fetch(ctx context.Context, p *peer, body []byte) (*http.Response, []byte) {
	resp := post(ctx, rt.client, p, "/v1/solve", body)
	if resp == nil {
		rt.routedErrors.Inc()
		return nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		p.failed(ctx)
		rt.routedErrors.Inc()
		return nil, nil
	}
	return resp, raw
}

// forwardSolve proxies one /v1/solve body to the owning peer and
// relays its response verbatim (status, Retry-After, body — the body
// already carries the owner's node identity). It reports false when
// the peer cannot answer; the caller then degrades to a local solve.
func (sv *Server) forwardSolve(w http.ResponseWriter, r *http.Request, p *peer, body []byte) bool {
	resp, raw := sv.rt.fetch(r.Context(), p, body)
	if resp == nil {
		return false
	}
	sv.rt.routed.Inc()
	relayHeader(w, resp)
	_, _ = w.Write(raw)
	return true
}

// forwardBatchJob runs one batch job on its owning peer. On ok it
// returns either the decoded solve response or the peer's error body
// (whichever the peer answered); ok=false means the peer could not
// answer and the caller must degrade the job to a local solve.
func (rt *router) forwardBatchJob(ctx context.Context, p *peer, raw []byte) (*solveResponse, *errorBody, bool) {
	resp, body := rt.fetch(ctx, p, raw)
	if resp == nil {
		return nil, nil, false
	}
	if resp.StatusCode == http.StatusOK {
		var out solveResponse
		if json.Unmarshal(body, &out) == nil {
			rt.routed.Inc()
			return &out, nil, true
		}
	} else if e := (errorJSON{}); json.Unmarshal(body, &e) == nil && e.Error.Code != "" {
		rt.routed.Inc()
		return nil, &e.Error, true
	}
	rt.routedErrors.Inc()
	return nil, nil, false
}

// forwardStream proxies a /v1/stream request to the owning peer,
// relaying NDJSON lines as they arrive. It reports false only while
// nothing has been written yet (the caller can still degrade to a
// local stream); once bytes are on the wire a peer failure truncates
// the stream exactly as a local mid-stream failure would.
func (sv *Server) forwardStream(w http.ResponseWriter, r *http.Request, p *peer, body []byte) bool {
	rt := sv.rt
	resp := post(r.Context(), rt.streamClient, p, "/v1/stream", body)
	if resp == nil {
		rt.routedErrors.Inc()
		return false
	}
	defer resp.Body.Close()
	rt.routed.Inc()
	relayHeader(w, resp)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return true // EOF or a mid-stream peer failure: stream is committed
		}
	}
}

// relayHeader starts relaying a peer's reply: its content type,
// Retry-After and status.
func relayHeader(w http.ResponseWriter, resp *http.Response) {
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
}

// maybeRecordWarm remembers how to replay a job this node answered for
// a digest owned by someone else, so the owner's cache can be primed
// when it comes back (probeLoop triggers warmPush on the up
// transition).
func (rt *router) maybeRecordWarm(key string, rs *resolvedSOC, width int, norm coopt.Options) {
	owner, ok := rt.ring.Owner(rs.digest)
	if !ok || owner == rt.self {
		return
	}
	body, err := json.Marshal(solveRequest{SOC: rs.canon.EncodeString(), Width: width, Options: wireOptions(norm)})
	if err != nil {
		return
	}
	rt.warmlog.Put(key, warmJob{digest: rs.digest, body: body})
}

// wireOptions re-encodes normalized options into the HTTP request
// schema, for warm-handoff replays. Every option the service solves
// with has a wire spelling (the solve path rejects the ablation knobs
// that have none), so every job round-trips.
func wireOptions(opt coopt.Options) *optionsJSON {
	o := &optionsJSON{MaxTAMs: opt.MaxTAMs, MaxPower: opt.MaxPower, NodeLimit: opt.NodeLimit}
	if opt.Strategy != coopt.StrategyPartition {
		o.Strategy = opt.Strategy.String()
	}
	if opt.Strategy == coopt.StrategyPortfolio && opt.Portfolio != "" {
		o.Strategy = "portfolio:" + opt.Portfolio
	}
	return o
}

// probeLoop actively probes every peer's /v1/healthz on the configured
// cadence until the server closes. It complements the passive marking
// done by failed forwards: passive detection reacts within one
// request, the prober both confirms recovery and notices silently dead
// peers before any request pays the timeout.
func (sv *Server) probeLoop() {
	ticker := time.NewTicker(sv.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sv.base.Done():
			return
		case <-ticker.C:
			sv.probeOnce()
		}
	}
}

// probeOnce probes all peers concurrently and triggers warm handoff
// for every peer observed down→up.
func (sv *Server) probeOnce() {
	var wg sync.WaitGroup
	for _, p := range sv.rt.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			up := sv.rt.probePeer(p)
			if was := p.up.Swap(up); up && !was {
				go sv.warmPush(p)
			}
		}(p)
	}
	wg.Wait()
}

func (rt *router) probePeer(p *peer) bool {
	resp, err := rt.probeClient.Get(p.base + "/v1/healthz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// warmPush replays this node's warm-handoff candidates owned by a
// recovered peer, priming its cache. The peer solves each replay
// itself (routedHeader stops re-forwarding), so no result bytes ever
// cross the wire into a cache. Best-effort and bounded: stops at
// warmPushLimit, on shutdown, on the peer failing again (post marks it
// down), or on the peer shedding load (a recovering node's capacity
// belongs to its clients first).
func (sv *Server) warmPush(p *peer) {
	rt := sv.rt
	pushed := 0
	for _, key := range rt.warmlog.Keys() {
		if pushed >= warmPushLimit || sv.base.Err() != nil || !p.up.Load() {
			return
		}
		wj, ok := rt.warmlog.Get(key)
		if !ok {
			continue
		}
		if owner, ok := rt.ring.Owner(wj.digest); !ok || owner != p.name {
			continue
		}
		resp := post(sv.base, rt.client, p, "/v1/solve", wj.body)
		if resp == nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			rt.warmlog.Remove(key)
			rt.warmPushed.Inc()
			pushed++
		case http.StatusTooManyRequests:
			return
		}
	}
}
