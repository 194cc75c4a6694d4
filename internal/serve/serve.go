package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/cache"
	"soctam/internal/coopt"
	"soctam/internal/obs"
	"soctam/internal/soc"
)

// Service limits. They bound memory, not correctness: a cache entry is
// one coopt.Result (a few KB), and batch responses stream, so the batch
// cap only limits how much request JSON is held at once.
const (
	// DefaultCacheSize is the result-cache capacity in entries when
	// Config.CacheSize is zero.
	DefaultCacheSize = 1024
	// DefaultMaxBatchJobs caps the jobs accepted in one /v1/batch body
	// when Config.MaxBatchJobs is zero.
	DefaultMaxBatchJobs = 1000
	// DefaultMaxBodyBytes caps a request body when Config.MaxBodyBytes
	// is zero (industrial .soc descriptions are a few KB; 32 MiB leaves
	// three orders of magnitude of headroom).
	DefaultMaxBodyBytes = 32 << 20
	// DefaultEscalateBudget bounds one background escalation attempt
	// when Config.EscalateBudget is zero.
	DefaultEscalateBudget = 2 * time.Second
	// escalateQueueSize bounds the escalation backlog; beyond it new
	// candidates are dropped (escalation is best-effort, and a dropped
	// candidate re-queues the next time its key is solved cold).
	escalateQueueSize = 64
)

// Config tunes a Server. The zero value serves with all-CPU worker
// parallelism and a DefaultCacheSize-entry cache.
type Config struct {
	// Workers bounds the number of concurrently running solves (the
	// worker pool); 0 means runtime.GOMAXPROCS(0). Requests beyond it
	// queue on the pool.
	Workers int
	// SolveWorkers is the coopt.Options.Workers value forced into every
	// solve; 0 splits the CPUs across the pool (GOMAXPROCS / Workers,
	// at least 1). Results are bit-for-bit identical at any setting, so
	// this is purely a latency/throughput trade (ARCHITECTURE.md §10).
	SolveWorkers int
	// CacheSize is the result-cache capacity in entries: 0 means
	// DefaultCacheSize, negative disables caching entirely (every job
	// solves cold; in-flight deduplication still applies).
	CacheSize int
	// MaxBatchJobs caps the jobs in one /v1/batch request; 0 means
	// DefaultMaxBatchJobs.
	MaxBatchJobs int
	// MaxBodyBytes caps a request body in bytes; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Escalate enables the background escalation worker: whenever a
	// heuristic backend's completed but non-proven result lands in the
	// cache (its Gap is positive and no exactness proof backs it), the
	// worker re-solves the job with the exact ilp engine during idle
	// pool capacity and upgrades the entry when the exact run finishes
	// in budget with a proven, no-worse testing time. Off by default:
	// escalation changes what later cache hits return (a better, proven
	// result), which a reproducibility-focused deployment may not want.
	Escalate bool
	// EscalateBudget bounds each escalation attempt via the solver's
	// own anytime deadline; 0 means DefaultEscalateBudget.
	EscalateBudget time.Duration
	// MaxQueue, when positive, turns on admission control: at most
	// Workers solves run while MaxQueue more may wait for a pool slot;
	// any further cold job is shed immediately with an OverloadedError
	// (HTTP: 429 + Retry-After) instead of queuing unboundedly. 0 keeps
	// the pre-sharding behavior (every job waits as long as its caller
	// lets it). Cache hits and coalesced followers are never shed — they
	// consume no pool capacity.
	MaxQueue int
	// Peers, when non-empty, makes this node part of a digest-sharded
	// cluster (ARCHITECTURE.md §15): the full symmetric member list as
	// host:port addresses (http:// prefixes accepted), this node's own
	// address included. Jobs whose SOC digest hashes to another member
	// are forwarded there; jobs owned here are solved here.
	Peers []string
	// Self is this node's own address as the other members reach it;
	// required exactly when Peers is set (it is added to the ring even
	// if missing from Peers).
	Self string
	// PeerTimeout bounds one forwarded request before the router gives
	// up on the owner and degrades to a local solve; 0 means
	// DefaultPeerTimeout.
	PeerTimeout time.Duration
	// ProbeInterval is the peer health-probe cadence; 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// Pprof exposes GET /debug/pprof/* (the net/http/pprof profiling
	// endpoints) on the service handler. Off by default: profiling
	// endpoints reveal internals and cost CPU, so they are opt-in
	// (`wtamd -pprof`).
	Pprof bool
}

// Server multiplexes coopt.Solve across requests: a bounded worker
// pool, an LRU cache of canonical results keyed by SOC digest plus
// normalized options, and in-flight deduplication so concurrent
// identical queries share one solve. Construct with New; Close releases
// it (cancelling any in-flight solves).
type Server struct {
	cfg     Config
	sem     chan struct{}                    // worker-pool slots
	results *cache.LRU[string, coopt.Result] // canonical-order results; nil = disabled
	base    context.Context                  // lifecycle of every solve
	cancel  context.CancelFunc
	closed  sync.Once
	started time.Time

	fmu     sync.Mutex         // guards flights
	flights map[string]*flight // key -> in-flight cold solve

	escq chan escJob // escalation backlog; nil = escalation disabled
	rt   *router     // digest-sharded routing state; nil = single node

	// occupancy is admission-control bookkeeping (cold solves admitted,
	// waiting or running), not a published stat — it stays a raw atomic.
	occupancy atomic.Int64

	// Every published counter lives in reg; m holds the resolved
	// handles (see metrics.go). /v1/stats and /metrics both read reg, so
	// they cannot disagree.
	reg *obs.Registry
	m   serverMetrics
}

// ErrOverloaded is matched (errors.Is) by the OverloadedError a shed
// job returns.
var ErrOverloaded = errors.New("worker pool saturated")

// OverloadedError is the load-shedding rejection: the worker pool and
// its admission queue (Config.MaxQueue) are both full. RetryAfter is
// the server's estimate of when capacity frees up; the HTTP layer
// surfaces it as a 429 with a Retry-After header.
type OverloadedError struct{ RetryAfter time.Duration }

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v: retry in %s", ErrOverloaded, e.RetryAfter.Round(time.Second))
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// escJob is one escalation candidate: everything needed to re-solve a
// cached key exactly. canon is the canonical SOC the cache entry was
// solved on, so the upgraded result stays in canonical core order.
type escJob struct {
	key   string
	canon *soc.SOC
	width int
	norm  coopt.Options
}

// flight is one in-progress cold solve; followers for the same key wait
// on done and share the canonical result instead of re-solving.
type flight struct {
	done chan struct{}
	res  coopt.Result
	err  error
}

// New returns a ready Server. It panics on an invalid cluster
// configuration — use NewCluster when Config.Peers comes from user
// input and the error should be reported instead.
func New(cfg Config) *Server {
	sv, err := NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	return sv
}

// NewCluster is New returning peer-configuration errors (an
// unparsable address, Self without Peers or vice versa) instead of
// panicking: a bad peer list is a deployment mistake the daemon should
// print, not a programming bug.
func NewCluster(cfg Config) (*Server, error) {
	// Resolve every zero-means-default field once; the server reads its
	// cfg copy as is.
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SolveWorkers < 1 {
		cfg.SolveWorkers = max(1, runtime.GOMAXPROCS(0)/cfg.Workers)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxBatchJobs < 1 {
		cfg.MaxBatchJobs = DefaultMaxBatchJobs
	}
	if cfg.MaxBodyBytes < 1 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.EscalateBudget <= 0 {
		cfg.EscalateBudget = DefaultEscalateBudget
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	reg := obs.NewRegistry()
	rt, err := newRouter(cfg, reg)
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	sv := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Workers),
		base:    base,
		cancel:  cancel,
		started: time.Now(),
		flights: make(map[string]*flight),
		rt:      rt,
		reg:     reg,
		m:       newServerMetrics(reg),
	}
	reg.GaugeFunc("soctam_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(sv.started).Seconds() })
	if cfg.CacheSize > 0 {
		sv.results = cache.New[string, coopt.Result](cfg.CacheSize)
		sv.m.resolveCacheMetrics(reg)
		reg.GaugeFunc("soctam_cache_entries", "Result-cache entries currently stored.",
			func() float64 { return float64(sv.results.Len()) })
		reg.Gauge("soctam_cache_capacity", "Result-cache capacity in entries.").Set(float64(cfg.CacheSize))
	}
	// Escalation needs a cache to upgrade; with caching disabled the
	// worker would have nowhere to put a proven result.
	if cfg.Escalate && sv.results != nil {
		sv.escq = make(chan escJob, escalateQueueSize)
		go sv.escalateLoop()
	}
	if sv.rt != nil {
		go sv.probeLoop()
	}
	return sv, nil
}

// Close cancels every in-flight solve and marks the server done. It is
// idempotent; jobs submitted after Close fail with context.Canceled.
func (sv *Server) Close() { sv.closed.Do(sv.cancel) }

// Meta describes how a job was answered.
type Meta struct {
	// Digest is the SOC content digest (soc.Digest).
	Digest string
	// Key is the full cache key: Digest plus width and normalized
	// options.
	Key string
	// Cached reports the result came from the LRU cache.
	Cached bool
	// Coalesced reports the job waited on an identical in-flight solve
	// instead of running its own.
	Coalesced bool
	// Elapsed is the request's service time inside Solve (for a cached
	// job, microseconds; the Result's own Elapsed field is always the
	// populating solve's cost).
	Elapsed time.Duration
}

// jobKey composes the cache key for one (SOC, width, options) job. The
// options must already be Normalized — the caller hashes the canonical
// form so parallelism knobs and spelled-out defaults cannot split
// cache entries. Every result-affecting Options field the service
// solves with appears here; the others are rejected in solve or are
// result-neutral, like Workers, Progress and Budget (a budget bounds
// how long a run may take, never what a completed run computes).
// TestJobKeyFieldContract holds every field to one of these classes.
func jobKey(digest string, width int, opt coopt.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|w=%d|strat=%d|maxtams=%d|node=%d|maxpower=%d|portfolio=%s",
		digest, width, opt.Strategy, opt.MaxTAMs, opt.NodeLimit, opt.MaxPower, opt.Portfolio)
	return fmt.Sprintf("job:%x", h.Sum(nil))
}

// errAblation rejects a job that sets one of coopt.Options' ablation
// knobs: no wire request can set them, and the paper-table experiments
// run them through coopt directly.
var errAblation = errors.New("serve: ablation options (SkipFinal, a non-canonical Enumeration) are not served")

// Solve answers one job: validate, canonicalize, consult the cache,
// deduplicate against identical in-flight solves, and only then spend a
// worker-pool slot on a cold coopt solve. The caller's SOC is resolved
// in one canonical pass; the HTTP paths skip this step and go straight
// to solve, because parseJob hands them SOCs the parser or the
// named-benchmark table has already validated and resolved. The
// returned Result is indexed on s's own core order whichever path
// produced it; see ARCHITECTURE.md §10 for why the cached and cold
// paths are bit-for-bit identical. ctx bounds this caller's wait (for a
// pool slot or for a shared in-flight solve); the solve itself runs
// under the server's lifecycle so one impatient client cannot poison
// the identical jobs of others.
func (sv *Server) Solve(ctx context.Context, s *soc.SOC, width int, opt coopt.Options) (coopt.Result, Meta, error) {
	if err := s.Validate(); err != nil {
		sv.m.failed.Inc()
		return coopt.Result{}, Meta{}, err
	}
	return sv.solve(ctx, resolve(s), width, opt, nil)
}

// solve is the shared request path. Anytime jobs (a Budget set) and
// observed jobs (fn non-nil) bypass the in-flight deduplication
// flights: a budget-bounded leader could hand its truncated incumbent
// to budget-free followers (or a patient leader could stall an
// aggressive-budget follower past its deadline), and a follower cannot
// observe a leader's progress — so those jobs solve directly, and only
// complete (non-truncated) results are ever cached.
func (sv *Server) solve(ctx context.Context, rs *resolvedSOC, width int, opt coopt.Options, fn coopt.ProgressFunc) (coopt.Result, Meta, error) {
	t0 := time.Now()
	meta := Meta{Digest: rs.digest}
	if opt.SkipFinal || opt.Enumeration != coopt.EnumCanonical {
		sv.m.failed.Inc()
		return coopt.Result{}, meta, errAblation
	}
	norm := opt.Normalized()
	meta.Key = jobKey(meta.Digest, width, norm)

	if sv.results != nil {
		res, ok := sv.results.Get(meta.Key)
		if ok {
			sv.m.cacheHits.Inc()
			// A cached entry is always a complete result (truncated ones
			// are never stored), so it answers deadline-bounded queries
			// too — a complete answer within any deadline.
			meta.Cached = true
			meta.Elapsed = time.Since(t0)
			sv.m.completed.Inc()
			return remapResult(res, rs.perm), meta, nil
		}
		sv.m.cacheMisses.Inc()
	}
	var res coopt.Result
	var err error
	if opt.Budget > 0 || fn != nil {
		run := norm
		run.Budget = opt.Budget
		run.Progress = fn
		res, err = sv.solveCold(ctx, rs.canon, width, run)
		if err == nil {
			sv.cachePut(meta.Key, rs.canon, width, norm, res)
		}
	} else {
		res, meta.Coalesced, err = sv.solveShared(ctx, meta.Key, rs.canon, width, norm)
	}
	if err != nil {
		sv.m.failed.Inc()
		return coopt.Result{}, meta, err
	}
	if sv.rt != nil && !res.Truncated {
		// If another node owns this digest, this was a degraded (or
		// routed-in under an inconsistent health view) solve — remember
		// how to replay it so the owner's cache can be warmed when it
		// recovers. No-op when this node is the owner.
		sv.rt.maybeRecordWarm(meta.Key, rs, width, norm)
	}
	meta.Elapsed = time.Since(t0)
	sv.m.completed.Inc()
	return remapResult(res, rs.perm), meta, nil
}

// retryAfter estimates when a shed client should come back: the
// cold-solve queue ahead of it paced at the observed mean solve time
// across the pool, clamped to [1s, 60s] so the Retry-After header is
// sane even before the first solve has finished.
func (sv *Server) retryAfter() time.Duration {
	avg := 500 * time.Millisecond
	if n := sv.m.solveSeconds.Count(); n > 0 {
		avg = time.Duration(sv.m.solveSeconds.Sum() / float64(n) * float64(time.Second))
	}
	waiting := sv.occupancy.Load() - int64(sv.cfg.Workers)
	if waiting < 1 {
		waiting = 1
	}
	est := time.Duration(float64(avg) * float64(waiting) / float64(sv.cfg.Workers))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// solveShared deduplicates cold solves: the first caller for a key
// becomes the leader and solves, later callers wait for its canonical
// result. Errors are returned to every waiter but never cached, so a
// transient failure (shutdown mid-solve) does not poison the key.
func (sv *Server) solveShared(ctx context.Context, key string, canon *soc.SOC, width int, norm coopt.Options) (coopt.Result, bool, error) {
	for {
		sv.fmu.Lock()
		if f, ok := sv.flights[key]; ok {
			sv.fmu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					sv.m.coalesced.Inc()
					return f.res, true, nil
				}
				// The one leader failure that is the leader's own, not
				// the job's: its request context was cancelled while it
				// waited for a pool slot. A follower whose context is
				// still live must not inherit that — retry as (or
				// behind) a new leader.
				if errors.Is(f.err, context.Canceled) && sv.base.Err() == nil && ctx.Err() == nil {
					continue
				}
				return f.res, true, f.err
			case <-ctx.Done():
				return coopt.Result{}, false, ctx.Err()
			}
		}
		// A leader stores its result before it removes its flight, so a
		// caller that missed the cache just before the store and finds no
		// flight here takes the stored result instead of solving again.
		if sv.results != nil {
			if res, ok := sv.results.Peek(key); ok {
				sv.fmu.Unlock()
				sv.m.coalesced.Inc()
				return res, true, nil
			}
		}
		f := &flight{done: make(chan struct{})}
		sv.flights[key] = f
		sv.fmu.Unlock()

		f.res, f.err = sv.solveCold(ctx, canon, width, norm)
		if f.err == nil {
			sv.cachePut(key, canon, width, norm, f.res)
		}
		sv.fmu.Lock()
		delete(sv.flights, key)
		sv.fmu.Unlock()
		close(f.done)
		return f.res, false, f.err
	}
}

// solveCold runs one canonical solve on the worker pool. The wait for a
// slot honors the caller's ctx; the solve itself runs under the
// server's lifecycle context only, so a started solve always completes
// (and lands in the cache) unless the server shuts down. With admission
// control on (Config.MaxQueue), a job that would push the cold-solve
// occupancy past workers+MaxQueue is shed right here, before it can
// park on the pool: bounded queueing is what turns overload into fast
// 429s instead of collapsing latency for everyone.
func (sv *Server) solveCold(ctx context.Context, canon *soc.SOC, width int, norm coopt.Options) (coopt.Result, error) {
	if sv.cfg.MaxQueue > 0 {
		if sv.occupancy.Add(1) > int64(sv.cfg.Workers+sv.cfg.MaxQueue) {
			sv.occupancy.Add(-1)
			sv.m.shed.Inc()
			return coopt.Result{}, &OverloadedError{RetryAfter: sv.retryAfter()}
		}
		defer sv.occupancy.Add(-1)
	}
	select {
	case sv.sem <- struct{}{}:
	case <-ctx.Done():
		return coopt.Result{}, ctx.Err()
	case <-sv.base.Done():
		return coopt.Result{}, sv.base.Err()
	}
	defer func() { <-sv.sem }()
	sv.m.inFlight.Add(1)
	defer sv.m.inFlight.Add(-1)

	res, elapsed, err := sv.observedSolve(canon, width, norm)
	sv.m.solveSeconds.Observe(elapsed.Seconds())
	if err != nil {
		return coopt.Result{}, err
	}
	sv.m.solved.Inc()
	return res, nil
}

// observedSolve is the server's one call into the solver: it runs the
// job at the configured solve parallelism under the server's lifecycle
// context and records the soctam_solver_* families. Incumbents are
// counted off the progress stream in front of any caller hook (the
// /v1/stream writer); the rest is recorded on return. The elapsed wall
// clock is returned so pool solves can book it once more, as
// soctam_jobs_solve_seconds.
func (sv *Server) observedSolve(canon *soc.SOC, width int, opt coopt.Options) (coopt.Result, time.Duration, error) {
	m := &sv.m
	strat := opt.Strategy.String()
	caller := opt.Progress
	opt.Progress = func(ev coopt.ProgressEvent) {
		if ev.Kind == coopt.ProgressImproved {
			m.solverIncumbents.With(ev.Backend).Inc()
		}
		if caller != nil {
			caller(ev)
		}
	}
	opt.Workers = sv.cfg.SolveWorkers
	t0 := time.Now()
	res, err := coopt.SolveContext(sv.base, canon, width, opt)
	elapsed := time.Since(t0)
	m.solverSeconds.With(strat).Observe(elapsed.Seconds())
	if err != nil {
		m.solverErrors.With(strat).Inc()
		return res, elapsed, err
	}
	m.solverSolves.With(strat).Inc()
	m.solverGap.With(strat).Observe(res.Gap)
	if res.Truncated {
		m.solverTruncated.With(strat).Inc()
	}
	for _, o := range []struct {
		outcome string
		n       int
	}{
		{"enumerated", res.Stats.Enumerated},
		{"completed", res.Stats.Completed},
		{"aborted", res.Stats.Aborted},
		{"improved", res.Stats.Improved},
		{"power_infeasible", res.Stats.PowerInfeasible},
	} {
		if o.n > 0 {
			m.solverPartitions.With(strat, o.outcome).Add(uint64(o.n))
		}
	}
	return res, elapsed, nil
}

// cachePut stores a completed solve's result and, when the result is
// not proven optimal, queues it for background escalation. Truncated
// results never enter the cache: a deadline-bounded incumbent answers
// the one request that set the deadline, but the shared entry for the
// key must hold a complete result — this is what keeps a hit
// bit-for-bit identical to the cold solve it replaces, whatever
// deadlines other clients used (see jobKey). A completed exact-engine
// result is never queued: it is unproven only because of its node cap
// or a partition dropped for power, and the ILP re-solve would return
// the same answer.
func (sv *Server) cachePut(key string, canon *soc.SOC, width int, norm coopt.Options, res coopt.Result) {
	if sv.results == nil || res.Truncated {
		return
	}
	if sv.results.Put(key, res) {
		sv.m.cacheEvictions.Inc()
	}
	if res.Proven || sv.escq == nil || exactEngine(res.Strategy) {
		return
	}
	select {
	case sv.escq <- escJob{key: key, canon: canon, width: width, norm: norm}:
	default: // backlog full: drop — escalation is best-effort
	}
}

// exactEngine reports whether strategy's row in the backend table
// carries the Exact flag.
func exactEngine(strategy coopt.Strategy) bool {
	for _, info := range coopt.Solvers() {
		if info.Strategy == strategy {
			return info.Exact
		}
	}
	return false
}

// escalateLoop drains the escalation backlog until the server closes.
func (sv *Server) escalateLoop() {
	for {
		select {
		case <-sv.base.Done():
			return
		case j := <-sv.escq:
			sv.escalateOne(j)
		}
	}
}

// escalateOne re-solves one cached, non-proven entry with the exact
// ILP branch-and-bound engine under the escalation budget and upgrades
// the entry when the exact run completes in budget with a proven
// testing time at least as good. The ILP engine proves the same optima
// as the exhaustive baseline while pruning most of its partition space,
// so more entries upgrade inside one budget. The no-worse guard matters
// beyond paranoia: a packing entry's schedule is not a fixed-bus
// architecture, so the exact fixed-bus optimum can be genuinely slower
// — such entries keep their heuristic result. The attempt takes a pool
// slot like any solve, so escalation only ever consumes idle
// capacity-equivalents and interactive jobs queue at worst one extra
// budget behind it.
func (sv *Server) escalateOne(j escJob) {
	// Peek: the escalation is no client, so it must move neither the
	// hit/miss counters nor the entry's recency.
	cur, ok := sv.results.Peek(j.key)
	if !ok || cur.Proven {
		return // evicted or already upgraded since it was queued
	}
	select {
	case sv.sem <- struct{}{}:
	case <-sv.base.Done():
		return
	}
	defer func() { <-sv.sem }()
	sv.m.escAttempts.Inc()

	opt := j.norm
	opt.Strategy = coopt.StrategyILP
	opt.Portfolio = ""
	opt.Budget = sv.cfg.EscalateBudget
	res, _, err := sv.observedSolve(j.canon, j.width, opt)
	if err != nil || res.Truncated || !res.Proven || res.Time > cur.Time {
		return
	}
	if sv.results.Put(j.key, res) {
		sv.m.cacheEvictions.Inc()
	}
	sv.m.escalated.Inc()
}

// remapResult re-indexes a canonical-order result onto the query's core
// order: perm[j] is the query index of the core at canonical position
// j. Every slice in the output is freshly allocated — the input is the
// shared cache entry and must never be aliased by a response.
func remapResult(res coopt.Result, perm []int) coopt.Result {
	out := res // scalars and Stats copy by value
	out.Partition = slices.Clone(res.Partition)
	if res.Assignment.TAMOf != nil {
		tamOf := make([]int, len(res.Assignment.TAMOf))
		for j, tam := range res.Assignment.TAMOf {
			tamOf[perm[j]] = tam
		}
		out.Assignment.TAMOf = tamOf
	}
	out.Assignment.Loads = slices.Clone(res.Assignment.Loads)
	if res.Packing != nil {
		sch := *res.Packing
		sch.Rects = slices.Clone(res.Packing.Rects)
		for i := range sch.Rects {
			sch.Rects[i].Core = perm[sch.Rects[i].Core]
		}
		out.Packing = &sch
	}
	out.Portfolio = slices.Clone(res.Portfolio)
	return out
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers and SolveWorkers echo the resolved pool configuration.
	Workers      int `json:"workers"`
	SolveWorkers int `json:"solve_workers"`
	// Jobs counts request outcomes.
	Jobs JobStats `json:"jobs"`
	// Cache reports the result-cache counters.
	Cache CacheStats `json:"cache"`
	// ThroughputJobsPerSec is completed jobs over uptime.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	// Ring reports the digest-sharding state; nil on a single node.
	Ring *RingStats `json:"ring,omitempty"`
}

// RingStats is the /v1/stats view of a cluster node's sharding layer.
type RingStats struct {
	// Self is this node's ring identity (normalized host:port).
	Self string `json:"self"`
	// Members lists every ring member with its last known health.
	Members []PeerStatus `json:"members"`
	// Routed counts requests answered by forwarding to their owner;
	// RoutedErrors counts forwards that failed (each one degraded).
	Routed       int64 `json:"routed"`
	RoutedErrors int64 `json:"routed_errors"`
	// Degraded counts jobs solved locally although a peer owns their
	// digest (the owner was down or unreachable).
	Degraded int64 `json:"degraded"`
	// WarmPushed counts warm-handoff replays accepted by recovered
	// owners.
	WarmPushed int64 `json:"warm_pushed"`
}

// PeerStatus is one ring member's identity and health.
type PeerStatus struct {
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
	Up   bool   `json:"up"`
}

// JobStats counts job outcomes since the server started.
type JobStats struct {
	// Completed and Failed count answered jobs by outcome.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// InFlight is the number of solves holding a pool slot right now.
	InFlight int64 `json:"in_flight"`
	// Solved counts cold solves actually run; Coalesced counts jobs
	// that shared another job's in-flight solve.
	Solved    int64 `json:"solved"`
	Coalesced int64 `json:"coalesced"`
	// Shed counts cold jobs rejected by admission control (429 +
	// Retry-After); 0 unless Config.MaxQueue is set. Always present so
	// load tooling can assert on it.
	Shed int64 `json:"shed"`
	// SolveSeconds is the summed wall clock of all cold solves — the
	// compute the cache and coalescing saved is
	// (Completed - Solved) / Solved of this, roughly.
	SolveSeconds float64 `json:"solve_seconds"`
	// Escalations counts background escalation solves attempted;
	// Escalated counts cache entries actually upgraded to a proven
	// result. Both stay 0 unless Config.Escalate is on.
	Escalations int64 `json:"escalations,omitempty"`
	Escalated   int64 `json:"escalated,omitempty"`
}

// CacheStats reports the result cache. With caching disabled only
// Enabled is meaningful.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// Stats returns a point-in-time snapshot of the service counters. It
// is a reader of the same registry GET /metrics encodes — every value
// below is a handle read, not a second set of books — so the two
// surfaces agree by construction (the only caveat is that concurrent
// writers can advance one counter between two reads, the same
// point-in-time skew any snapshot of live atomics has).
func (sv *Server) Stats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(sv.started).Seconds(),
		Workers:       sv.cfg.Workers,
		SolveWorkers:  sv.cfg.SolveWorkers,
		Jobs: JobStats{
			Completed:    int64(sv.m.completed.Value()),
			Failed:       int64(sv.m.failed.Value()),
			InFlight:     int64(sv.m.inFlight.Value()),
			Solved:       int64(sv.m.solved.Value()),
			Coalesced:    int64(sv.m.coalesced.Value()),
			Shed:         int64(sv.m.shed.Value()),
			SolveSeconds: sv.m.solveSeconds.Sum(),
			Escalations:  int64(sv.m.escAttempts.Value()),
			Escalated:    int64(sv.m.escalated.Value()),
		},
	}
	if sv.results != nil {
		st.Cache = CacheStats{
			Enabled:   true,
			Entries:   sv.results.Len(),
			Capacity:  sv.cfg.CacheSize,
			Hits:      sv.m.cacheHits.Value(),
			Misses:    sv.m.cacheMisses.Value(),
			Evictions: sv.m.cacheEvictions.Value(),
		}
		if total := st.Cache.Hits + st.Cache.Misses; total > 0 {
			st.Cache.HitRate = float64(st.Cache.Hits) / float64(total)
		}
	}
	if sv.rt != nil {
		rs := &RingStats{
			Self:         sv.rt.self,
			Routed:       int64(sv.rt.routed.Value()),
			RoutedErrors: int64(sv.rt.routedErrors.Value()),
			Degraded:     int64(sv.rt.degraded.Value()),
			WarmPushed:   int64(sv.rt.warmPushed.Value()),
		}
		for _, m := range sv.rt.ring.Members() {
			ps := PeerStatus{Addr: m}
			if m == sv.rt.self {
				ps.Self, ps.Up = true, true
			} else {
				ps.Up = sv.rt.peers[m].up.Load()
			}
			rs.Members = append(rs.Members, ps)
		}
		st.Ring = rs
	}
	if st.UptimeSeconds > 0 {
		st.ThroughputJobsPerSec = float64(st.Jobs.Completed) / st.UptimeSeconds
	}
	return st
}
