package serve

import (
	"net/http"
	"strconv"
	"time"

	"soctam/internal/obs"
)

// The serving layer's metric families. Every counter the server keeps
// lives in the per-server obs.Registry and nowhere else: GET /metrics
// encodes the registry and GET /v1/stats reads the very same handles,
// so the two surfaces cannot disagree (ARCHITECTURE.md §16). Handles
// are resolved once at construction; the request path touches only
// atomics.

// serverMetrics bundles the job-, solver- and HTTP-level instrument
// handles.
type serverMetrics struct {
	completed    obs.Counter   // jobs answered successfully
	failed       obs.Counter   // jobs answered with an error
	solved       obs.Counter   // cold solves actually run
	coalesced    obs.Counter   // jobs served by waiting on another's solve
	shed         obs.Counter   // cold solves rejected by admission control
	inFlight     obs.Gauge     // solves currently holding a pool slot
	solveSeconds obs.Histogram // cold-solve wall clock
	escAttempts  obs.Counter   // escalation solves attempted
	escalated    obs.Counter   // cache entries upgraded by escalation

	// The solver families, recorded by observedSolve for every solve the
	// server runs, escalations included.
	solverSolves     obs.CounterVec   // solves completed, by requested strategy
	solverErrors     obs.CounterVec   // solves that returned an error
	solverSeconds    obs.HistogramVec // wall clock per solve
	solverGap        obs.HistogramVec // optimality gap at return
	solverTruncated  obs.CounterVec   // deadline-truncated returns
	solverIncumbents obs.CounterVec   // incumbent improvements, by backend
	solverPartitions obs.CounterVec   // partition-evaluation outcomes

	httpRequests obs.CounterVec   // requests by route and status code
	httpSeconds  obs.HistogramVec // request latency by route
	httpInflight obs.Gauge        // requests currently being served

	// Cache counters are resolved only when the result cache is enabled;
	// the zero handles are never touched otherwise. The request path
	// counts hits and misses at its one cache lookup and evictions at
	// the cache's two stores.
	cacheHits      obs.Counter
	cacheMisses    obs.Counter
	cacheEvictions obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		completed: r.Counter("soctam_jobs_completed_total",
			"Jobs answered successfully (any path: cache, coalesced, cold)."),
		failed: r.Counter("soctam_jobs_failed_total",
			"Jobs answered with an error (parse failures included)."),
		solved: r.Counter("soctam_jobs_solved_total",
			"Cold solves actually run on the worker pool."),
		coalesced: r.Counter("soctam_jobs_coalesced_total",
			"Jobs served by waiting on an identical in-flight solve."),
		shed: r.Counter("soctam_jobs_shed_total",
			"Cold jobs rejected by admission control (429 + Retry-After)."),
		inFlight: r.Gauge("soctam_jobs_inflight",
			"Solves currently holding a worker-pool slot."),
		solveSeconds: r.Histogram("soctam_jobs_solve_seconds",
			"Wall clock of cold solves on the worker pool.", obs.DefTimeBuckets),
		escAttempts: r.Counter("soctam_escalations_total",
			"Background escalation solves attempted."),
		escalated: r.Counter("soctam_escalated_total",
			"Cache entries upgraded to a proven result by escalation."),
		solverSolves: r.CounterVec("soctam_solver_solves_total",
			"Solves completed, by requested strategy.", "strategy"),
		solverErrors: r.CounterVec("soctam_solver_errors_total",
			"Solves that returned an error, by requested strategy.", "strategy"),
		solverSeconds: r.HistogramVec("soctam_solver_solve_seconds",
			"Wall-clock solve latency, by requested strategy.", obs.DefTimeBuckets, "strategy"),
		solverGap: r.HistogramVec("soctam_solver_gap_ratio",
			"Relative optimality gap of returned results against the lower bound.", obs.DefGapBuckets, "strategy"),
		solverTruncated: r.CounterVec("soctam_solver_truncated_total",
			"Deadline-truncated results (best incumbent returned), by requested strategy.", "strategy"),
		solverIncumbents: r.CounterVec("soctam_solver_incumbents_total",
			"Incumbent improvements observed on the progress stream, by backend.", "backend"),
		solverPartitions: r.CounterVec("soctam_solver_partitions_total",
			"Partition-evaluation outcomes (the paper's Table 1 counters; for the ILP backend, aborted counts bound-pruned partitions).", "strategy", "outcome"),
		httpRequests: r.CounterVec("soctam_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		httpSeconds: r.HistogramVec("soctam_http_request_seconds",
			"HTTP request latency, by route.", obs.DefTimeBuckets, "route"),
		httpInflight: r.Gauge("soctam_http_inflight_requests",
			"HTTP requests currently being served."),
	}
}

// resolveCacheMetrics fills in the cache counter handles; called only
// when the result cache is enabled so a cache-disabled server exposes
// no cache families at all.
func (m *serverMetrics) resolveCacheMetrics(r *obs.Registry) {
	m.cacheHits = r.Counter("soctam_cache_hits_total", "Result-cache hits.")
	m.cacheMisses = r.Counter("soctam_cache_misses_total", "Result-cache misses.")
	m.cacheEvictions = r.Counter("soctam_cache_evictions_total",
		"Result-cache entries evicted to make room.")
}

// Registry exposes the server's metrics registry: the single source of
// truth behind GET /metrics and GET /v1/stats. Callers may register
// additional families on it or read it directly; handle getters are
// get-or-create, so resolving an existing name observes the server's
// own counters.
func (sv *Server) Registry() *obs.Registry { return sv.reg }

// statusWriter records the status code a handler writes, and always
// implements http.Flusher (delegating when the wrapped writer supports
// it) so the streaming handlers' flusher type assertions keep working
// under instrumentation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-route request, latency and status
// accounting. The route label is the registered pattern, never the raw
// URL path, so label cardinality stays bounded whatever clients send.
func (sv *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	seconds := sv.m.httpSeconds.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sv.m.httpInflight.Add(1)
		defer sv.m.httpInflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		seconds.Observe(time.Since(t0).Seconds())
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: implicit 200
		}
		sv.m.httpRequests.With(route, strconv.Itoa(status)).Inc()
	}
}

// handleMetrics serves GET /metrics: the registry in Prometheus text
// exposition format v0.0.4.
func (sv *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = sv.reg.WriteText(w) // a failed write means the scraper went away
}
