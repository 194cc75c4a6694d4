package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"soctam/internal/coopt"
	"soctam/internal/soc"
)

// The HTTP/JSON surface of the service. Wire formats are explicit DTO
// structs — never the internal coopt types — so the public API (see
// API.md for the schema reference) survives internal refactors.

// solveRequest is the body of POST /v1/solve and each element of a
// /v1/batch jobs array. Exactly one of SOC (inline .soc text) and
// Benchmark (a built-in SOC name) must be set.
type solveRequest struct {
	SOC       string       `json:"soc,omitempty"`
	Benchmark string       `json:"benchmark,omitempty"`
	Width     int          `json:"width"`
	Options   *optionsJSON `json:"options,omitempty"`
}

// optionsJSON mirrors the result-affecting wtam flags. Parallelism is
// the daemon's business (Config), so there is deliberately no
// "workers" field — it could not change any result, only split cache
// entries if it leaked into the key.
type optionsJSON struct {
	// Strategy is a backend name from GET /v1/solvers or a portfolio
	// subset spec ("portfolio:partition,exhaustive") — the one wire
	// spelling of a race subset; names are whitespace-trimmed and
	// case-insensitive.
	Strategy  string `json:"strategy,omitempty"`
	MaxTAMs   int    `json:"max_tams,omitempty"`
	MaxPower  int    `json:"max_power,omitempty"`
	NodeLimit int64  `json:"node_limit,omitempty"`
	// DeadlineMS, when > 0, bounds the solve: past the deadline the
	// solver returns its best incumbent so far (a valid schedule tagged
	// truncated, with its optimality gap) instead of an error. It does
	// not enter the cache key — a deadline bounds how long the solve
	// may take, never what it computes — and truncated results are
	// never cached.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// solveResponse is the body of a successful POST /v1/solve (and, with
// a job index, one /v1/batch NDJSON line).
type solveResponse struct {
	// Digest is the canonical SOC content digest; Key the full cache
	// key (digest + width + normalized options).
	Digest string `json:"digest"`
	Key    string `json:"key"`
	// Cached and Coalesced report how the job was answered: from the
	// result cache, or by sharing an identical in-flight solve.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// ElapsedMS is this request's service time; Result.SolveMS is the
	// populating solve's own cost (they differ on cache hits).
	ElapsedMS float64    `json:"elapsed_ms"`
	Result    resultJSON `json:"result"`
	// Node is the cluster node that answered (its host:port ring
	// identity); empty on a single-node server. A routed request
	// reports the owner it was forwarded to.
	Node string `json:"node,omitempty"`
	// Degraded marks a cluster answer computed locally although another
	// node owns the digest — the owner was down, so this node fell back
	// to a local solve (bit-for-bit the same result, colder cache).
	Degraded bool `json:"degraded,omitempty"`
}

// resultJSON is the wire form of a coopt.Result, indexed on the
// query's own core order.
type resultJSON struct {
	TotalWidth        int    `json:"total_width"`
	Strategy          string `json:"strategy"`
	Time              int64  `json:"time"`
	HeuristicTime     int64  `json:"heuristic_time"`
	NumTAMs           int    `json:"num_tams,omitempty"`
	Partition         []int  `json:"partition,omitempty"`
	Assignment        []int  `json:"assignment,omitempty"`
	AssignmentOptimal bool   `json:"assignment_optimal,omitempty"`
	MaxPower          int    `json:"max_power,omitempty"`
	PeakPower         int    `json:"peak_power,omitempty"`
	// Gap is the proven optimality gap ((time - lower bound) / lower
	// bound); 0 means the result provably matches the bound. Always
	// present so deadline-bounded clients can gate on it.
	Gap float64 `json:"gap"`
	// Truncated marks a deadline-bounded result: the best incumbent at
	// the cutoff rather than the strategy's natural answer.
	Truncated bool `json:"truncated,omitempty"`
	// Proven marks a result known optimal: gap 0, or an exact engine's
	// completed scan with every assignment solved exactly and, under a
	// power ceiling, no partition dropped for power.
	Proven    bool             `json:"proven,omitempty"`
	SolveMS   float64          `json:"solve_ms"`
	Stats     *statsJSON       `json:"stats,omitempty"`
	Packing   *packingJSON     `json:"packing,omitempty"`
	Portfolio []backendRunJSON `json:"portfolio,omitempty"`
}

type statsJSON struct {
	Enumerated      int `json:"enumerated"`
	Completed       int `json:"completed"`
	Aborted         int `json:"aborted"`
	Improved        int `json:"improved"`
	PowerInfeasible int `json:"power_infeasible,omitempty"`
}

type packingJSON struct {
	Makespan int64      `json:"makespan"`
	Bound    int64      `json:"bound"`
	Rects    []rectJSON `json:"rects"`
}

type rectJSON struct {
	Core  int    `json:"core"`
	Name  string `json:"name,omitempty"`
	Wire  int    `json:"wire"`
	Width int    `json:"width"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Power int    `json:"power,omitempty"`
}

type backendRunJSON struct {
	Strategy  string  `json:"strategy"`
	Time      int64   `json:"time,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Cancelled bool    `json:"cancelled,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	Err       string  `json:"error,omitempty"`
	Winner    bool    `json:"winner,omitempty"`
}

// errorJSON is every error body: {"error": {"code": ..., "message": ...}}.
type errorJSON struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError carries a status and machine-readable code alongside the
// message; every handler failure is one of these. retryAfter, when
// positive, is surfaced as a Retry-After header (load shedding).
type httpError struct {
	status     int
	code       string
	msg        string
	retryAfter int // seconds
}

func (e *httpError) Error() string { return e.msg }

// body is the error's wire form, for in-band NDJSON lines.
func (e *httpError) body() *errorBody { return &errorBody{Code: e.code, Message: e.msg} }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

// asHTTPError classifies an error from the solve path. Solver failures
// are the client's problem statement (infeasible width, power ceiling
// no schedule fits under), not the server's, hence 422. A shed job maps
// to 429 with a Retry-After so well-behaved clients back off exactly as
// long as the pool needs.
func asHTTPError(err error) *httpError {
	var he *httpError
	var ov *OverloadedError
	switch {
	case errors.As(err, &he):
		return he
	case errors.As(err, &ov):
		secs := int((ov.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return &httpError{status: http.StatusTooManyRequests, code: "overloaded",
			msg: err.Error(), retryAfter: secs}
	case errors.Is(err, ErrShuttingDown):
		return &httpError{status: http.StatusServiceUnavailable, code: "shutting_down", msg: err.Error()}
	default:
		return &httpError{status: http.StatusUnprocessableEntity, code: "unsolvable", msg: err.Error()}
	}
}

// ErrShuttingDown is wrapped into solve errors once Close (or the Run
// context) has fired; HTTP maps it to 503.
var ErrShuttingDown = errors.New("server is shutting down")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a failed write means the client went away
}

func writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
	}
	writeJSON(w, he.status, errorJSON{Error: *he.body()})
}

// parseJob turns a request into a solvable job, its SOC resolved: an
// inline SOC gets its one canonical pass here (the parser has validated
// it), and a named benchmark is the process-wide entry of namedSOC.
func parseJob(req *solveRequest) (*resolvedSOC, int, coopt.Options, *httpError) {
	var rs *resolvedSOC
	switch {
	case req.SOC != "" && req.Benchmark != "":
		return nil, 0, coopt.Options{}, badRequest(`use either "soc" or "benchmark", not both`)
	case req.SOC != "":
		parsed, err := soc.ParseString(req.SOC)
		if err != nil {
			return nil, 0, coopt.Options{}, badRequest("bad soc text: %v", err)
		}
		rs = resolve(parsed)
	case req.Benchmark != "":
		bench, err := namedSOC(req.Benchmark)
		if err != nil {
			return nil, 0, coopt.Options{}, badRequest("%v", err)
		}
		rs = bench
	default:
		return nil, 0, coopt.Options{}, badRequest(`one of "soc" or "benchmark" is required`)
	}
	if req.Width < 1 {
		return nil, 0, coopt.Options{}, badRequest("width %d < 1", req.Width)
	}
	var opt coopt.Options
	if o := req.Options; o != nil {
		if o.Strategy != "" {
			strat, subset, err := coopt.ParseSpec(o.Strategy)
			if err != nil {
				return nil, 0, coopt.Options{}, badRequest("%v", err)
			}
			opt.Strategy = strat
			opt.Portfolio = subset
		}
		if o.MaxTAMs < 0 {
			return nil, 0, coopt.Options{}, badRequest("max_tams %d < 0", o.MaxTAMs)
		}
		if o.MaxPower < 0 {
			return nil, 0, coopt.Options{}, badRequest("max_power %d < 0", o.MaxPower)
		}
		if o.DeadlineMS < 0 {
			return nil, 0, coopt.Options{}, badRequest("deadline_ms %d < 0", o.DeadlineMS)
		}
		opt.MaxTAMs = o.MaxTAMs
		opt.MaxPower = o.MaxPower
		opt.NodeLimit = o.NodeLimit
		opt.Budget = time.Duration(o.DeadlineMS) * time.Millisecond
	}
	return rs, req.Width, opt, nil
}

// readBody buffers a request body under the configured cap, counting a
// failure in jobs.failed. The raw bytes are kept because the router
// forwards them verbatim — a forwarded job is byte-identical to the job
// the client sent, so the owner parses exactly what this node parsed.
func (sv *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *httpError) {
	r.Body = http.MaxBytesReader(w, r.Body, sv.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		sv.m.failed.Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("reading request body: %v", err)
	}
	return body, nil
}

// decodeStrict decodes JSON rejecting unknown fields (catching typos
// like "widht" that would otherwise silently solve the wrong job) and
// trailing garbage.
func decodeStrict(body []byte, v any) *httpError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// Handler returns the service's HTTP handler: POST /v1/solve, POST
// /v1/batch, POST /v1/stream, GET /v1/solvers, GET /v1/healthz, GET
// /v1/stats, GET /metrics (Prometheus text exposition of the server's
// registry) and, when Config.Pprof is set, GET /debug/pprof/*. Every
// v1 response is JSON (NDJSON for batch and stream); see API.md for
// the schemas, error codes and curl examples. Each route is
// instrumented with request/latency/status metrics under its
// registered pattern (unknown paths aggregate under "other", keeping
// label cardinality bounded).
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(route, verb string, h http.HandlerFunc) {
		mux.HandleFunc(route, sv.instrument(route, method(verb, h)))
	}
	handle("/v1/solve", http.MethodPost, sv.handleSolve)
	handle("/v1/batch", http.MethodPost, sv.handleBatch)
	handle("/v1/stream", http.MethodPost, sv.handleStream)
	handle("/v1/solvers", http.MethodGet, sv.handleSolvers)
	handle("/v1/healthz", http.MethodGet, sv.handleHealthz)
	handle("/v1/stats", http.MethodGet, sv.handleStats)
	handle("/metrics", http.MethodGet, sv.handleMetrics)
	endpoints := "/v1/solve, /v1/batch, /v1/stream, /v1/solvers, /v1/healthz, /v1/stats, /metrics"
	if sv.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", sv.instrument("/debug/pprof/", pprof.Index))
		mux.HandleFunc("/debug/pprof/cmdline", sv.instrument("/debug/pprof/", pprof.Cmdline))
		mux.HandleFunc("/debug/pprof/profile", sv.instrument("/debug/pprof/", pprof.Profile))
		mux.HandleFunc("/debug/pprof/symbol", sv.instrument("/debug/pprof/", pprof.Symbol))
		mux.HandleFunc("/debug/pprof/trace", sv.instrument("/debug/pprof/", pprof.Trace))
		endpoints += ", /debug/pprof/"
	}
	notFound := fmt.Sprintf("(have %s)", endpoints)
	mux.HandleFunc("/", sv.instrument("other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &httpError{status: http.StatusNotFound, code: "not_found",
			msg: fmt.Sprintf("no such endpoint %s %s", r.URL.Path, notFound)})
	}))
	return mux
}

// method wraps a handler with a uniform JSON 405 for wrong methods.
func method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeError(w, &httpError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
				msg: fmt.Sprintf("%s requires %s, got %s", r.URL.Path, want, r.Method)})
			return
		}
		h(w, r)
	}
}

// job is one parsed, routed request: the resolved SOC, width and
// options, the live owner to forward it to (nil = answer here) and
// whether answering here is a degraded fallback (the owner is down).
type job struct {
	rs       *resolvedSOC
	width    int
	opt      coopt.Options
	owner    *peer
	degraded bool
}

// parseRequest is the one way a request body becomes a job, for every
// way in: the whole body of /v1/solve and /v1/stream, each element of a
// /v1/batch. It decodes strictly, parses and routes, and counts a
// failure once in jobs.failed.
func (sv *Server) parseRequest(r *http.Request, body []byte) (job, *httpError) {
	var req solveRequest
	var j job
	he := decodeStrict(body, &req)
	if he == nil {
		j.rs, j.width, j.opt, he = parseJob(&req)
	}
	if he != nil {
		sv.m.failed.Inc()
		return job{}, he
	}
	j.owner, j.degraded = sv.routeFor(r, j.rs)
	return j, nil
}

// readJob reads and parses the body of /v1/solve or /v1/stream. On a
// failure it writes the error response itself and reports false.
func (sv *Server) readJob(w http.ResponseWriter, r *http.Request) ([]byte, job, bool) {
	body, he := sv.readBody(w, r)
	var j job
	if he == nil {
		j, he = sv.parseRequest(r, body)
	}
	if he != nil {
		writeError(w, he)
		return nil, job{}, false
	}
	return body, j, true
}

// answer solves a job on this node and shapes its response; every way
// in ends here unless its owner answered. A job still carrying an owner
// is one whose forward failed, so like a job whose owner is down it is
// booked and marked degraded. fn, when non-nil, observes the solve's
// progress (/v1/stream).
func (sv *Server) answer(r *http.Request, j job, fn coopt.ProgressFunc) (*solveResponse, *httpError) {
	degraded := j.degraded || j.owner != nil
	if degraded {
		sv.rt.degraded.Inc()
	}
	res, meta, err := sv.solve(r.Context(), j.rs, j.width, j.opt, fn)
	if err != nil {
		if sv.base.Err() != nil {
			err = fmt.Errorf("%w: %v", ErrShuttingDown, err)
		}
		return nil, asHTTPError(err)
	}
	return &solveResponse{
		Digest:    meta.Digest,
		Key:       meta.Key,
		Cached:    meta.Cached,
		Coalesced: meta.Coalesced,
		ElapsedMS: float64(meta.Elapsed) / float64(time.Millisecond),
		Result:    toResultJSON(j.rs.query, res),
		Node:      sv.nodeName(),
		Degraded:  degraded,
	}, nil
}

// ndjson is the NDJSON response of /v1/batch and /v1/stream. Every
// line is flushed, and one mutex keeps lines whole: a stream's progress
// lines come from solver goroutines, its terminal line from the
// handler. The 200 header goes out with the first line, so until then
// a failure can still answer with its own status (fail).
type ndjson struct {
	w   http.ResponseWriter
	mu  sync.Mutex
	enc *json.Encoder // nil until the first line
}

// line writes one line, sending the 200 header before the first.
func (o *ndjson) line(v any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.enc == nil {
		o.w.Header().Set("Content-Type", "application/x-ndjson")
		o.w.WriteHeader(http.StatusOK)
		o.enc = json.NewEncoder(o.w)
		o.enc.SetEscapeHTML(false)
	}
	_ = o.enc.Encode(v) // a failed write means the client went away
	if flusher, ok := o.w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// fail ends the response with he: as writeError's plain error response
// (its status, Retry-After and body) when no line has gone out yet,
// else as the in-band line the caller shaped from it.
func (o *ndjson) fail(he *httpError, inband any) {
	o.mu.Lock()
	if o.enc == nil {
		defer o.mu.Unlock()
		writeError(o.w, he)
		return
	}
	o.mu.Unlock()
	o.line(inband)
}

// handleSolve serves POST /v1/solve; a forwarded job's reply is relayed
// verbatim.
func (sv *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	body, j, ok := sv.readJob(w, r)
	if !ok || j.owner != nil && sv.forwardSolve(w, r, j.owner, body) {
		return
	}
	resp, he := sv.answer(r, j, nil)
	if he != nil {
		writeError(w, he)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// nodeName is this node's ring identity, or "" on a single node.
func (sv *Server) nodeName() string {
	if sv.rt == nil {
		return ""
	}
	return sv.rt.self
}

func toResultJSON(s *soc.SOC, res coopt.Result) resultJSON {
	out := resultJSON{
		TotalWidth:        res.TotalWidth,
		Strategy:          res.Strategy.String(),
		Time:              int64(res.Time),
		HeuristicTime:     int64(res.HeuristicTime),
		NumTAMs:           res.NumTAMs,
		Partition:         res.Partition,
		Assignment:        res.Assignment.TAMOf,
		AssignmentOptimal: res.AssignmentOptimal,
		MaxPower:          res.MaxPower,
		PeakPower:         res.PeakPower,
		Gap:               res.Gap,
		Truncated:         res.Truncated,
		Proven:            res.Proven,
		SolveMS:           float64(res.Elapsed) / float64(time.Millisecond),
	}
	// The enumerating backends report their evaluation counters; the
	// packers have none (a packed schedule has no partition enumeration).
	if res.Packing == nil {
		st := statsJSON(res.Stats)
		out.Stats = &st
	} else {
		p := &packingJSON{
			Makespan: int64(res.Packing.Makespan),
			Bound:    int64(res.Packing.Bound),
			Rects:    make([]rectJSON, len(res.Packing.Rects)),
		}
		for i := range res.Packing.Rects {
			rect := &res.Packing.Rects[i]
			p.Rects[i] = rectJSON{
				Core:  rect.Core,
				Name:  s.Cores[rect.Core].Name,
				Wire:  rect.Wire,
				Width: rect.Width,
				Start: int64(rect.Start),
				End:   int64(rect.End),
				Power: rect.Power,
			}
		}
		out.Packing = p
	}
	for _, run := range res.Portfolio {
		out.Portfolio = append(out.Portfolio, backendRunJSON{
			Strategy:  run.Strategy.String(),
			Time:      int64(run.Time),
			ElapsedMS: float64(run.Elapsed) / float64(time.Millisecond),
			Cancelled: run.Cancelled,
			Truncated: run.Truncated,
			Err:       run.Err,
			Winner:    run.Winner,
		})
	}
	return out
}

// batchRequest is the body of POST /v1/batch. Jobs are raw so one
// malformed job fails that job's line, not the whole batch.
type batchRequest struct {
	Jobs []json.RawMessage `json:"jobs"`
}

// batchLine is one NDJSON line of the batch response: the job's index
// in the request array plus either a full solve response or an error.
type batchLine struct {
	Job int `json:"job"`
	*solveResponse
	Error *errorBody `json:"error,omitempty"`
}

func (sv *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, he := sv.readBody(w, r)
	if he != nil {
		writeError(w, he)
		return
	}
	var req batchRequest
	he = decodeStrict(body, &req)
	switch {
	case he != nil:
	case len(req.Jobs) == 0:
		he = badRequest("batch has no jobs")
	case len(req.Jobs) > sv.cfg.MaxBatchJobs:
		he = &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("batch has %d jobs, limit is %d", len(req.Jobs), sv.cfg.MaxBatchJobs)}
	}
	if he != nil {
		sv.m.failed.Inc() // a whole-batch rejection counts once
		writeError(w, he)
		return
	}

	// Fan the jobs out; the worker pool bounds actual solving, so a
	// goroutine per job only parks cheap waiters. Lines stream back in
	// completion order — the "job" index is the client's correlation
	// handle.
	lines := make(chan batchLine)
	var wg sync.WaitGroup
	for i, raw := range req.Jobs {
		wg.Add(1)
		go func(i int, raw json.RawMessage) {
			defer wg.Done()
			lines <- sv.batchJob(r, i, raw)
		}(i, raw)
	}
	go func() { wg.Wait(); close(lines) }()

	out := &ndjson{w: w}
	for line := range lines {
		// Keep draining after a failed write (the client went away) so
		// the workers can finish and populate the cache.
		out.line(line)
	}
}

// batchJob answers one batch element, yielding exactly one line
// whatever the cluster does: a job owned by a live peer is forwarded
// there (its success or error relays on this job's line), and a peer
// that cannot answer degrades the job to a local solve — never a lost
// or duplicated line.
func (sv *Server) batchJob(r *http.Request, i int, raw json.RawMessage) batchLine {
	j, he := sv.parseRequest(r, raw)
	if he != nil {
		return batchLine{Job: i, Error: he.body()}
	}
	if j.owner != nil {
		if resp, eb, ok := sv.rt.forwardBatchJob(r.Context(), j.owner, raw); ok {
			return batchLine{Job: i, solveResponse: resp, Error: eb}
		}
	}
	resp, he := sv.answer(r, j, nil)
	if he != nil {
		return batchLine{Job: i, Error: he.body()}
	}
	return batchLine{Job: i, solveResponse: resp}
}

// streamLine is one NDJSON line of the POST /v1/stream response:
// progress events ("start", "improved", "done", "cancelled") as they
// happen, then exactly one terminal line — "result" with the full
// solve response, or "error" with the standard error body. A cache hit
// emits only the terminal "result" line (there is no solve to watch).
type streamLine struct {
	Event   string `json:"event"`
	Backend string `json:"backend,omitempty"`
	// Time is the event's testing time (the new incumbent for
	// "improved", the final time for a successful "done").
	Time int64 `json:"time,omitempty"`
	// Partitions is the 1-based enumeration sequence number of an
	// improving partition, for backends that enumerate partitions.
	Partitions int `json:"partitions,omitempty"`
	// BackendErr carries a failed backend's "done" message (a portfolio
	// racer can fail while another wins).
	BackendErr string  `json:"backend_error,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`
	// Result is the terminal "result" payload — the same schema as a
	// POST /v1/solve response.
	Result *solveResponse `json:"result,omitempty"`
	// Error is the terminal "error" payload — the same body as a
	// non-streaming error response, delivered in-band because the 200
	// header went out with the first progress line.
	Error *errorBody `json:"error,omitempty"`
}

// handleStream serves POST /v1/stream: the request schema of /v1/solve,
// answered as an NDJSON stream of solver progress (incumbent
// improvements, backend lifecycle) followed by one terminal line. The
// 200 header goes out with the first line, so a failure before solving
// starts — a bad request, a shed job, shutdown while queued — answers
// with the normal JSON error status (and Retry-After), exactly as on
// /v1/solve; once streaming begins, failures arrive as a terminal
// "error" line on the 200 stream. A cache hit answers immediately and
// streams no events (there is no solve to observe); otherwise the job
// always runs its own solve — the events belong to this caller, so the
// run neither joins nor leads an in-flight deduplication flight. The
// completed result still lands in the cache under the
// deadline-independent key.
func (sv *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	body, j, ok := sv.readJob(w, r)
	if !ok || j.owner != nil && sv.forwardStream(w, r, j.owner, body) {
		return
	}
	out := &ndjson{w: w}
	resp, he := sv.answer(r, j, func(ev coopt.ProgressEvent) {
		out.line(streamLine{
			Event:      ev.Kind.String(),
			Backend:    ev.Backend,
			Time:       int64(ev.Time),
			Partitions: ev.Partitions,
			BackendErr: ev.Err,
			ElapsedMS:  float64(ev.Elapsed) / float64(time.Millisecond),
		})
	})
	if he != nil {
		out.fail(he, streamLine{Event: "error", Error: he.body()})
		return
	}
	out.line(streamLine{Event: "result", Result: resp})
}

// solverJSON is one GET /v1/solvers entry: a selectable backend's name
// and capability flags — the discovery surface clients use to build
// strategy and portfolio-subset requests without hard-coding the
// engine set.
type solverJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	PowerAware  bool   `json:"power_aware"`
	Cancellable bool   `json:"cancellable"`
	Exact       bool   `json:"exact"`
	Combinator  bool   `json:"combinator,omitempty"`
}

func (sv *Server) handleSolvers(w http.ResponseWriter, _ *http.Request) {
	infos := coopt.Solvers()
	out := struct {
		Solvers []solverJSON `json:"solvers"`
	}{Solvers: make([]solverJSON, len(infos))}
	for i, info := range infos {
		out.Solvers[i] = solverJSON{
			Name:        info.Name,
			Description: info.Description,
			PowerAware:  info.PowerAware,
			Cancellable: info.Cancellable,
			Exact:       info.Exact,
			Combinator:  info.Combinator,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (sv *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(sv.started).Seconds(),
	})
}

func (sv *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sv.Stats())
}
