// Package serve is the long-running wrapper/TAM solver service: an
// HTTP/JSON API over coopt.Solve with a bounded worker pool, a
// digest-keyed LRU result cache, in-flight deduplication of identical
// queries (ARCHITECTURE.md §10; endpoint reference in API.md), and an
// optional distributed tier that shards the cache across symmetric
// nodes by consistent-hashing the SOC digest (ARCHITECTURE.md §15).
//
// The endpoints are POST /v1/solve (one job), POST /v1/batch (many
// jobs, answered as NDJSON lines in completion order), GET /v1/solvers
// (capability discovery over the solver-engine registry), GET
// /v1/healthz and GET /v1/stats. Command wtamd runs the service
// through Run, which listens, prints the bound address and serves until
// the context is cancelled.
//
// Every query's SOC is resolved once: one canonical pass yields its
// content digest, a clone with the cores re-sorted into the digest
// order of internal/soc, and the permutation between the two. A
// built-in benchmark named in a request ({"benchmark": ...}) is
// resolved once per process and shared, read-only, by every request
// that names it. The solve runs (or is found cached) in canonical
// order, and the result is re-indexed onto the query's own core order.
// The service thus answers every spelling of an SOC with the
// canonical-order solve, remapped, and cache hits are
// bit-for-bit identical to its cold solves — for repeated, permuted and
// reformatted queries alike — because both paths return the same
// deterministic canonical result through the same pure re-indexing
// step. (That can differ from a library solve of the query in its own
// core order when the answer is unproven; see §10.) See
// ARCHITECTURE.md §10 for the full coherence argument and the
// worker-pool sizing guidance.
//
// With Config.Peers set (wtamd -peers), nodes forward jobs to the
// digest's ring owner, shed load with 429 + Retry-After when the pool
// saturates (Config.MaxQueue), degrade to local solves while an owner
// is down, and replay those jobs to the owner when it recovers. The
// routing layer lives in router.go; the ring itself in internal/ring.
package serve
