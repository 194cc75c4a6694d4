// Package cache provides the bounded, thread-safe LRU map behind the
// solver service's result cache (ARCHITECTURE.md §10).
//
// The serving layer (internal/serve) keys an LRU of canonical
// coopt.Results by the SOC content digest (internal/soc Digest) plus
// the normalized solve options, so repeated — and permuted, and
// reformatted — queries are answered from memory bit-for-bit
// identically to a cold solve. The LRU itself is generic and knows
// nothing about SOCs: it stores any value type under any comparable
// key, evicts the least-recently-used entry beyond a fixed capacity,
// and tells the caller of Put when it evicted. It keeps no counters:
// the service books hits, misses and evictions in its own metrics
// registry, at its lookups and stores.
//
// Values are returned as stored, without copying. A caller whose values
// contain shared structure (slices, maps, pointers) must either never
// mutate what Get returns or copy before mutating — the serving layer
// does the latter as a side effect of re-indexing cached results onto
// each query's core order.
package cache
