package soc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// This file implements canonical content hashing for SOCs: a stable
// digest that identifies the test-resource *content* of an SOC
// independently of how it happened to be written down. Two SOCs that
// differ only in core order, scan-chain order within a core, core or
// SOC names, or .soc formatting (whitespace, comments, attribute order)
// digest identically — they describe the same co-optimization problem.
// That does not make every flow order-blind: a solve whose exact step
// stops at its node limit returns an unproven answer that can depend
// on core order (the partition flow on p93791 at W=16 returns 5140117
// cycles in library order and 5140867 in canonical order). The digest
// is the cache key of the serving layer (internal/serve,
// internal/cache; ARCHITECTURE.md §10), which answers every spelling
// of an SOC with the solve of its Canonical form, remapped — so a
// permuted or reformatted query must hit the cache entry its original
// populated, and gets the same answer a cold solve of it would.
//
// digestVersion tags the canonical byte layout below. Bump it whenever
// the encoding changes — a stale digest must never alias a new one.
const digestVersion = "soctam-soc-digest-v1"

// appendCanonicalCore appends the canonical byte encoding of a core's
// test resources to b. Names are presentation, not content, and are
// excluded; scan-chain lengths are sorted (descending, matching the
// wrapper designer's own normalization) so chain order cannot leak into
// the digest. Fields are varint-encoded in a fixed order with an
// explicit chain count, so two different resource vectors can never
// encode to the same bytes.
func appendCanonicalCore(b []byte, c *Core) []byte {
	b = binary.AppendVarint(b, int64(c.Inputs))
	b = binary.AppendVarint(b, int64(c.Outputs))
	b = binary.AppendVarint(b, int64(c.Bidirs))
	b = binary.AppendVarint(b, int64(c.Patterns))
	b = binary.AppendVarint(b, int64(c.Power))
	chains := slices.Clone(c.ScanChains)
	sort.Sort(sort.Reverse(sort.IntSlice(chains)))
	b = binary.AppendVarint(b, int64(len(chains)))
	for _, l := range chains {
		b = binary.AppendVarint(b, int64(l))
	}
	return b
}

// canonicalRecords returns the canonical byte record of every core, in
// the SOC's own core order.
func (s *SOC) canonicalRecords() [][]byte {
	recs := make([][]byte, len(s.Cores))
	for i := range s.Cores {
		recs[i] = appendCanonicalCore(nil, &s.Cores[i])
	}
	return recs
}

// canonicalOrder returns the core indices sorted into canonical order:
// by canonical record bytes, ties kept in original order. Tied cores
// have identical test resources and are interchangeable in every flow,
// so any stable tie-break yields the same solve.
func canonicalOrder(recs [][]byte) []int {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return bytes.Compare(recs[order[a]], recs[order[b]]) < 0
	})
	return order
}

// Digest returns the canonical content digest of the SOC as a
// "sha256:<hex>" string. The digest covers the peak-power ceiling and
// the multiset of core test-resource records; it is invariant under
// core reordering, scan-chain reordering, renaming (cores or the SOC),
// and any .soc formatting choice, and it changes whenever any
// test-resource number changes. See ARCHITECTURE.md §10 for how the
// serving layer keys its result cache on it.
func (s *SOC) Digest() string {
	recs := s.canonicalRecords()
	order := canonicalOrder(recs)
	h := sha256.New()
	h.Write([]byte(digestVersion))
	var buf []byte
	buf = binary.AppendVarint(buf, int64(s.MaxPower))
	buf = binary.AppendVarint(buf, int64(len(recs)))
	h.Write(buf)
	for _, i := range order {
		var n []byte
		n = binary.AppendVarint(n, int64(len(recs[i])))
		h.Write(n)
		h.Write(recs[i])
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// Canonical returns a deep copy of the SOC with its cores in canonical
// (digest) order, plus the permutation relating the two: perm[j] is the
// index in s of the core at canonical position j. Solving the canonical
// clone and re-indexing every per-core output through perm yields the
// solve of s itself — the seam the serving layer uses to make cache
// hits bit-for-bit identical to cold solves for permuted queries
// (ARCHITECTURE.md §10).
func (s *SOC) Canonical() (*SOC, []int) {
	perm := canonicalOrder(s.canonicalRecords())
	c := &SOC{Name: s.Name, Cores: make([]Core, len(s.Cores)), MaxPower: s.MaxPower}
	for j, i := range perm {
		c.Cores[j] = s.Cores[i].Clone()
	}
	return c, perm
}
