package soc

import (
	"reflect"
	"strings"
	"testing"
)

const digestBase = `
soc demo
maxpower 1800
core a inputs 32 outputs 32 patterns 12 power 660
core b inputs 36 outputs 39 patterns 105 power 275 scan 54 54 52 51
core c inputs 52 outputs 52 bidirs 3 patterns 1024
`

// Reformatted: comments, whitespace, attribute order and core order all
// differ; the content is identical.
const digestReformatted = `
# a comment
soc demo

core c outputs 52 bidirs 3   inputs 52 patterns 1024
core a patterns 12 power 660 inputs 32 outputs 32 # trailing comment
maxpower   1800
core b power 275 inputs 36 outputs 39 patterns 105 scan 54 54 52 51
`

func mustParse(t *testing.T, text string) *SOC {
	t.Helper()
	s, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDigestInvariantUnderFormattingAndOrder(t *testing.T) {
	a := mustParse(t, digestBase)
	b := mustParse(t, digestReformatted)
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Errorf("reformatted SOC digests differ:\n  %s\n  %s", da, db)
	}
	if !strings.HasPrefix(a.Digest(), "sha256:") {
		t.Errorf("digest %q lacks the sha256: prefix", a.Digest())
	}
}

func TestDigestInvariantUnderRenamesAndChainOrder(t *testing.T) {
	a := mustParse(t, digestBase)
	b := a.Clone()
	b.Name = "renamed"
	for i := range b.Cores {
		b.Cores[i].Name = ""
	}
	// Reverse core order and every scan-chain list.
	for i, j := 0, len(b.Cores)-1; i < j; i, j = i+1, j-1 {
		b.Cores[i], b.Cores[j] = b.Cores[j], b.Cores[i]
	}
	for i := range b.Cores {
		ch := b.Cores[i].ScanChains
		for x, y := 0, len(ch)-1; x < y; x, y = x+1, y-1 {
			ch[x], ch[y] = ch[y], ch[x]
		}
	}
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Errorf("renamed/permuted SOC digests differ:\n  %s\n  %s", da, db)
	}
}

func TestDigestSeparatesContent(t *testing.T) {
	base := mustParse(t, digestBase)
	mutate := map[string]func(*SOC){
		"patterns":  func(s *SOC) { s.Cores[0].Patterns++ },
		"inputs":    func(s *SOC) { s.Cores[1].Inputs++ },
		"power":     func(s *SOC) { s.Cores[0].Power++ },
		"maxpower":  func(s *SOC) { s.MaxPower++ },
		"chain len": func(s *SOC) { s.Cores[1].ScanChains[0]++ },
		"chain cut": func(s *SOC) { s.Cores[1].ScanChains = s.Cores[1].ScanChains[:3] },
		"core gone": func(s *SOC) { s.Cores = s.Cores[:2] },
	}
	for name, f := range mutate {
		m := base.Clone()
		f(m)
		if base.Digest() == m.Digest() {
			t.Errorf("%s change did not change the digest", name)
		}
	}
}

// A field moved between cores must not collide: the per-record length
// prefix keeps (inputs 5, outputs 0) + (inputs 0, outputs 5) distinct
// from (inputs 0, outputs 5) + (inputs 5, outputs 0) only through core
// identity, which IS interchangeable — but moving a scan chain between
// otherwise-equal cores changes both records and must change the hash.
func TestDigestRecordBoundaries(t *testing.T) {
	a := mustParse(t, "soc x\ncore a inputs 2 outputs 2 patterns 1 scan 7 7\ncore b inputs 2 outputs 2 patterns 1 scan 9")
	b := mustParse(t, "soc x\ncore a inputs 2 outputs 2 patterns 1 scan 7\ncore b inputs 2 outputs 2 patterns 1 scan 7 9")
	if a.Digest() == b.Digest() {
		t.Error("moving a scan chain between cores did not change the digest")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	s := mustParse(t, digestBase)
	// Rotate the cores so the input order is not canonical already.
	s.Cores = append(s.Cores[1:], s.Cores[0])
	canon, perm := s.Canonical()
	if canon.Digest() != s.Digest() {
		t.Error("canonical clone digests differently from the original")
	}
	if len(perm) != len(s.Cores) {
		t.Fatalf("perm has %d entries for %d cores", len(perm), len(s.Cores))
	}
	seen := make([]bool, len(perm))
	for j, i := range perm {
		if i < 0 || i >= len(s.Cores) || seen[i] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[i] = true
		if canon.Cores[j].Name != s.Cores[i].Name {
			t.Errorf("canonical core %d is %q, perm says it should be %q",
				j, canon.Cores[j].Name, s.Cores[i].Name)
		}
	}
	// Canonicalizing any permuted variant yields the same core sequence.
	r := s.Clone()
	for i, j := 0, len(r.Cores)-1; i < j; i, j = i+1, j-1 {
		r.Cores[i], r.Cores[j] = r.Cores[j], r.Cores[i]
	}
	canon2, _ := r.Canonical()
	for j := range canon.Cores {
		if canon.Cores[j].Name != canon2.Cores[j].Name {
			t.Errorf("canonical order differs between permuted variants at %d: %q vs %q",
				j, canon.Cores[j].Name, canon2.Cores[j].Name)
		}
	}
	// The one-pass form agrees with Digest and Canonical separately.
	canon3, perm3, digest := r.CanonicalWithDigest()
	canon4, perm4 := r.Canonical()
	if digest != s.Digest() || !reflect.DeepEqual(canon3, canon4) || !reflect.DeepEqual(perm3, perm4) {
		t.Errorf("CanonicalWithDigest disagrees with Digest and Canonical: %s vs %s, perm %v vs %v",
			digest, s.Digest(), perm3, perm4)
	}
	// Canonical is a deep copy: mutating it must not touch the original.
	canon.Cores[0].ScanChains = append(canon.Cores[0].ScanChains, 999)
	canon.Cores[0].Patterns = -1
	if err := s.Validate(); err != nil {
		t.Errorf("mutating the canonical clone corrupted the original: %v", err)
	}
}
