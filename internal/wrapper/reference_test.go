package wrapper

import (
	"math/rand"
	"slices"
	"testing"

	"soctam/internal/soc"
)

// This file keeps Design_wrapper's former kernels as test oracles: the
// linear-scan LPT balancing and the binary-searched water level. The
// heap balancing and the closed-form water level must reproduce them
// exactly — every load, every pick, every path length.

// scanBalance is the linear-scan LPT balancing: each chain, longest
// first, goes to the first shortest wrapper chain. It fills loads and
// picks (picks[i] = wrapper chain of chainsDesc[i]).
func scanBalance(chainsDesc, loads, picks []int) {
	clear(loads)
	for i, l := range chainsDesc {
		m := 0
		for j := 1; j < len(loads); j++ {
			if loads[j] < loads[m] {
				m = j
			}
		}
		loads[m] += l
		picks[i] = m
	}
}

// fillLevel is the binary-searched water level: the smallest level whose
// spare capacity under it holds q unit cells, never below the longest
// load.
func fillLevel(loads []int, q int) int {
	maxLoad := slices.Max(loads)
	if q == 0 {
		return maxLoad
	}
	lo, hi := 1, maxLoad+q
	for lo < hi {
		mid := lo + (hi-lo)/2
		if capacityAt(loads, mid) >= q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return max(lo, maxLoad)
}

// capacityAt returns how many unit cells fit under level t.
func capacityAt(loads []int, t int) int {
	free := 0
	for _, l := range loads {
		if l < t {
			free += t - l
		}
	}
	return free
}

// scanDesign is buildDesign on the oracle kernels.
func scanDesign(c *soc.Core, chainsDesc []int, k int) *Design {
	d := &Design{Chains: make([]Chain, k)}
	loads, picks := make([]int, k), make([]int, len(chainsDesc))
	scanBalance(chainsDesc, loads, picks)
	for i, l := range chainsDesc {
		d.Chains[picks[i]].ScanChains = append(d.Chains[picks[i]].ScanChains, l)
	}
	distribute(loads, fillLevel(loads, c.InputCells()), c.InputCells(), func(j, n int) { d.Chains[j].InputCells = n })
	distribute(loads, fillLevel(loads, c.OutputCells()), c.OutputCells(), func(j, n int) { d.Chains[j].OutputCells = n })
	for i := range d.Chains {
		d.ScanIn = max(d.ScanIn, d.Chains[i].ScanInLength())
		d.ScanOut = max(d.ScanOut, d.Chains[i].ScanOutLength())
	}
	d.Time = TestTime(c.Patterns, d.ScanIn, d.ScanOut)
	return d
}

// referenceCore draws a valid core with 0–60 scan chains whose lengths
// repeat often (ties between wrapper chains are the interesting case)
// and with zero terminal cells on either side allowed.
func referenceCore(r *rand.Rand) *soc.Core {
	c := &soc.Core{Name: "ref", Patterns: r.Intn(400)}
	if r.Intn(3) > 0 {
		c.Inputs = r.Intn(300)
	}
	if r.Intn(3) > 0 {
		c.Outputs = r.Intn(300)
	}
	if r.Intn(4) == 0 {
		c.Bidirs = r.Intn(20)
	}
	n := r.Intn(61)
	spread := 1 + r.Intn(600)
	for j := 0; j < n; j++ {
		c.ScanChains = append(c.ScanChains, 1+r.Intn(spread))
	}
	if c.Patterns > 0 && c.Terminals() == 0 && n == 0 {
		c.ScanChains = []int{1 + r.Intn(100)}
	}
	return c
}

// TestWrapperKernelsMatchReference checks the heap balancing, the
// closed-form water level and the designs built on them against the
// scan oracles, for random cores at every chain count k = 1..W with W
// up to 128.
func TestWrapperKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		c := referenceCore(r)
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		chains := sortedChainsDesc(c)
		maxWidth := 1 + r.Intn(128)
		scratch := make([]int, 2*maxWidth)
		picks := make([]int, len(chains))
		wantLoads, wantPicks := make([]int, maxWidth), make([]int, len(chains))
		for k := 1; k <= maxWidth; k++ {
			longest, total := balance(chains, scratch[:k], scratch[k:2*k], picks)
			scanBalance(chains, wantLoads[:k], wantPicks)
			if !slices.Equal(scratch[:k], wantLoads[:k]) || !slices.Equal(picks, wantPicks) {
				t.Fatalf("trial %d k=%d chains %v: loads %v picks %v, scan gives %v %v",
					trial, k, chains, scratch[:k], picks, wantLoads[:k], wantPicks)
			}
			if longest != slices.Max(wantLoads[:k]) || total != c.ScanCells() {
				t.Fatalf("trial %d k=%d: longest %d total %d, want %d %d",
					trial, k, longest, total, slices.Max(wantLoads[:k]), c.ScanCells())
			}
			for _, q := range []int{c.InputCells(), c.OutputCells()} {
				if got, want := waterLevel(longest, total, k, q), fillLevel(wantLoads[:k], q); got != want {
					t.Fatalf("trial %d k=%d q=%d: waterLevel %d, fillLevel %d", trial, k, q, got, want)
				}
			}
			si, so := pathsInto(c, chains, k, scratch)
			if si != fillLevel(wantLoads[:k], c.InputCells()) || so != fillLevel(wantLoads[:k], c.OutputCells()) {
				t.Fatalf("trial %d k=%d: pathsInto %d %d disagrees with the oracle", trial, k, si, so)
			}
			if k <= 2*len(chains)+2 || k == maxWidth {
				got, want := buildDesign(c, chains, k), scanDesign(c, chains, k)
				if !designsEqual(got, want) {
					t.Fatalf("trial %d k=%d: buildDesign %+v, oracle %+v", trial, k, got, want)
				}
			}
		}
	}
}

// designsEqual compares two designs chain by chain.
func designsEqual(a, b *Design) bool {
	if a.ScanIn != b.ScanIn || a.ScanOut != b.ScanOut || a.Time != b.Time || len(a.Chains) != len(b.Chains) {
		return false
	}
	for i := range a.Chains {
		x, y := &a.Chains[i], &b.Chains[i]
		if x.InputCells != y.InputCells || x.OutputCells != y.OutputCells || !slices.Equal(x.ScanChains, y.ScanChains) {
			return false
		}
	}
	return true
}

// FuzzWaterLevel checks the closed-form water level against the
// binary-searched one over arbitrary loads and cell counts.
func FuzzWaterLevel(f *testing.F) {
	f.Add([]byte{4, 6}, uint16(5))
	f.Add([]byte{10, 2}, uint16(9))
	f.Add([]byte{0, 0, 0}, uint16(10))
	f.Add([]byte{7}, uint16(0))
	f.Add([]byte{255, 1, 1, 1, 1, 1, 1, 1}, uint16(3000))
	f.Fuzz(func(t *testing.T, raw []byte, q uint16) {
		if len(raw) == 0 {
			t.Skip("no wrapper chains")
		}
		loads := make([]int, len(raw))
		total := 0
		for j, b := range raw {
			loads[j] = int(b)
			total += loads[j]
		}
		if got, want := waterLevel(slices.Max(loads), total, len(loads), int(q)), fillLevel(loads, int(q)); got != want {
			t.Fatalf("loads %v q=%d: waterLevel %d, fillLevel %d", loads, q, got, want)
		}
	})
}
