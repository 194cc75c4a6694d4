package wrapper

import (
	"fmt"
	"sort"

	"soctam/internal/soc"
)

// Chain is one wrapper scan chain: the internal scan chains placed on it
// plus the functional terminal cells chained before (inputs) and after
// (outputs) them.
type Chain struct {
	// ScanChains lists the lengths of internal scan chains on this
	// wrapper chain.
	ScanChains []int
	// InputCells and OutputCells are the number of functional terminal
	// cells placed on the scan-in and scan-out side.
	InputCells  int
	OutputCells int
}

// ScanInLength returns the scan-in path length of the chain.
func (ch *Chain) ScanInLength() int {
	n := ch.InputCells
	for _, l := range ch.ScanChains {
		n += l
	}
	return n
}

// ScanOutLength returns the scan-out path length of the chain.
func (ch *Chain) ScanOutLength() int {
	n := ch.OutputCells
	for _, l := range ch.ScanChains {
		n += l
	}
	return n
}

// Design is the wrapper configuration chosen for a core at a given TAM
// width.
type Design struct {
	// TAMWidth is the width offered to Design_wrapper.
	TAMWidth int
	// Chains are the wrapper scan chains actually built; len(Chains) is
	// the TAM width the core really consumes (<= TAMWidth).
	Chains []Chain
	// ScanIn is the longest scan-in path over all chains.
	ScanIn int
	// ScanOut is the longest scan-out path over all chains.
	ScanOut int
	// Time is the core test time in clock cycles.
	Time soc.Cycles
}

// UsedWidth returns the number of wrapper chains actually created.
func (d *Design) UsedWidth() int { return len(d.Chains) }

// TestTime computes the core test time from pattern count and the longest
// scan-in/scan-out paths: (1+max(si,so))·p + min(si,so). A core with zero
// patterns takes zero time.
func TestTime(patterns, scanIn, scanOut int) soc.Cycles {
	if patterns == 0 {
		return 0
	}
	longest, shortest := scanIn, scanOut
	if shortest > longest {
		longest, shortest = shortest, longest
	}
	return soc.Cycles(1+longest)*soc.Cycles(patterns) + soc.Cycles(shortest)
}

// DesignWrapper designs a wrapper for core c on a TAM of the given width,
// minimizing test time first and used width second.
func DesignWrapper(c *soc.Core, width int) (*Design, error) {
	if width < 1 {
		return nil, fmt.Errorf("wrapper: TAM width %d < 1", width)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	chains := sortedChainsDesc(c)
	scratch := make([]int, 2*width)
	bestK := 1
	bestTime := soc.Cycles(-1)
	for k := 1; k <= width; k++ {
		si, so := pathsInto(c, chains, k, scratch)
		t := TestTime(c.Patterns, si, so)
		if bestTime < 0 || t < bestTime {
			bestTime, bestK = t, k
		}
	}
	d := buildDesign(c, chains, bestK)
	d.TAMWidth = width
	return d, nil
}

// Time returns just the test time of core c on a TAM of the given width.
func Time(c *soc.Core, width int) (soc.Cycles, error) {
	if width < 1 {
		return 0, fmt.Errorf("wrapper: TAM width %d < 1", width)
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	chains := sortedChainsDesc(c)
	scratch := make([]int, 2*width)
	best := soc.Cycles(-1)
	for k := 1; k <= width; k++ {
		si, so := pathsInto(c, chains, k, scratch)
		if t := TestTime(c.Patterns, si, so); best < 0 || t < best {
			best = t
		}
	}
	return best, nil
}

// TimeTable returns T(w) for w = 1..maxWidth. T is a non-increasing
// staircase; the table is the basic input to TAM optimization, indexed as
// table[w-1].
func TimeTable(c *soc.Core, maxWidth int) ([]soc.Cycles, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("wrapper: max width %d < 1", maxWidth)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	table := make([]soc.Cycles, maxWidth)
	fillTable(c, sortedChainsDesc(c), table, make([]int, 2*maxWidth))
	return table, nil
}

// fillTable computes table[k-1] = T(k) for k = 1..len(table), reusing
// scratch (len >= 2·len(table)) for the balancing so the whole
// staircase costs two allocations instead of one per width.
func fillTable(c *soc.Core, chainsDesc []int, table []soc.Cycles, scratch []int) {
	best := soc.Cycles(-1)
	for k := 1; k <= len(table); k++ {
		si, so := pathsInto(c, chainsDesc, k, scratch)
		if t := TestTime(c.Patterns, si, so); best < 0 || t < best {
			best = t
		}
		table[k-1] = best
	}
}

// ParetoWidths returns the widths w in 1..maxWidth at which T(w) strictly
// improves on T(w-1) — the only TAM widths worth offering this core.
func ParetoWidths(c *soc.Core, maxWidth int) ([]int, error) {
	table, err := TimeTable(c, maxWidth)
	if err != nil {
		return nil, err
	}
	var ws []int
	for w := 1; w <= maxWidth; w++ {
		if w == 1 || table[w-1] < table[w-2] {
			ws = append(ws, w)
		}
	}
	return ws, nil
}

// sortedChainsDesc returns the core's internal scan chain lengths in
// decreasing order.
func sortedChainsDesc(c *soc.Core) []int {
	return sortedChainsInto(c, nil)
}

// sortedChainsInto is sortedChainsDesc writing into buf's storage when
// it is large enough — the reuse hook for curve construction over many
// cores.
func sortedChainsInto(c *soc.Core, buf []int) []int {
	chains := append(buf[:0], c.ScanChains...)
	sort.Sort(sort.Reverse(sort.IntSlice(chains)))
	return chains
}

// pathsInto balances the internal scan chains over exactly k wrapper
// chains and water-fills the terminal cells, returning the resulting
// longest scan-in and scan-out paths. scratch (len >= 2k) holds the
// balancing's loads and heap, so staircase construction reuses one
// buffer across every k.
func pathsInto(c *soc.Core, chainsDesc []int, k int, scratch []int) (si, so int) {
	longest, total := balance(chainsDesc, scratch[:k], scratch[k:2*k], nil)
	return waterLevel(longest, total, k, c.InputCells()), waterLevel(longest, total, k, c.OutputCells())
}

// balance places each internal scan chain (pre-sorted decreasing, every
// length positive as Core.Validate requires) on the currently shortest
// of the k = len(loads) wrapper chains, the lowest-numbered one on ties,
// and leaves the per-chain scan totals in loads. This is the
// longest-processing-time balancing at the heart of Design_wrapper:
// internal chains are atomic items, so the result is the classic
// 4/3-approximation of the optimal balance. It returns the longest load
// and the loads' total; when picks is non-nil, picks[i] receives the
// wrapper chain of chainsDesc[i].
//
// The first k chains each open an empty wrapper chain in order (a
// positive load is never the shortest while an empty chain remains);
// the rest go through heap (len >= k), a min-heap of wrapper chains on
// (load, index) — the very chain the linear scan for the shortest
// would pick, found in O(log k).
func balance(chainsDesc, loads, heap, picks []int) (longest, total int) {
	k := len(loads)
	open := min(k, len(chainsDesc))
	for j := 0; j < open; j++ {
		loads[j] = chainsDesc[j]
		total += chainsDesc[j]
		if picks != nil {
			picks[j] = j
		}
	}
	clear(loads[open:])
	if open > 0 {
		longest = chainsDesc[0]
	}
	if open == len(chainsDesc) {
		return longest, total
	}
	h := heap[:k]
	for j := range h {
		h[j] = j
	}
	for j := k/2 - 1; j >= 0; j-- {
		siftDown(h, loads, j)
	}
	for i := k; i < len(chainsDesc); i++ {
		l := chainsDesc[i]
		m := h[0]
		loads[m] += l
		total += l
		longest = max(longest, loads[m])
		if picks != nil {
			picks[i] = m
		}
		siftDown(h, loads, 0)
	}
	return longest, total
}

// siftDown restores the (load, index) min-heap order of h below slot i.
func siftDown(h, loads []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && shorter(loads, h[r], h[c]) {
			c = r
		}
		if !shorter(loads, h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// shorter orders wrapper chains a and b by (load, index).
func shorter(loads []int, a, b int) bool {
	return loads[a] < loads[b] || loads[a] == loads[b] && a < b
}

// waterLevel returns the longest path after optimally distributing q
// unit cells over k wrapper chains whose scan loads peak at longest and
// sum to total: the smallest achievable max_j(load_j + cells_j) with
// sum(cells_j) = q. Poured into the shortest chains first (water
// filling, exact because cells are unit-size), the cells raise no path
// above longest until every chain reaches it, and beyond that they
// spread evenly, so the level is max(longest, ⌈(total+q)/k⌉).
func waterLevel(longest, total, k, q int) int {
	return max(longest, (total+q+k-1)/k)
}

// buildDesign reconstructs the full wrapper design for the chosen chain
// count k, including the per-chain cell placement.
func buildDesign(c *soc.Core, chainsDesc []int, k int) *Design {
	d := &Design{Chains: make([]Chain, k)}
	scratch := make([]int, 2*k+len(chainsDesc))
	loads, picks := scratch[:k], scratch[2*k:]
	longest, total := balance(chainsDesc, loads, scratch[k:2*k], picks)
	for i, l := range chainsDesc {
		d.Chains[picks[i]].ScanChains = append(d.Chains[picks[i]].ScanChains, l)
	}
	in, out := c.InputCells(), c.OutputCells()
	distribute(loads, waterLevel(longest, total, k, in), in, func(j, n int) { d.Chains[j].InputCells = n })
	distribute(loads, waterLevel(longest, total, k, out), out, func(j, n int) { d.Chains[j].OutputCells = n })
	for i := range d.Chains {
		if l := d.Chains[i].ScanInLength(); l > d.ScanIn {
			d.ScanIn = l
		}
		if l := d.Chains[i].ScanOutLength(); l > d.ScanOut {
			d.ScanOut = l
		}
	}
	d.Time = TestTime(c.Patterns, d.ScanIn, d.ScanOut)
	return d
}

// distribute assigns q unit cells to chains by water-filling up to
// level (waterLevel's optimum for these loads and q), lowest-numbered
// chains first, and reports each chain's share through set.
func distribute(loads []int, level, q int, set func(chain, cells int)) {
	remaining := q
	for j, l := range loads {
		if remaining == 0 {
			break
		}
		give := level - l
		if give <= 0 {
			continue
		}
		if give > remaining {
			give = remaining
		}
		set(j, give)
		remaining -= give
	}
}
