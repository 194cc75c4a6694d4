package wrapper

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"soctam/internal/soc"
)

func mustTime(t *testing.T, c *soc.Core, w int) soc.Cycles {
	t.Helper()
	cycles, err := Time(c, w)
	if err != nil {
		t.Fatalf("Time(%q, %d): %v", c.Name, w, err)
	}
	return cycles
}

func TestTestTimeFormula(t *testing.T) {
	cases := []struct {
		p, si, so int
		want      soc.Cycles
	}{
		{0, 100, 50, 0},              // no patterns, no time
		{1, 0, 0, 1},                 // pure functional pattern
		{10, 15, 15, 175},            // (1+15)*10 + 15
		{10, 8, 8, 98},               // (1+8)*10 + 8
		{10, 20, 5, 215},             // asymmetric: (1+20)*10 + 5
		{10, 5, 20, 215},             // symmetric in si/so
		{12324, 1000, 999, 12337323}, // large memory core: (1+1000)*12324+999
	}
	for _, tc := range cases {
		if got := TestTime(tc.p, tc.si, tc.so); got != tc.want {
			t.Errorf("TestTime(%d,%d,%d) = %d, want %d", tc.p, tc.si, tc.so, got, tc.want)
		}
	}
}

func TestDesignWrapperSmallExample(t *testing.T) {
	// Worked example: p=10, internal chains {4,3,3}, 5 inputs, 5 outputs.
	c := &soc.Core{Name: "ex", Inputs: 5, Outputs: 5, Patterns: 10, ScanChains: []int{4, 3, 3}}

	// Width 1: single wrapper chain of length 10+5 = 15 on each side.
	if got := mustTime(t, c, 1); got != 175 {
		t.Errorf("T(1) = %d, want 175", got)
	}
	// Width 2: chains balance to {4,6}; water-filling 5 cells gives level 8.
	if got := mustTime(t, c, 2); got != 98 {
		t.Errorf("T(2) = %d, want 98", got)
	}

	d, err := DesignWrapper(c, 2)
	if err != nil {
		t.Fatalf("DesignWrapper: %v", err)
	}
	if d.UsedWidth() != 2 || d.ScanIn != 8 || d.ScanOut != 8 || d.Time != 98 {
		t.Errorf("design = used %d, si %d, so %d, T %d; want 2, 8, 8, 98",
			d.UsedWidth(), d.ScanIn, d.ScanOut, d.Time)
	}
}

func TestDesignWrapperCombinationalCore(t *testing.T) {
	// No scan: si = ceil(inputs/k), so = ceil(outputs/k).
	c := &soc.Core{Name: "c7552", Inputs: 207, Outputs: 108, Patterns: 73}
	for _, tc := range []struct {
		w      int
		si, so int
	}{
		{1, 207, 108},
		{2, 104, 54},
		{64, 4, 2},
		{207, 1, 1},
		{500, 1, 1},
	} {
		d, err := DesignWrapper(c, tc.w)
		if err != nil {
			t.Fatalf("DesignWrapper(w=%d): %v", tc.w, err)
		}
		if d.ScanIn != tc.si || d.ScanOut != tc.so {
			t.Errorf("w=%d: si,so = %d,%d; want %d,%d", tc.w, d.ScanIn, d.ScanOut, tc.si, tc.so)
		}
		want := TestTime(73, tc.si, tc.so)
		if d.Time != want {
			t.Errorf("w=%d: T = %d, want %d", tc.w, d.Time, want)
		}
	}
}

func TestDesignWrapperReluctance(t *testing.T) {
	// Once a core's time bottoms out, extra width must not increase the
	// used width: the design keeps the smallest k reaching minimum time.
	c := &soc.Core{Name: "s838", Inputs: 34, Outputs: 1, Patterns: 75, ScanChains: []int{32}}
	d64, err := DesignWrapper(c, 64)
	if err != nil {
		t.Fatalf("DesignWrapper: %v", err)
	}
	// The single 32-FF chain pins si >= 32; beyond a couple of wrapper
	// chains nothing improves, so used width must be small.
	if d64.UsedWidth() > 3 {
		t.Errorf("used width = %d, want <= 3 (reluctance to open chains)", d64.UsedWidth())
	}
	tMin := mustTime(t, c, 64)
	if got := mustTime(t, c, d64.UsedWidth()); got != tMin {
		t.Errorf("T(usedWidth) = %d, want %d (same as T(64))", got, tMin)
	}
}

func TestDesignWrapperZeroPatterns(t *testing.T) {
	c := &soc.Core{Name: "idle", Inputs: 10, Outputs: 10}
	if got := mustTime(t, c, 8); got != 0 {
		t.Errorf("T = %d, want 0 for zero-pattern core", got)
	}
}

func TestDesignWrapperErrors(t *testing.T) {
	c := &soc.Core{Inputs: 1, Patterns: 1}
	if _, err := DesignWrapper(c, 0); err == nil {
		t.Error("DesignWrapper(w=0) succeeded, want error")
	}
	if _, err := Time(c, -1); err == nil {
		t.Error("Time(w=-1) succeeded, want error")
	}
	if _, err := TimeTable(c, 0); err == nil {
		t.Error("TimeTable(maxW=0) succeeded, want error")
	}
	bad := &soc.Core{Inputs: -1}
	if _, err := DesignWrapper(bad, 4); err == nil {
		t.Error("DesignWrapper(invalid core) succeeded, want error")
	}
	if _, err := ParetoWidths(bad, 4); err == nil {
		t.Error("ParetoWidths(invalid core) succeeded, want error")
	}
}

func randomCore(r *rand.Rand) *soc.Core {
	c := &soc.Core{
		Name:     "rnd",
		Inputs:   r.Intn(200),
		Outputs:  r.Intn(200),
		Bidirs:   r.Intn(8),
		Patterns: 1 + r.Intn(500),
	}
	for k := r.Intn(8); k > 0; k-- {
		c.ScanChains = append(c.ScanChains, 1+r.Intn(300))
	}
	if c.Terminals() == 0 && len(c.ScanChains) == 0 {
		c.Inputs = 1
	}
	return c
}

func TestTimeTableMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCore(r)
		maxW := 1 + r.Intn(64)
		table, err := TimeTable(c, maxW)
		if err != nil {
			t.Logf("TimeTable: %v", err)
			return false
		}
		for w := 1; w < len(table); w++ {
			if table[w] > table[w-1] {
				t.Logf("core %+v: T(%d)=%d > T(%d)=%d", c, w+1, table[w], w, table[w-1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTimeMatchesTimeTable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCore(r)
		maxW := 1 + r.Intn(32)
		table, err := TimeTable(c, maxW)
		if err != nil {
			return false
		}
		w := 1 + r.Intn(maxW)
		got, err := Time(c, w)
		if err != nil {
			return false
		}
		return got == table[w-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeRespectsLowerBound(t *testing.T) {
	// T(w) >= (1+LB)*p where LB = max(longest chain, ceil((ff+maxio)/w))
	// with maxio = max(input cells, output cells): no wrapper can beat a
	// perfectly balanced partition of indivisible chains plus cells.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCore(r)
		w := 1 + r.Intn(48)
		got, err := Time(c, w)
		if err != nil {
			return false
		}
		maxIO := c.InputCells()
		if c.OutputCells() > maxIO {
			maxIO = c.OutputCells()
		}
		lb := c.MaxScanChain()
		if ceil := (c.ScanCells() + maxIO + w - 1) / w; ceil > lb {
			lb = ceil
		}
		want := soc.Cycles(1+lb) * soc.Cycles(c.Patterns)
		return got >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDesignConsistency(t *testing.T) {
	// The returned design must internally add up: all scan chains and
	// terminal cells placed, reported paths matching the chain contents,
	// reported time matching the formula, used width within budget.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCore(r)
		w := 1 + r.Intn(48)
		d, err := DesignWrapper(c, w)
		if err != nil {
			return false
		}
		if d.UsedWidth() > w || d.TAMWidth != w {
			return false
		}
		ff, in, out, si, so := 0, 0, 0, 0, 0
		for i := range d.Chains {
			ch := &d.Chains[i]
			for _, l := range ch.ScanChains {
				ff += l
			}
			in += ch.InputCells
			out += ch.OutputCells
			if l := ch.ScanInLength(); l > si {
				si = l
			}
			if l := ch.ScanOutLength(); l > so {
				so = l
			}
		}
		if ff != c.ScanCells() || in != c.InputCells() || out != c.OutputCells() {
			t.Logf("placement mismatch: ff %d/%d in %d/%d out %d/%d", ff, c.ScanCells(), in, c.InputCells(), out, c.OutputCells())
			return false
		}
		if si != d.ScanIn || so != d.ScanOut {
			t.Logf("path mismatch: si %d/%d so %d/%d", si, d.ScanIn, so, d.ScanOut)
			return false
		}
		return d.Time == TestTime(c.Patterns, si, so)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUsedWidthAchievesSameTime(t *testing.T) {
	// A design using k <= w chains must reach the same time when offered
	// exactly k wires: T(usedWidth) == T(w).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCore(r)
		w := 1 + r.Intn(48)
		d, err := DesignWrapper(c, w)
		if err != nil {
			return false
		}
		tk, err := Time(c, d.UsedWidth())
		if err != nil {
			return false
		}
		return tk == d.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParetoWidths(t *testing.T) {
	c := &soc.Core{Name: "ex", Inputs: 5, Outputs: 5, Patterns: 10, ScanChains: []int{4, 3, 3}}
	ws, err := ParetoWidths(c, 16)
	if err != nil {
		t.Fatalf("ParetoWidths: %v", err)
	}
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("ParetoWidths = %v, want leading width 1", ws)
	}
	table, _ := TimeTable(c, 16)
	// Every listed width is a strict improvement; every unlisted width is not.
	seen := map[int]bool{}
	for _, w := range ws {
		seen[w] = true
	}
	for w := 2; w <= 16; w++ {
		improved := table[w-1] < table[w-2]
		if improved != seen[w] {
			t.Errorf("width %d: improved=%v but listed=%v", w, improved, seen[w])
		}
	}
}

func TestBalanceQuality(t *testing.T) {
	// LPT balancing guarantee: max load <= LB + longest item, where
	// LB = max(longest item, ceil(total/k)).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		items := make([]int, n)
		longest, total := 0, 0
		for i := range items {
			items[i] = 1 + r.Intn(400)
			total += items[i]
			if items[i] > longest {
				longest = items[i]
			}
		}
		k := 1 + r.Intn(10)
		// balance expects descending order.
		c := soc.Core{ScanChains: items}
		loads := make([]int, k)
		balance(sortedChainsDesc(&c), loads, make([]int, k), nil)
		maxLoad, sum := 0, 0
		for _, l := range loads {
			sum += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		if sum != total {
			return false
		}
		lb := longest
		if ceil := (total + k - 1) / k; ceil > lb {
			lb = ceil
		}
		return maxLoad <= lb+longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFillLevel(t *testing.T) {
	cases := []struct {
		loads []int
		q     int
		want  int
	}{
		{[]int{0}, 0, 0},
		{[]int{0}, 7, 7},
		{[]int{4, 6}, 5, 8},
		{[]int{10, 2}, 3, 10},   // fits under the tall chain
		{[]int{10, 2}, 8, 10},   // exactly fills to the tall chain
		{[]int{10, 2}, 9, 11},   // spills above
		{[]int{0, 0, 0}, 10, 4}, // ceil(10/3)
	}
	for _, tc := range cases {
		if got := fillLevel(tc.loads, tc.q); got != tc.want {
			t.Errorf("fillLevel(%v, %d) = %d, want %d", tc.loads, tc.q, got, tc.want)
		}
		total := 0
		for _, l := range tc.loads {
			total += l
		}
		if got := waterLevel(slices.Max(tc.loads), total, len(tc.loads), tc.q); got != tc.want {
			t.Errorf("waterLevel over %v, q=%d = %d, want %d", tc.loads, tc.q, got, tc.want)
		}
	}
}
