package pack_test

import (
	"reflect"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// miniSOC mirrors the coopt test SOC: scan-heavy, I/O-heavy, pattern-
// heavy and balanced cores with genuinely different preferred widths.
func miniSOC() *soc.SOC {
	return &soc.SOC{Name: "mini", Cores: []soc.Core{
		{Name: "scan", Inputs: 20, Outputs: 10, Patterns: 60, ScanChains: []int{40, 40, 30, 30}},
		{Name: "wide", Inputs: 120, Outputs: 90, Patterns: 25},
		{Name: "mem", Inputs: 10, Outputs: 10, Patterns: 500},
		{Name: "mix", Inputs: 30, Outputs: 30, Patterns: 40, ScanChains: []int{25, 25}},
		{Name: "tiny", Inputs: 5, Outputs: 3, Patterns: 15, ScanChains: []int{12}},
		{Name: "bulk", Inputs: 60, Outputs: 60, Patterns: 80, ScanChains: []int{50, 50, 50}},
	}}
}

// TestPackValid checks placement validity on both SOCs across widths:
// every core placed once, inside the bin, no overlaps, and the makespan
// never below the lower bound, which is coopt.LowerBound's.
func TestPackValid(t *testing.T) {
	for _, tc := range []struct {
		name   string
		s      *soc.SOC
		widths []int
	}{
		{"mini", miniSOC(), []int{1, 2, 3, 8, 16, 24}},
		{"d695", socdata.D695(), []int{16, 32, 48, 64}},
	} {
		for _, w := range tc.widths {
			sch, err := pack.Pack(tc.s, w, pack.Options{})
			if err != nil {
				t.Fatalf("%s W=%d: %v", tc.name, w, err)
			}
			if err := sch.Validate(len(tc.s.Cores)); err != nil {
				t.Errorf("%s W=%d: invalid schedule: %v", tc.name, w, err)
			}
			lb, err := coopt.LowerBound(tc.s, w)
			if err != nil {
				t.Fatalf("%s W=%d: LowerBound: %v", tc.name, w, err)
			}
			if sch.Bound != lb {
				t.Errorf("%s W=%d: schedule bound %d, LowerBound %d", tc.name, w, sch.Bound, lb)
			}
			if sch.Makespan < lb {
				t.Errorf("%s W=%d: makespan %d below lower bound %d", tc.name, w, sch.Makespan, lb)
			}
			if f := sch.BusyFraction(); f <= 0 || f > 1 {
				t.Errorf("%s W=%d: busy fraction %f outside (0,1]", tc.name, w, f)
			}
		}
	}
}

// TestPackWithinPartitionMarginD695 is the acceptance check: on d695 the
// packing schedule stays within 15% of the partition heuristic's testing
// time at every paper width.
func TestPackWithinPartitionMarginD695(t *testing.T) {
	s := socdata.D695()
	for _, w := range []int{16, 24, 32, 40, 48, 56, 64} {
		part, err := coopt.Solve(s, w, coopt.Options{Workers: 1, SkipFinal: true})
		if err != nil {
			t.Fatalf("Solve W=%d: %v", w, err)
		}
		sch, err := pack.Pack(s, w, pack.Options{})
		if err != nil {
			t.Fatalf("Pack W=%d: %v", w, err)
		}
		if float64(sch.Makespan) > 1.15*float64(part.HeuristicTime) {
			t.Errorf("W=%d: packing %d more than 15%% above partition heuristic %d",
				w, sch.Makespan, part.HeuristicTime)
		}
	}
}

// TestPackDeterministic pins that the packer has no hidden randomness.
func TestPackDeterministic(t *testing.T) {
	s := socdata.D695()
	a, err := pack.Pack(s, 32, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pack.Pack(s, 32, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Pack is not deterministic")
	}
}

// TestPackWiderNeverMuchWorse checks the monotone trend: doubling the
// bin height may not double the makespan back.
func TestPackWiderNeverWorse(t *testing.T) {
	s := miniSOC()
	narrow, err := pack.Pack(s, 8, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := pack.Pack(s, 16, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Makespan > narrow.Makespan {
		t.Errorf("W=16 makespan %d worse than W=8 %d", wide.Makespan, narrow.Makespan)
	}
}

// TestPackZeroTimeCore pins the zero-duration edge: a pattern-free core
// tests in 0 cycles, yet the schedule must place it and stay valid.
func TestPackZeroTimeCore(t *testing.T) {
	s := &soc.SOC{Name: "zero", Cores: []soc.Core{
		{Name: "real", Inputs: 10, Outputs: 10, Patterns: 50, ScanChains: []int{20}},
		{Name: "idle", Inputs: 2, Outputs: 2, Patterns: 0},
	}}
	sch, err := pack.Pack(s, 8, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(len(s.Cores)); err != nil {
		t.Errorf("schedule with zero-time core invalid: %v", err)
	}
}

// TestPackErrors rejects degenerate inputs.
func TestPackErrors(t *testing.T) {
	if _, err := pack.Pack(miniSOC(), 0, pack.Options{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := pack.Pack(&soc.SOC{}, 8, pack.Options{}); err == nil {
		t.Error("empty SOC accepted")
	}
}

// TestValidateCatchesCorruption feeds Validate broken schedules.
func TestValidateCatchesCorruption(t *testing.T) {
	s := miniSOC()
	good, err := pack.Pack(s, 12, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Cores)
	corrupt := func(mutate func(*pack.Schedule)) *pack.Schedule {
		c := &pack.Schedule{TotalWidth: good.TotalWidth, Makespan: good.Makespan}
		c.Rects = append([]pack.Rect(nil), good.Rects...)
		mutate(c)
		return c
	}
	cases := []struct {
		name   string
		mutate func(*pack.Schedule)
	}{
		{"missing core", func(c *pack.Schedule) { c.Rects = c.Rects[1:] }},
		{"duplicate core", func(c *pack.Schedule) { c.Rects[0].Core = c.Rects[1].Core }},
		{"outside bin", func(c *pack.Schedule) { c.Rects[0].Wire = c.TotalWidth }},
		{"zero width", func(c *pack.Schedule) { c.Rects[0].Width = 0 }},
		{"negative interval", func(c *pack.Schedule) {
			c.Rects[0].Start = 1
			c.Rects[0].End = 0
		}},
		{"wrong makespan", func(c *pack.Schedule) { c.Makespan++ }},
		{"overlap", func(c *pack.Schedule) {
			c.Rects[1].Wire = c.Rects[0].Wire
			c.Rects[1].Width = c.Rects[0].Width
			c.Rects[1].Start = c.Rects[0].Start
			c.Rects[1].End = c.Rects[0].End
		}},
	}
	for _, tc := range cases {
		if err := corrupt(tc.mutate).Validate(n); err == nil {
			t.Errorf("%s: Validate accepted a broken schedule", tc.name)
		}
	}
	if err := good.Validate(n); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// powerMini returns miniSOC with power data attached.
func powerMini() *soc.SOC {
	s := miniSOC()
	for i, p := range []int{600, 900, 250, 450, 120, 800} {
		s.Cores[i].Power = p
	}
	return s
}

// TestPackPowerConstrained checks the tentpole property on both SOCs:
// every power-constrained packing validates against its ceiling, and the
// ceiling is genuinely binding (the unconstrained peak exceeds it).
func TestPackPowerConstrained(t *testing.T) {
	for _, tc := range []struct {
		name     string
		s        *soc.SOC
		widths   []int
		ceilings []int
	}{
		{"mini", powerMini(), []int{8, 16, 24}, []int{1500, 1000}},
		{"d695", socdata.D695(), []int{16, 32, 64}, []int{2500, 1800, 1200}},
	} {
		for _, w := range tc.widths {
			free, err := pack.Pack(tc.s, w, pack.Options{})
			if err != nil {
				t.Fatalf("%s W=%d unconstrained: %v", tc.name, w, err)
			}
			for _, ceiling := range tc.ceilings {
				sch, err := pack.Pack(tc.s, w, pack.Options{MaxPower: ceiling})
				if err != nil {
					t.Fatalf("%s W=%d Pmax=%d: %v", tc.name, w, ceiling, err)
				}
				if sch.MaxPower != ceiling {
					t.Errorf("%s W=%d: schedule ceiling %d, want %d", tc.name, w, sch.MaxPower, ceiling)
				}
				if err := sch.Validate(len(tc.s.Cores)); err != nil {
					t.Errorf("%s W=%d Pmax=%d: invalid: %v", tc.name, w, ceiling, err)
				}
				if peak := sch.PeakPower(); peak > ceiling {
					t.Errorf("%s W=%d Pmax=%d: peak %d above ceiling", tc.name, w, ceiling, peak)
				}
				if free.PeakPower() > ceiling && sch.Makespan < free.Makespan {
					t.Errorf("%s W=%d Pmax=%d: constrained makespan %d beats unconstrained %d",
						tc.name, w, ceiling, sch.Makespan, free.Makespan)
				}
			}
		}
	}
}

// TestPackPowerGeometryUnchangedWhenUnconstrained pins the bit-for-bit
// guarantee at the placement level: with ceiling 0 the packer must place
// exactly the same rectangles whether or not the cores carry power data.
func TestPackPowerGeometryUnchangedWhenUnconstrained(t *testing.T) {
	withPower, err := pack.Pack(powerMini(), 16, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := pack.Pack(miniSOC(), 16, pack.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(withPower.Rects) != len(without.Rects) {
		t.Fatalf("%d rects with power, %d without", len(withPower.Rects), len(without.Rects))
	}
	for i := range withPower.Rects {
		a, b := withPower.Rects[i], without.Rects[i]
		a.Power = 0
		if a != b {
			t.Errorf("rect %d differs: %+v vs %+v", i, withPower.Rects[i], b)
		}
	}
	if withPower.Makespan != without.Makespan || withPower.Bound != without.Bound {
		t.Errorf("makespan/bound differ: %d/%d vs %d/%d",
			withPower.Makespan, withPower.Bound, without.Makespan, without.Bound)
	}
}

// TestPackPowerInfeasible pins the up-front rejection of a ceiling no
// single core fits under.
func TestPackPowerInfeasible(t *testing.T) {
	if _, err := pack.Pack(powerMini(), 16, pack.Options{MaxPower: 100}); err == nil {
		t.Error("ceiling below a single core's power accepted")
	}
}

// TestPackValidateCatchesPowerBreach builds a deliberately breaching
// schedule and checks Validate rejects it.
func TestPackValidateCatchesPowerBreach(t *testing.T) {
	sch := &pack.Schedule{
		TotalWidth: 4,
		Rects: []pack.Rect{
			{Core: 0, Wire: 0, Width: 2, Start: 0, End: 100, Power: 700},
			{Core: 1, Wire: 2, Width: 2, Start: 0, End: 100, Power: 700},
		},
		Makespan: 100,
		MaxPower: 1000,
	}
	if err := sch.Validate(2); err == nil {
		t.Error("peak 1400 accepted under ceiling 1000")
	}
	if got := sch.PeakPower(); got != 1400 {
		t.Errorf("PeakPower = %d, want 1400", got)
	}
	// Back-to-back tests are not concurrent: shifting one after the
	// other must pass.
	sch.Rects[1].Start, sch.Rects[1].End = 100, 200
	sch.Makespan = 200
	if err := sch.Validate(2); err != nil {
		t.Errorf("serial schedule rejected: %v", err)
	}
	if got := sch.PeakPower(); got != 700 {
		t.Errorf("serial PeakPower = %d, want 700", got)
	}
}

// TestScaleCycles pins the precision guard of the budget sweep: scaled
// budgets saturate instead of overflowing and never land below the
// input for multipliers >= 1, even beyond float64's exact-integer range.
func TestScaleCycles(t *testing.T) {
	huge := soc.Cycles(1)<<62 + 12345
	if got := pack.ScaleCycles(huge, 1.0); got < huge {
		t.Errorf("ScaleCycles(%d, 1.0) = %d, below input", huge, got)
	}
	if got := pack.ScaleCycles(huge, 2.0); got != 1<<63-1 {
		t.Errorf("ScaleCycles(%d, 2.0) = %d, want MaxInt64 saturation", huge, got)
	}
	if got := pack.ScaleCycles(1000, 1.5); got != 1500 {
		t.Errorf("ScaleCycles(1000, 1.5) = %d, want 1500", got)
	}
	if got := pack.ScaleCycles(1000, 0.8); got != 800 {
		t.Errorf("ScaleCycles(1000, 0.8) = %d, want 800", got)
	}
}

// TestPackGantt sanity-checks the wire-band chart: one row per wire,
// every row boxed, the makespan line present.
func TestPackGantt(t *testing.T) {
	s := powerMini()
	sch, err := pack.Pack(s, 8, pack.Options{MaxPower: 1500})
	if err != nil {
		t.Fatal(err)
	}
	out := sch.Gantt(60, func(core int) string { return s.Cores[core].Name })
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != sch.TotalWidth+1 {
		t.Fatalf("Gantt has %d lines, want %d wire rows + makespan", len(lines), sch.TotalWidth+1)
	}
	for i := 0; i < sch.TotalWidth; i++ {
		if !strings.HasPrefix(lines[i], "wire ") || !strings.HasSuffix(lines[i], "|") {
			t.Errorf("row %d malformed: %q", i, lines[i])
		}
	}
	if !strings.Contains(lines[len(lines)-1], "makespan") {
		t.Errorf("missing makespan line: %q", lines[len(lines)-1])
	}
	if !strings.Contains(out, "mem") {
		t.Errorf("no core label rendered:\n%s", out)
	}
}

// TestEmptyGantt renders a schedule with nothing to draw as a note
// instead of a chart.
func TestEmptyGantt(t *testing.T) {
	sch := &pack.Schedule{TotalWidth: 4}
	if out := sch.Gantt(40, nil); !strings.Contains(out, "empty") {
		t.Errorf("empty schedule rendering: %q", out)
	}
}
