package schedule

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"soctam/internal/assign"
	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

func testArchitecture(t *testing.T) (*soc.SOC, []int, []int) {
	t.Helper()
	s := socdata.D695()
	partition := []int{8, 8}
	in, err := assign.NewInstance(s, partition)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	a, ok := assign.CoreAssign(in, 0)
	if !ok {
		t.Fatal("CoreAssign aborted")
	}
	return s, partition, a.TAMOf
}

// tamOfRect returns the TAM whose wire band holds the rectangle.
func tamOfRect(partition []int, r *pack.Rect) int {
	first := 0
	for j, w := range partition {
		if r.Wire < first+w {
			return j
		}
		first += w
	}
	return -1
}

func TestBuildMatchesAssignmentMakespan(t *testing.T) {
	s, partition, tamOf := testArchitecture(t)
	sch, err := Build(s, partition, tamOf)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The schedule's makespan equals the assignment's testing time: the
	// sum of wrapper times per TAM, maximized over TAMs.
	in, _ := assign.NewInstance(s, partition)
	_, span, err := in.Times.Makespan(tamOf)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if sch.Makespan != span {
		t.Errorf("schedule makespan %d != assignment %d", sch.Makespan, span)
	}
	if sch.TotalWidth != 16 {
		t.Errorf("schedule spans %d wires, the partition 16", sch.TotalWidth)
	}
	if err := sch.Validate(len(s.Cores)); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildSlotsAreSerialPerTAM(t *testing.T) {
	s, partition, tamOf := testArchitecture(t)
	sch, err := Build(s, partition, tamOf)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Each core's rectangle starts at its TAM's first wire, and the
	// rectangles on one TAM leave no gaps, longest first. Rects are
	// ordered by start time, so each TAM's tests come in order.
	firstWire := []int{0, 8}
	lastEnd := map[int]soc.Cycles{}
	prev := map[int]soc.Cycles{}
	for i := range sch.Rects {
		r := &sch.Rects[i]
		j := tamOfRect(partition, r)
		if j != tamOf[r.Core] || r.Wire != firstWire[j] {
			t.Errorf("core %d on wires [%d,%d), assigned to TAM %d", r.Core+1, r.Wire, r.Wire+r.Width, tamOf[r.Core]+1)
		}
		if r.Start != lastEnd[j] {
			t.Errorf("TAM %d: core %d starts at %d, want %d (no gaps)", j+1, r.Core+1, r.Start, lastEnd[j])
		}
		if p, ok := prev[j]; ok && r.Duration() > p {
			t.Errorf("TAM %d not longest-first: %d after %d", j+1, r.Duration(), p)
		}
		lastEnd[j], prev[j] = r.End, r.Duration()
	}
}

func TestBuildSlotDurationsMatchWrapper(t *testing.T) {
	s, partition, tamOf := testArchitecture(t)
	sch, _ := Build(s, partition, tamOf)
	for i := range sch.Rects {
		r := &sch.Rects[i]
		d, err := wrapper.DesignWrapper(&s.Cores[r.Core], partition[tamOf[r.Core]])
		if err != nil {
			t.Fatalf("DesignWrapper: %v", err)
		}
		if r.Duration() != d.Time || r.Width != d.UsedWidth() {
			t.Errorf("core %d: %d × %d, wrapper says %d × %d", r.Core+1, r.Width, r.Duration(), d.UsedWidth(), d.Time)
		}
		// The wrapper's chains attain its TAM's time on their own: the
		// rectangle's width costs nothing.
		if at, _ := wrapper.Time(&s.Cores[r.Core], r.Width); at != d.Time {
			t.Errorf("core %d: %d cycles on its %d wires, %d on its TAM", r.Core+1, at, r.Width, d.Time)
		}
	}
}

// TestUtilizationAccounting holds the busy fraction to the wire-cycles
// the wrappers drive over everything the partition's wires deliver.
func TestUtilizationAccounting(t *testing.T) {
	s, partition, tamOf := testArchitecture(t)
	sch, _ := Build(s, partition, tamOf)
	var busy int64
	for i := range s.Cores {
		d, _ := wrapper.DesignWrapper(&s.Cores[i], partition[tamOf[i]])
		busy += int64(d.UsedWidth()) * int64(d.Time)
	}
	want := float64(busy) / (16 * float64(sch.Makespan))
	if got := sch.BusyFraction(); got != want || got <= 0 || got > 1 {
		t.Errorf("busy fraction %v, want %v in (0,1]", got, want)
	}
}

func TestUtilizationRandomArchitectures(t *testing.T) {
	s := socdata.D695()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 1 + r.Intn(4)
		partition := make([]int, nb)
		for j := range partition {
			partition[j] = 1 + r.Intn(16)
		}
		tamOf := make([]int, len(s.Cores))
		for i := range tamOf {
			tamOf[i] = r.Intn(nb)
		}
		sch, err := Build(s, partition, tamOf)
		if err != nil || sch.Validate(len(s.Cores)) != nil {
			return false
		}
		return sch.BusyFraction() > 0 && sch.BusyFraction() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGanttRendering(t *testing.T) {
	s, partition, tamOf := testArchitecture(t)
	sch, _ := Build(s, partition, tamOf)
	out := sch.Gantt(60, nil)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 17 { // 16 wire rows + makespan line
		t.Fatalf("Gantt has %d lines, want 17:\n%s", len(lines), out)
	}
	for _, l := range lines[:16] {
		if !strings.HasPrefix(l, "wire ") || !strings.HasSuffix(l, "|") {
			t.Errorf("bad Gantt row: %q", l)
		}
	}
	if !strings.Contains(lines[16], "makespan") {
		t.Errorf("missing makespan line: %q", lines[16])
	}
	// Custom names appear.
	named := sch.Gantt(120, func(core int) string { return s.Cores[core].Name })
	if !strings.Contains(named, "s38584") {
		t.Errorf("named Gantt missing core name:\n%s", named)
	}
}

func TestBuildErrors(t *testing.T) {
	s := socdata.D695()
	if _, err := Build(s, []int{8}, []int{0}); err == nil {
		t.Error("short assignment accepted")
	}
	tamOf := make([]int, len(s.Cores))
	if _, err := Build(s, []int{0}, tamOf); err == nil {
		t.Error("zero-width TAM accepted")
	}
	tamOf[3] = 5
	if _, err := Build(s, []int{8}, tamOf); err == nil {
		t.Error("out-of-range TAM accepted")
	}
	if _, err := Build(&soc.SOC{}, []int{8}, nil); err == nil {
		t.Error("empty SOC accepted")
	}
}

// powerSOC is a hand-sized SOC with power data whose schedule shape on
// one TAM per core is easy to reason about.
func powerSOC() *soc.SOC {
	return &soc.SOC{Name: "pw", Cores: []soc.Core{
		{Name: "a", Inputs: 8, Outputs: 8, Patterns: 40, ScanChains: []int{16, 16}, Power: 600},
		{Name: "b", Inputs: 8, Outputs: 8, Patterns: 30, ScanChains: []int{12}, Power: 400},
		{Name: "c", Inputs: 4, Outputs: 4, Patterns: 20, Power: 300},
	}}
}

// TestPowerProfile checks the schedule's concurrent-power profile with
// one TAM per core: all three tests start at cycle 0 in parallel, so
// the peak is the sum of the three powers.
func TestPowerProfile(t *testing.T) {
	s := powerSOC()
	sch, err := Build(s, []int{4, 4, 4}, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := range sch.Rects {
		if r := &sch.Rects[i]; r.Start != 0 || r.Power != s.Cores[r.Core].Power {
			t.Errorf("core %d starts at %d drawing %d, want 0 and %d", r.Core+1, r.Start, r.Power, s.Cores[r.Core].Power)
		}
	}
	if got := sch.PeakPower(); got != 600+400+300 {
		t.Errorf("PeakPower = %d, want 1300", got)
	}
}

// TestPowerProfileSerial puts everything on one TAM: the tests run
// serially, so the peak is the largest single core power.
func TestPowerProfileSerial(t *testing.T) {
	s := powerSOC()
	sch, err := Build(s, []int{8}, []int{0, 0, 0})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := sch.PeakPower(); got != 600 {
		t.Errorf("serial PeakPower = %d, want 600", got)
	}
	for i := 1; i < len(sch.Rects); i++ {
		if sch.Rects[i].Start != sch.Rects[i-1].End {
			t.Errorf("serial tests overlap or leave a gap: %+v then %+v", sch.Rects[i-1], sch.Rects[i])
		}
	}
}

func TestPowerProfileNoData(t *testing.T) {
	s := powerSOC()
	for i := range s.Cores {
		s.Cores[i].Power = 0
	}
	sch, err := Build(s, []int{4, 4}, []int{0, 1, 0})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := sch.PeakPower(); got != 0 {
		t.Errorf("PeakPower without power data = %d, want 0", got)
	}
}
