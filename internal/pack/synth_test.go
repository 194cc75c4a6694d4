package pack_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

// synthFamily synthesizes an n-core SOC from p93791's spec scaled the
// way perfbench's familySpec scales it for solve-sweep's large-SOC
// family: the same logic:memory split and test complexity per core,
// with the core structure drawn from seed.
func synthFamily(tb testing.TB, n int, seed int64) *soc.SOC {
	tb.Helper()
	base := socdata.P93791Spec()
	sp := base
	total := base.NumLogic + base.NumMemory
	sp.Name = fmt.Sprintf("synth%d", n)
	sp.NumLogic = max(2, n*base.NumLogic/total)
	sp.NumMemory = n - sp.NumLogic
	sp.Complexity = base.Complexity * n / total
	sp.Seed = seed
	s, err := socdata.Synthesize(sp)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// scheduleHash is an FNV-64a digest of every placed rectangle (core,
// wire, width, start, end) in the schedule's own order.
func scheduleHash(sch *pack.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range sch.Rects {
		r := &sch.Rects[i]
		for _, v := range []int64{int64(r.Core), int64(r.Wire), int64(r.Width), int64(r.Start), int64(r.End)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// synthPin is one pinned schedule: its makespan and scheduleHash.
type synthPin struct {
	makespan soc.Cycles
	hash     uint64
}

// synthCeiling is the peak-power ceiling of the ceiling cells below: it
// binds on the family, whose unconstrained schedules peak at ~11,500
// (100 cores, W=32) to ~40,800 (1000 cores, W=64) power units.
const synthCeiling = 6000

// synthPins are the packings of the synthesized 100-, 300- and 1000-core
// SOCs (seed = core count) at W=16, 32 and 64, by Pack and by
// PackDiagonal, with no power ceiling (maxPower 0) and, on the 100- and
// 300-core SOCs at W=32, under synthCeiling. The paper SOCs' goldens
// cover at most 32 cores; these pin the placement orders and the
// wrapper staircases where ties among hundreds of cores decide them,
// and the ceiling cells pin the placement scan, which decides every
// placement under a ceiling.
var synthPins = []struct {
	cores, width, maxPower int
	pack, diag             synthPin
}{
	{100, 16, 0, synthPin{17110834, 0x524801d6d2a17779}, synthPin{17110834, 0xe7181b46d23ce081}},
	{100, 32, 0, synthPin{8621324, 0xa9e6886fe5bff658}, synthPin{8621324, 0xa62b7652c00f7e40}},
	{100, 64, 0, synthPin{4403058, 0x21bdaf1e61463d3b}, synthPin{4403058, 0x13cea314ca9a809f}},
	{300, 16, 0, synthPin{51019896, 0x7141a396e38f066e}, synthPin{51019896, 0xb40ebfe4c9fdd0a9}},
	{300, 32, 0, synthPin{25547080, 0xbb3850fcaeced9ca}, synthPin{25547080, 0x7efc64632fd9bf}},
	{300, 64, 0, synthPin{13060586, 0x7602e07d1442909}, synthPin{13053951, 0x816d19bd46a4f611}},
	{1000, 16, 0, synthPin{170131721, 0x78aa60fb62f96222}, synthPin{170131721, 0x78aa60fb62f96222}},
	{1000, 32, 0, synthPin{85189701, 0x4b2e73014a67d3f}, synthPin{85189701, 0x37d9c2f2bace804d}},
	{1000, 64, 0, synthPin{42688415, 0x2ee967b9fd4edd}, synthPin{42688415, 0x9144762fac4cef8a}},
	{100, 32, synthCeiling, synthPin{8784253, 0x578967dae66b1149}, synthPin{8740963, 0x852fedeaaa8ae01a}},
	{300, 32, synthCeiling, synthPin{30558555, 0x9b35535a484aea20}, synthPin{30432262, 0xf6f710b2f362267b}},
}

// TestSynthSchedulesPinned replays every synthPins cell and requires the
// identical makespan and rectangle digest from both packers.
func TestSynthSchedulesPinned(t *testing.T) {
	socs := map[int]*soc.SOC{}
	for _, tc := range synthPins {
		s, ok := socs[tc.cores]
		if !ok {
			s = synthFamily(t, tc.cores, int64(tc.cores))
			socs[tc.cores] = s
		}
		for _, p := range []struct {
			name   string
			packer func(*soc.SOC, int, pack.Options) (*pack.Schedule, error)
			want   synthPin
		}{
			{"pack", pack.Pack, tc.pack},
			{"diagonal", pack.PackDiagonal, tc.diag},
		} {
			sch, err := p.packer(s, tc.width, pack.Options{MaxPower: tc.maxPower})
			if err != nil {
				t.Fatalf("synth%d W=%d ceiling %d %s: %v", tc.cores, tc.width, tc.maxPower, p.name, err)
			}
			got := synthPin{sch.Makespan, scheduleHash(sch)}
			if got != p.want {
				t.Errorf("synth%d W=%d ceiling %d %s: makespan %d hash %#x, want %d %#x",
					tc.cores, tc.width, tc.maxPower, p.name, got.makespan, got.hash, p.want.makespan, p.want.hash)
			}
		}
	}
}

// BenchmarkPackSynth1000 measures one whole packing run of each packer
// on the synthesized 1000-core SOC at W=64, its wrapper curves supplied
// precomputed as coopt.Solve supplies them: the budget sweep's
// placement keys, orders and placements over a thousand rectangles,
// with no power ceiling and (the -ceiling runs) under synthCeiling.
func BenchmarkPackSynth1000(b *testing.B) {
	const width = 64
	s := synthFamily(b, 1000, 1000)
	cs, err := wrapper.Curves(s, width)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct {
		name     string
		packer   func(*soc.SOC, int, pack.Options) (*pack.Schedule, error)
		maxPower int
	}{
		{"packing", pack.Pack, 0},
		{"diagonal", pack.PackDiagonal, 0},
		{"packing-ceiling", pack.Pack, synthCeiling},
		{"diagonal-ceiling", pack.PackDiagonal, synthCeiling},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.packer(s, width, pack.Options{Curves: cs, MaxPower: p.maxPower}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
