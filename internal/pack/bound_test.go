package pack

import (
	"fmt"
	"math/rand"
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
	"soctam/internal/wrapper"
)

// shapeBound is the packers' bound as they computed it from their core
// shapes before LowerBound: the bin area of every core's smallest Pareto
// rectangle, the longest fastest test and, under a ceiling, the test
// energy. It stays as one of LowerBound's oracles, and it gives the
// placement-order check its budgets for shapes that have no tables.
func shapeBound(shapes []coreShape, totalWidth, maxPower int) soc.Cycles {
	var area, energy int64
	var longest soc.Cycles
	for i := range shapes {
		sh := &shapes[i]
		area += sh.minArea
		shortest := sh.times[len(sh.times)-1]
		if shortest > longest {
			longest = shortest
		}
		energy += int64(sh.power) * int64(shortest)
	}
	lb := soc.Cycles((area + int64(totalWidth) - 1) / int64(totalWidth))
	if longest > lb {
		lb = longest
	}
	if maxPower > 0 {
		if pb := soc.Cycles((energy + int64(maxPower) - 1) / int64(maxPower)); pb > lb {
			lb = pb
		}
	}
	return lb
}

// tableBound is the partition flow's bound as it computed it from the
// testing-time tables before LowerBound: the bottleneck core, the
// test-data volume over W wires and, under a ceiling, the test energy.
// It is LowerBound's other oracle.
func tableBound(tables [][]soc.Cycles, powers []int, width, ceiling int) soc.Cycles {
	var bottleneck soc.Cycles
	var volume, energy int64
	for i, table := range tables {
		if t := table[width-1]; t > bottleneck {
			bottleneck = t
		}
		best := int64(-1)
		for w := 1; w <= width; w++ {
			cost := int64(w) * int64(table[w-1])
			if best < 0 || cost < best {
				best = cost
			}
		}
		volume += best
		energy += int64(powers[i]) * int64(table[width-1])
	}
	lb := soc.Cycles((volume + int64(width) - 1) / int64(width))
	if bottleneck > lb {
		lb = bottleneck
	}
	if ceiling > 0 {
		if pb := soc.Cycles((energy + int64(ceiling) - 1) / int64(ceiling)); pb > lb {
			lb = pb
		}
	}
	return lb
}

// randomSOCs draws n small SOCs (4-9 cores) from p93791's parameter
// ranges, as the random-SOC differential checks of internal/coopt do.
func randomSOCs(t *testing.T, n int) []*soc.SOC {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	base := socdata.P93791Spec()
	var socs []*soc.SOC
	for attempt := 0; len(socs) < n; attempt++ {
		if attempt == 10*n {
			t.Fatalf("only %d of %d synthesized SOCs were accepted", len(socs), attempt)
		}
		cores := 4 + r.Intn(6)
		spec := base
		spec.Name = fmt.Sprintf("rand%d", attempt)
		spec.NumLogic = max(2, cores*base.NumLogic/(base.NumLogic+base.NumMemory))
		spec.NumMemory = cores - spec.NumLogic
		spec.Complexity = base.Complexity * cores / (base.NumLogic + base.NumMemory)
		spec.Seed = r.Int63()
		if s, err := socdata.Synthesize(spec); err == nil {
			socs = append(socs, s)
		}
	}
	return socs
}

// TestLowerBoundMatchesFormerBounds pins LowerBound to both formulas it
// replaced, on the paper SOCs at W = 1..128 and on random small SOCs,
// under ceilings 0, 2500 and 6000 set two ways: as the SOC's own
// MaxPower, and as an Options.MaxPower override of another SOC ceiling.
// The tables are sliced from curves wider than W, as a portfolio race's
// shared curves may be. At a few widths the packer's Schedule.Bound
// under the same options must read the same value.
func TestLowerBoundMatchesFormerBounds(t *testing.T) {
	const maxWidth = 128
	socs := append([]*soc.SOC{socdata.D695(), socdata.P21241(), socdata.P31108(), socdata.P93791()},
		randomSOCs(t, 20)...)
	for _, s := range socs {
		cs, err := wrapper.Curves(s, maxWidth)
		if err != nil {
			t.Fatal(err)
		}
		powers := make([]int, len(s.Cores))
		for i := range s.Cores {
			powers[i] = s.Cores[i].Power
		}
		for w := 1; w <= maxWidth; w++ {
			shapes, tables, err := coreShapes(s, w, cs)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []int{0, 2500, 6000} {
				own, other := *s, *s
				own.MaxPower, other.MaxPower = c, 7000
				for _, run := range []struct {
					s   *soc.SOC
					opt Options
				}{{&own, Options{}}, {&other, Options{MaxPower: c}}} {
					ceiling := run.s.PowerCeiling(run.opt.MaxPower)
					got := LowerBound(run.s, tables, w, ceiling)
					name := fmt.Sprintf("%s W=%d SOC ceiling %d, option %d", s.Name, w, run.s.MaxPower, run.opt.MaxPower)
					if want := tableBound(tables, powers, w, ceiling); got != want {
						t.Fatalf("%s: LowerBound %d, table formula %d", name, got, want)
					}
					if want := shapeBound(shapes, w, ceiling); got != want {
						t.Fatalf("%s: LowerBound %d, shape formula %d", name, got, want)
					}
					if w != 8 && w != 32 {
						continue
					}
					run.opt.Curves = cs
					sch, err := Pack(run.s, w, run.opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if sch.Bound != got || sch.MaxPower != ceiling {
						t.Errorf("%s: schedule bound %d under ceiling %d, LowerBound %d under %d",
							name, sch.Bound, sch.MaxPower, got, ceiling)
					}
				}
			}
		}
	}
}
