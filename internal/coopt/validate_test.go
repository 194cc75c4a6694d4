package coopt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"soctam/internal/pack"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestValidateRejectsMutations holds Validate to a packing answer and a
// partition answer on d695/W=32: both validate, and every one-field
// mutation of either must fail. A rectangle shortened by a cycle, or
// one stretched by a cycle at the makespan, still passes the check
// packings got before Validate (pack.Schedule.Validate plus the
// makespan); only Validate's test-length check catches it.
func TestValidateRejectsMutations(t *testing.T) {
	const width = 32
	s := socdata.D695()
	packed, err := Solve(s, width, Options{Strategy: StrategyPacking})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Solve(s, width, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []Result{packed, part} {
		if err := Validate(s, width, res); err != nil {
			t.Fatalf("%v: unmutated answer rejected: %v", res.Strategy, err)
		}
	}

	// withRect copies the packing answer and edits rectangle i of the
	// copy (and the copy's Result when the edit moves its makespan).
	withRect := func(i int, edit func(r *pack.Rect, res *Result)) Result {
		res, sch := packed, *packed.Packing
		sch.Rects = slices.Clone(sch.Rects)
		res.Packing = &sch
		edit(&sch.Rects[i], &res)
		return res
	}
	rects := packed.Packing.Rects
	last := slices.IndexFunc(rects, func(r pack.Rect) bool { return r.End == packed.Time })
	inner := slices.IndexFunc(rects, func(r pack.Rect) bool { return r.End < packed.Time && r.Duration() > 0 })
	var mover, under int = -1, -1
	for a := range rects {
		for b := range rects {
			ra, rb := &rects[a], &rects[b]
			if ra.Wire != rb.Wire && ra.Start < rb.End && rb.Start < ra.End && rb.Wire+ra.Width <= width {
				mover, under = a, b
			}
		}
	}
	if last < 0 || inner < 0 || mover < 0 {
		t.Fatalf("d695/W=32 packing has no rectangle to mutate: last %d inner %d mover %d", last, inner, mover)
	}
	stretched := withRect(last, func(r *pack.Rect, res *Result) {
		r.End++
		res.Packing.Makespan++
		res.Time++
	})
	shortened := withRect(inner, func(r *pack.Rect, _ *Result) { r.End-- })
	for name, res := range map[string]Result{"stretched": stretched, "shortened": shortened} {
		if res.Packing.Validate(len(s.Cores)) != nil || res.Packing.Makespan != res.Time {
			t.Errorf("%s rectangle fails the structural check too", name)
		}
	}

	moved := part
	moved.Assignment.TAMOf = slices.Clone(part.Assignment.TAMOf)
	moved.Assignment.TAMOf[0] = (moved.Assignment.TAMOf[0] + 1) % part.NumTAMs

	mutants := map[string]Result{
		"stretched rectangle":              stretched,
		"shortened rectangle":              shortened,
		"rectangle on a neighbour's wires": withRect(mover, func(r *pack.Rect, _ *Result) { r.Wire = rects[under].Wire }),
		"core moved to another TAM":        moved,
	}
	for _, res := range []Result{packed, part} {
		timeOff, peakOff, ceilingUnder := res, res, res
		timeOff.Time++
		peakOff.PeakPower++
		ceilingUnder.MaxPower = res.PeakPower - 1
		mutants[fmt.Sprintf("%v time off by one", res.Strategy)] = timeOff
		mutants[fmt.Sprintf("%v peak power off by one", res.Strategy)] = peakOff
		mutants[fmt.Sprintf("%v ceiling below the peak", res.Strategy)] = ceilingUnder
	}
	for name, res := range mutants {
		err := Validate(s, width, res)
		if err == nil {
			t.Errorf("%s: Validate accepted it", name)
		} else if strings.HasSuffix(name, "ed rectangle") && !strings.Contains(err.Error(), "its wrapper takes") {
			t.Errorf("%s: rejected for another reason: %v", name, err)
		}
	}
}

// familySOC synthesizes an n-core SOC (seed n) from p93791's spec
// scaled the way perfbench's familySpec scales it for solve-sweep's
// large-SOC family.
func familySOC(t *testing.T, n int) *soc.SOC {
	t.Helper()
	base := socdata.P93791Spec()
	sp := base
	total := base.NumLogic + base.NumMemory
	sp.Name = fmt.Sprintf("synth%d", n)
	sp.NumLogic = max(2, n*base.NumLogic/total)
	sp.NumMemory = n - sp.NumLogic
	sp.Complexity = base.Complexity * n / total
	sp.Seed = int64(n)
	s, err := socdata.Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFamilyAnswersValidate validates answers on the synthesized
// family: both packers on the 100-, 300- and 1000-core SOCs at W = 16,
// 32 and 64, and the partition flow on the 100- and 300-core SOCs at
// W = 16 and 32.
func TestFamilyAnswersValidate(t *testing.T) {
	for _, n := range []int{100, 300, 1000} {
		s := familySOC(t, n)
		for _, width := range []int{16, 32, 64} {
			strategies := []Strategy{StrategyPacking, StrategyDiagonal}
			if n <= 300 && width <= 32 {
				strategies = append(strategies, StrategyPartition)
			}
			for _, strategy := range strategies {
				res, err := Solve(s, width, Options{Strategy: strategy})
				if err != nil {
					t.Fatalf("%s W=%d %v: %v", s.Name, width, strategy, err)
				}
				if err := Validate(s, width, res); err != nil {
					t.Errorf("%s W=%d %v: %v", s.Name, width, strategy, err)
				}
			}
		}
	}
}
