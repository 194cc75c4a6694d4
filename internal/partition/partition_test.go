package partition

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCountSmall(t *testing.T) {
	cases := []struct {
		w, b int
		want int64
	}{
		{1, 1, 1},
		{5, 1, 1},
		{5, 2, 2}, // 1+4, 2+3
		{8, 4, 5}, // 1115, 1124, 1133, 1223, 2222
		{6, 3, 3}, // 114, 123, 222
		{10, 3, 8},
		{0, 1, 0},
		{3, 4, 0},
		{4, 0, 0},
		{4, -1, 0},
		{64, 3, 341}, // quoted in the paper: 341 unique partitions for W=64, B=3
	}
	for _, tc := range cases {
		if got := Count(tc.w, tc.b); got != tc.want {
			t.Errorf("Count(%d,%d) = %d, want %d", tc.w, tc.b, got, tc.want)
		}
	}
}

func TestCountMatchesEnumerate(t *testing.T) {
	for w := 1; w <= 30; w++ {
		for b := 1; b <= 8 && b <= w; b++ {
			n := int64(0)
			Enumerate(w, b, func(parts []int) bool {
				n++
				return true
			})
			if want := Count(w, b); n != want {
				t.Errorf("W=%d B=%d: Enumerate yields %d, Count says %d", w, b, n, want)
			}
		}
	}
}

func TestCountApproxSpecialForms(t *testing.T) {
	// b=2: floor(w/2); b=3: round(w^2/12). From the paper: P(64,3) = 341.
	if got := CountApprox(64, 2); got != 32 {
		t.Errorf("CountApprox(64,2) = %v, want 32", got)
	}
	if got := CountApprox(64, 3); got != 341 {
		t.Errorf("CountApprox(64,3) = %v, want 341", got)
	}
	if got := CountApprox(3, 4); got != 0 {
		t.Errorf("CountApprox(3,4) = %v, want 0", got)
	}
	if got := CountApprox(9, 1); got != 1 {
		t.Errorf("CountApprox(9,1) = %v, want 1", got)
	}
	// General form w^(b-1)/(b!(b-1)!): for w=44, b=4 -> 44^3/144.
	want := math.Pow(44, 3) / 144
	if got := CountApprox(44, 4); math.Abs(got-want) > 1e-9 {
		t.Errorf("CountApprox(44,4) = %v, want %v", got, want)
	}
}

func TestCountApproxConvergence(t *testing.T) {
	// The estimate should be within a factor ~4 of the exact count for
	// large W and small B (it is asymptotic, the paper notes it is only
	// accurate for W >> B).
	for _, b := range []int{4, 5} {
		for _, w := range []int{44, 64, 100} {
			exact := float64(Count(w, b))
			approx := CountApprox(w, b)
			if ratio := exact / approx; ratio < 0.25 || ratio > 4 {
				t.Errorf("W=%d B=%d: exact %v vs approx %v (ratio %.2f) diverges", w, b, exact, approx, ratio)
			}
		}
	}
}

func TestEnumerateCanonicalAndSorted(t *testing.T) {
	var got [][]int
	Enumerate(8, 4, func(parts []int) bool {
		got = append(got, append([]int(nil), parts...))
		return true
	})
	want := [][]int{{1, 1, 1, 5}, {1, 1, 2, 4}, {1, 1, 3, 3}, {1, 2, 2, 3}, {2, 2, 2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Enumerate(8,4) = %v, want %v", got, want)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	completed := Enumerate(20, 3, func(parts []int) bool {
		n++
		return n < 3
	})
	if completed || n != 3 {
		t.Errorf("early stop: completed=%v after %d partitions, want false after 3", completed, n)
	}
}

func TestEnumerateProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 1 + r.Intn(40)
		b := 1 + r.Intn(6)
		if b > w {
			b = w
		}
		ok := true
		Enumerate(w, b, func(parts []int) bool {
			sum := 0
			for i, v := range parts {
				sum += v
				if v < 1 || (i > 0 && parts[i-1] > v) {
					ok = false
				}
			}
			if sum != w {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOdometerPaperExample(t *testing.T) {
	// Paper, Section 3.1: for W=8, B=4 the first three partitions are
	// (1,1,1,5), (1,1,2,4), (1,1,3,3); the Line-1 bound of 2 on w_2 then
	// prevents the repeated partition 1+2+1+4... the enumeration carries
	// to (1,2,...). Also: (1,2,3,2) style repeats like 1+3+1+3 must not
	// appear because w_3 is capped at floor((8-1-1)/2) = 3 only while the
	// prefix allows it.
	o, err := NewOdometer(8, 4)
	if err != nil {
		t.Fatalf("NewOdometer: %v", err)
	}
	var got [][]int
	for {
		p, ok := o.Next()
		if !ok {
			break
		}
		got = append(got, append([]int(nil), p...))
	}
	wantPrefix := [][]int{{1, 1, 1, 5}, {1, 1, 2, 4}, {1, 1, 3, 3}}
	for i, w := range wantPrefix {
		if i >= len(got) || !reflect.DeepEqual(got[i], w) {
			t.Fatalf("odometer prefix[%d] = %v, want %v (full: %v)", i, got[i], w, got)
		}
	}
	// The bound caps w_1 at floor(8/4)=2, w_2 at floor((8-w1)/3), so the
	// enumeration is a small superset of the 5 unique partitions.
	if len(got) < 5 {
		t.Errorf("odometer enumerated %d partitions, want >= 5 (the unique count)", len(got))
	}
	for _, p := range got {
		sum := 0
		for _, v := range p {
			if v < 1 {
				t.Errorf("partition %v has a part < 1", p)
			}
			sum += v
		}
		if sum != 8 {
			t.Errorf("partition %v does not sum to 8", p)
		}
	}
}

// coversAllUnique checks that the multiset of canonical forms produced by
// an iterator covers every canonical partition at least once.
func coversAllUnique(t *testing.T, w, b int, next func() ([]int, bool)) (enumerated int, unique int) {
	t.Helper()
	seen := map[string]bool{}
	for {
		p, ok := next()
		if !ok {
			break
		}
		enumerated++
		seen[Key(p)] = true
		if enumerated > 2_000_000 {
			t.Fatalf("W=%d B=%d: runaway enumeration", w, b)
		}
	}
	missing := 0
	Enumerate(w, b, func(parts []int) bool {
		if !seen[Key(parts)] {
			missing++
			t.Errorf("W=%d B=%d: canonical partition %v never enumerated", w, b, parts)
		}
		return missing < 5
	})
	return enumerated, len(seen)
}

func TestOdometerCoversAllUniquePartitions(t *testing.T) {
	// Correctness requirement from the paper: the Line-1 restriction must
	// prune only *repeats*, never a unique partition.
	for _, tc := range []struct{ w, b int }{
		{8, 4}, {12, 3}, {16, 5}, {20, 4}, {24, 2}, {9, 1}, {7, 7}, {30, 6},
	} {
		o, err := NewOdometer(tc.w, tc.b)
		if err != nil {
			t.Fatalf("NewOdometer(%d,%d): %v", tc.w, tc.b, err)
		}
		enumerated, unique := coversAllUnique(t, tc.w, tc.b, o.Next)
		if want := Count(tc.w, tc.b); int64(unique) != want {
			t.Errorf("W=%d B=%d: odometer saw %d unique partitions, want %d", tc.w, tc.b, unique, want)
		}
		if enumerated < unique {
			t.Errorf("W=%d B=%d: enumerated %d < unique %d", tc.w, tc.b, enumerated, unique)
		}
	}
}

func TestOdometerPrunesVsNaive(t *testing.T) {
	// The Line-1 bound must never enumerate more than the naive nested
	// loops, and must cut the count substantially for b >= 3.
	for _, tc := range []struct{ w, b int }{{16, 3}, {20, 4}, {24, 5}} {
		o, _ := NewOdometer(tc.w, tc.b)
		n, _ := coversAllUnique(t, tc.w, tc.b, o.Next)
		nv, _ := NewNaiveOdometer(tc.w, tc.b)
		naive, uniqueNaive := coversAllUnique(t, tc.w, tc.b, nv.Next)
		if int64(uniqueNaive) != Count(tc.w, tc.b) {
			t.Errorf("W=%d B=%d: naive odometer missed partitions (%d unique)", tc.w, tc.b, uniqueNaive)
		}
		if n > naive {
			t.Errorf("W=%d B=%d: bounded odometer enumerated %d > naive %d", tc.w, tc.b, n, naive)
		}
		if tc.b >= 3 && float64(n) > 0.75*float64(naive) {
			t.Errorf("W=%d B=%d: bound pruned too little: %d of %d", tc.w, tc.b, n, naive)
		}
	}
}

func TestNaiveOdometerCountsCompositions(t *testing.T) {
	// The naive odometer enumerates all compositions of w into b positive
	// parts: C(w-1, b-1) of them.
	nv, err := NewNaiveOdometer(10, 3)
	if err != nil {
		t.Fatalf("NewNaiveOdometer: %v", err)
	}
	n := 0
	for {
		_, ok := nv.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 36 { // C(9,2)
		t.Errorf("naive odometer enumerated %d compositions of 10 into 3, want 36", n)
	}
}

func TestOdometerSingleTAM(t *testing.T) {
	o, err := NewOdometer(13, 1)
	if err != nil {
		t.Fatalf("NewOdometer: %v", err)
	}
	p, ok := o.Next()
	if !ok || !reflect.DeepEqual(p, []int{13}) {
		t.Errorf("first = %v,%v; want [13],true", p, ok)
	}
	if _, ok := o.Next(); ok {
		t.Error("second Next should report exhaustion")
	}
}

func TestOdometerErrors(t *testing.T) {
	if _, err := NewOdometer(3, 0); err == nil {
		t.Error("NewOdometer(3,0) succeeded, want error")
	}
	if _, err := NewOdometer(3, 4); err == nil {
		t.Error("NewOdometer(3,4) succeeded, want error")
	}
	if _, err := NewNaiveOdometer(3, 4); err == nil {
		t.Error("NewNaiveOdometer(3,4) succeeded, want error")
	}
}

func TestCanonicalAndKey(t *testing.T) {
	p := []int{5, 1, 3, 1}
	c := Canonical(p)
	if !reflect.DeepEqual(c, []int{1, 1, 3, 5}) {
		t.Errorf("Canonical = %v, want [1 1 3 5]", c)
	}
	if !reflect.DeepEqual(p, []int{5, 1, 3, 1}) {
		t.Error("Canonical mutated its argument")
	}
	if Key([]int{5, 1, 3, 1}) != Key([]int{1, 5, 1, 3}) {
		t.Error("Key differs across permutations of the same multiset")
	}
	if Key([]int{1, 2}) == Key([]int{12}) {
		t.Error("Key collides across different partitions")
	}
	if got := Key([]int{10, 2, 1}); got != "1,2,10" {
		t.Errorf("Key = %q, want \"1,2,10\"", got)
	}
}

// lexReference is the recursive enumeration Enumerate was first written
// as: loops over the parts from the first, each from the previous part
// up to its share of what remains, the last part taking the rest.
func lexReference(w, b int) [][]int {
	var out [][]int
	if b <= 0 || w < b {
		return out
	}
	parts := make([]int, b)
	var rec func(idx, remaining, minPart int)
	rec = func(idx, remaining, minPart int) {
		if idx == b-1 {
			parts[idx] = remaining
			out = append(out, append([]int(nil), parts...))
			return
		}
		for v := minPart; v <= remaining/(b-idx); v++ {
			parts[idx] = v
			rec(idx+1, remaining-v, v)
		}
	}
	rec(0, w, 1)
	return out
}

// TestEnumerateMatchesReference holds Enumerate, and so Lex, to the
// recursive reference's partitions in the reference's order: sequence
// numbers, tie-breaks and pruning statistics downstream all depend on
// that order.
func TestEnumerateMatchesReference(t *testing.T) {
	for w := 0; w <= 26; w++ {
		for b := 0; b <= 9; b++ {
			var got [][]int
			Enumerate(w, b, func(parts []int) bool {
				got = append(got, append([]int(nil), parts...))
				return true
			})
			if want := lexReference(w, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("Enumerate(%d,%d) = %v, want %v", w, b, got, want)
			}
			var l Lex
			l.Reset(w, b)
			for range got {
				l.Next()
			}
			if p, ok := l.Next(); ok {
				t.Fatalf("Lex(%d,%d) yielded %v past the end", w, b, p)
			}
		}
	}
}

// TestNextZeroAlloc pins every enumerator's Next at zero allocations
// once warm — each refills a buffer it owns, so a scan worker driving
// its own enumerator allocates nothing per partition — and Lex.Reset at
// zero on a width it has already run.
func TestNextZeroAlloc(t *testing.T) {
	const w, b = 64, 6
	odo, err := NewOdometer(w, b)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaiveOdometer(w, b)
	if err != nil {
		t.Fatal(err)
	}
	var lex Lex
	lex.Reset(w, b)
	for _, tc := range []struct {
		name string
		next func() ([]int, bool)
	}{
		{"Lex", lex.Next},
		{"Odometer", odo.Next},
		{"NaiveOdometer", naive.Next},
	} {
		tc.next() // warm
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := tc.next(); !ok {
				t.Fatalf("%s ran out", tc.name)
			}
		}); allocs != 0 {
			t.Errorf("%s.Next allocates %.1f/op when warm, want 0", tc.name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for b := 1; b <= 10; b++ {
			lex.Reset(w, b)
		}
	}); allocs != 0 {
		t.Errorf("Lex.Reset allocates %.1f/op on a warm width, want 0", allocs)
	}
}
