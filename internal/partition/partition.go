package partition

import (
	"fmt"
	"math"
	"strconv"
)

// Count returns the number of partitions of w into exactly b positive
// parts, P(w,b), computed exactly with the standard recurrence
// P(w,b) = P(w-1,b-1) + P(w-b,b).
func Count(w, b int) int64 {
	if b <= 0 || w < b {
		return 0
	}
	// dp[j] holds P(i,j) for the current i as i sweeps 0..w.
	dp := make([][]int64, w+1)
	for i := range dp {
		dp[i] = make([]int64, b+1)
	}
	dp[0][0] = 1
	for i := 1; i <= w; i++ {
		for j := 1; j <= b && j <= i; j++ {
			dp[i][j] = dp[i-1][j-1]
			if i-j >= 0 {
				dp[i][j] += dp[i-j][j]
			}
		}
	}
	return dp[w][b]
}

// CountApprox returns the estimate of P(w,b) used in the paper:
// w^(b-1) / (b!·(b-1)!), valid for w >> b. For b = 2 the paper uses
// floor(w/2) and for b = 3 the closed form round(w²/12); both are
// returned exactly here.
func CountApprox(w, b int) float64 {
	switch {
	case b <= 0 || w < b:
		return 0
	case b == 1:
		return 1
	case b == 2:
		return math.Floor(float64(w) / 2)
	case b == 3:
		return math.Round(float64(w) * float64(w) / 12)
	}
	num := math.Pow(float64(w), float64(b-1))
	den := factorial(b) * factorial(b-1)
	return num / den
}

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// Enumerate yields every canonical partition of w into exactly b
// non-decreasing positive parts, in lexicographic order. The callback
// receives a reused buffer; it must copy the slice to retain it. Return
// false from the callback to stop early. Enumerate reports whether the
// enumeration ran to completion.
func Enumerate(w, b int, fn func(parts []int) bool) bool {
	var l Lex
	l.Reset(w, b)
	for {
		parts, ok := l.Next()
		if !ok {
			return true
		}
		if !fn(parts) {
			return false
		}
	}
}

// Lex steps through Enumerate's partitions one call at a time: every
// canonical partition of w into exactly b non-decreasing positive parts,
// in lexicographic order, so a caller can drive the enumeration from its
// own loop instead of a callback. Reset starts (or restarts) it; the
// zero value yields nothing.
type Lex struct {
	parts []int
	fresh bool // parts holds the first partition, not yet returned
}

// Reset starts the iteration over the partitions of w into b parts,
// yielding nothing when b <= 0 or w < b. It reuses the iterator's
// buffer, which it sizes for any part count of w, so restarting on the
// same w never allocates.
func (l *Lex) Reset(w, b int) {
	l.fresh = b > 0 && w >= b
	if !l.fresh {
		l.parts = l.parts[:0]
		return
	}
	if cap(l.parts) < b {
		l.parts = make([]int, b, w)
	}
	l.parts = l.parts[:b]
	for i := range b - 1 {
		l.parts[i] = 1
	}
	l.parts[b-1] = w - b + 1
}

// Next returns the next partition, or ok=false when the enumeration is
// exhausted. The returned slice is reused between calls; copy to retain.
func (l *Lex) Next() (parts []int, ok bool) {
	p := l.parts
	if l.fresh {
		l.fresh = false
		return p, true
	}
	// The successor grows the rightmost part i < b-1 that can take one
	// more while the b-i parts from it on still fit at that value (rest
	// is their sum), sets the parts after it to the same value and gives
	// the last part the remainder.
	b := len(p)
	if b < 2 {
		return nil, false
	}
	rest := p[b-1]
	for i := b - 2; i >= 0; i-- {
		rest += p[i]
		if v := p[i] + 1; v*(b-i) <= rest {
			for j := i; j < b-1; j++ {
				p[j] = v
			}
			p[b-1] = rest - v*(b-1-i)
			return p, true
		}
	}
	return nil, false
}

// Canonical returns a copy of parts sorted in non-decreasing order — the
// canonical form used to detect duplicate (isomorphic) partitions.
func Canonical(parts []int) []int {
	c := make([]int, len(parts))
	copy(c, parts)
	// Insertion sort: partitions are tiny (b <= ~16).
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c
}

// Key returns a compact string key for the canonical form of parts,
// usable as a map key when deduplicating partitions.
func Key(parts []int) string {
	var b []byte
	for i, v := range Canonical(parts) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Odometer enumerates width partitions exactly as the recursive Increment
// procedure of Figure 3 in the paper: loop variables w_1..w_{B-1} start at
// 1, w_B is the remainder, and each variable w_j is capped at
// floor((W - Σ_{i<j} w_i) / (B-j+1)) — the Line-1 restriction that prunes
// "a sizeable number" (not all) of the repeated partitions.
type Odometer struct {
	w, b  int
	vars  []int // w_1..w_{B-1}
	parts []int // the partition Next returns, refilled in place
	done  bool
	first bool
}

// NewOdometer returns an odometer over partitions of w into b positive
// parts. It requires 1 <= b <= w.
func NewOdometer(w, b int) (*Odometer, error) {
	if b < 1 {
		return nil, fmt.Errorf("partition: number of TAMs %d < 1", b)
	}
	if w < b {
		return nil, fmt.Errorf("partition: width %d cannot be split into %d TAMs of width >= 1", w, b)
	}
	o := &Odometer{w: w, b: b, vars: make([]int, b-1), parts: make([]int, b), first: true}
	for i := range o.vars {
		o.vars[i] = 1
	}
	return o, nil
}

// Next returns the next partition, or ok=false when the enumeration is
// exhausted. The returned slice is reused between calls; copy to retain.
func (o *Odometer) Next() (parts []int, ok bool) {
	if o.done {
		return nil, false
	}
	if o.first {
		o.first = false
		return fill(o.parts, o.vars, o.w), true
	}
	// Increment(B, B-1, W) with carry, resetting trailing digits to 1.
	j := o.b - 2 // last free variable, 0-based
	for j >= 0 {
		if o.vars[j] < o.bound(j) {
			o.vars[j]++
			for t := j + 1; t < o.b-1; t++ {
				o.vars[t] = 1
			}
			return fill(o.parts, o.vars, o.w), true
		}
		j--
	}
	o.done = true
	return nil, false
}

// bound returns the Line-1 cap for 0-based digit j:
// floor((W - Σ_{i<j} w_i) / (B-j)) with B-j the slots from j to the end.
func (o *Odometer) bound(j int) int {
	used := 0
	for i := 0; i < j; i++ {
		used += o.vars[i]
	}
	return (o.w - used) / (o.b - j)
}

// fill writes the partition with leading parts vars and the remainder of
// w as its last part into parts, and returns it.
func fill(parts, vars []int, w int) []int {
	used := 0
	for i, v := range vars {
		parts[i] = v
		used += v
	}
	parts[len(vars)] = w - used
	return parts
}

// NaiveOdometer enumerates partitions the way the paper describes the
// unrestricted nested loops (no Line-1 bound): every w_1..w_{B-1} from 1
// while the remainder stays positive. It exists as the ablation baseline
// quantifying how many repeated partitions the Line-1 bound prunes.
type NaiveOdometer struct {
	w, b  int
	vars  []int
	parts []int // the partition Next returns, refilled in place
	done  bool
	first bool
}

// NewNaiveOdometer returns the unrestricted odometer; same domain rules
// as NewOdometer.
func NewNaiveOdometer(w, b int) (*NaiveOdometer, error) {
	if b < 1 || w < b {
		return nil, fmt.Errorf("partition: invalid naive odometer W=%d B=%d", w, b)
	}
	o := &NaiveOdometer{w: w, b: b, vars: make([]int, b-1), parts: make([]int, b), first: true}
	for i := range o.vars {
		o.vars[i] = 1
	}
	return o, nil
}

// Next returns the next partition, or ok=false at exhaustion. The slice
// is reused between calls.
func (o *NaiveOdometer) Next() (parts []int, ok bool) {
	if o.done {
		return nil, false
	}
	if o.first {
		o.first = false
		return fill(o.parts, o.vars, o.w), true
	}
	j := o.b - 2
	for j >= 0 {
		// Digit j may grow while all later digits (reset to 1) and the
		// remainder can still be >= 1.
		used := 0
		for i := 0; i < j; i++ {
			used += o.vars[i]
		}
		if o.vars[j] < o.w-used-(o.b-1-j) {
			o.vars[j]++
			for t := j + 1; t < o.b-1; t++ {
				o.vars[t] = 1
			}
			return fill(o.parts, o.vars, o.w), true
		}
		j--
	}
	o.done = true
	return nil, false
}
