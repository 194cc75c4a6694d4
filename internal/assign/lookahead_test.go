package assign

import (
	"math/rand"
	"testing"

	"soctam/internal/soc"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros once
// it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// abortsMustAbort fails t if Orders.Aborts rejects the partition at
// bound although Core_assign on a fresh instance completes there.
func abortsMustAbort(t *testing.T, orders *Orders, sc *Scratch, tables [][]soc.Cycles, widths []int, bound soc.Cycles) {
	t.Helper()
	if !orders.Aborts(sc, widths, bound) {
		return
	}
	in, err := FromTimeTable(tables, widths)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := CoreAssign(in, bound); ok {
		t.Fatalf("%v on %v: the lookahead rejects at bound %d, Core_assign completes at %d",
			tables, widths, bound, a.Time)
	}
}

// FuzzAborts draws from each input a time table with ties and zeros (at
// most 12 cores × 8 widths, times 0–8, in no order across widths), a
// partition of up to 10 widths in any order, the picks the orders keep
// and a bound, and requires Core_assign on a fresh instance to abort
// wherever Orders.Aborts says it must.
func FuzzAborts(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 8+r.Intn(120))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n, width, maxTime := 1+b.next()%12, 1+b.next()%8, b.next()%9
		tables := make([][]soc.Cycles, n)
		for i := range tables {
			tables[i] = make([]soc.Cycles, width)
			for w := range tables[i] {
				tables[i][w] = soc.Cycles(b.next() % (maxTime + 1))
			}
		}
		widths := make([]int, 1+b.next()%10)
		for j := range widths {
			widths[j] = 1 + b.next()%width
		}
		orders := NewOrders(tables, b.next()%12)
		bound := soc.Cycles(b.next() % (maxTime + 2))
		var sc Scratch
		abortsMustAbort(t, orders, &sc, tables, widths, bound)
	})
}

// TestAbortsStopsAtAZeroPick pins the rule's zero-time stop: a pick that
// adds nothing leaves its TAM at load 0, so the next pick goes there
// again, and the narrower TAM's times must not count. Both cores take 10
// cycles at width 1 and none at width 2, so Core_assign, which starts
// on the wider TAM in either part order, completes in 0 cycles.
func TestAbortsStopsAtAZeroPick(t *testing.T) {
	tables := [][]soc.Cycles{{10, 0}, {10, 0}}
	orders := NewOrders(tables, 2)
	var sc Scratch
	for _, widths := range [][]int{{1, 2}, {2, 1}} {
		in, err := FromTimeTable(tables, widths)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := CoreAssign(in, 5)
		if got := orders.Aborts(&sc, widths, 5); got == ok {
			t.Errorf("%v: Aborts %t, Core_assign completes %t", widths, got, ok)
		}
	}
}
