package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock makes trace timestamps deterministic: every call to now
// advances ten milliseconds.
func fakeClock(tr *Trace) {
	var tick time.Duration
	tr.now = func() time.Time {
		tick += 10 * time.Millisecond
		return tr.start.Add(tick)
	}
}

func TestTraceTree(t *testing.T) {
	tr := NewTrace("solve greedy")
	fakeClock(tr)
	root := tr.Span("portfolio") // now=10ms
	a := root.Span("greedy")     // 20ms
	a.Attr("strategy", "greedy")
	a.Eventf("incumbent %d", 41) // 30ms
	a.End()                      // 40ms
	b := root.Span("ilp")        // 50ms
	b.End()                      // 60ms
	root.End()                   // 70ms

	var sb strings.Builder
	tr.WriteTree(&sb)
	got := sb.String()
	want := strings.Join([]string{
		"trace solve greedy (80ms)",
		"  portfolio [10ms → 70ms, 60ms]",
		"    greedy [20ms → 40ms, 20ms] strategy=greedy",
		"      @30ms incumbent 41",
		"    ilp [50ms → 60ms, 10ms]",
		"",
	}, "\n")
	if got != want {
		t.Errorf("tree mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestOpenSpanRendersWithClock(t *testing.T) {
	tr := NewTrace("t")
	fakeClock(tr)
	tr.Span("never_ended") // 10ms
	var sb strings.Builder
	tr.WriteTree(&sb) // clock at 20ms
	if !strings.Contains(sb.String(), "never_ended [10ms → 20ms, 10ms] (open)") {
		t.Errorf("open span not rendered with current clock:\n%s", sb.String())
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTrace("t")
	fakeClock(tr)
	s := tr.Span("s") // 10ms
	s.End()           // 20ms
	s.End()           // would be 30ms; must keep 20ms
	var sb strings.Builder
	tr.WriteTree(&sb)
	if !strings.Contains(sb.String(), "s [10ms → 20ms, 10ms]") {
		t.Errorf("second End moved the end time:\n%s", sb.String())
	}
}

// TestTraceConcurrency exercises the mutex paths under -race: spans
// annotated from separate goroutines.
func TestTraceConcurrency(t *testing.T) {
	tr := NewTrace("race")
	root := tr.Span("portfolio")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Span("backend")
			for j := 0; j < 50; j++ {
				s.Eventf("step %d.%d", i, j)
			}
			s.Attr("worker", i)
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	var sb strings.Builder
	tr.WriteTree(&sb)
	if n := strings.Count(sb.String(), "backend ["); n != 8 {
		t.Errorf("expected 8 backend spans, got %d", n)
	}
}
