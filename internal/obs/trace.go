package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace collects a tree of timed spans for one logical operation (one
// solve, one request). It is safe for concurrent use: the partition
// flow's workers report from several goroutines. Timestamps are
// recorded as offsets from the trace's start, so a rendered tree is
// self-contained.
type Trace struct {
	mu    sync.Mutex
	name  string
	start time.Time
	now   func() time.Time // test seam; defaults to time.Now
	spans []*Span
}

// Span is one timed interval inside a trace, with optional key=value
// attributes, point-in-time events, and child spans. Create via
// (*Trace).Span or (*Span).Span; close with End.
type Span struct {
	tr       *Trace
	name     string
	start    time.Duration
	end      time.Duration
	ended    bool
	attrs    []attr
	events   []spanEvent
	children []*Span
}

type attr struct{ key, val string }

type spanEvent struct {
	at   time.Duration
	text string
}

// NewTrace starts a trace clocked from now.
func NewTrace(name string) *Trace {
	t := &Trace{name: name, now: time.Now}
	t.start = t.now()
	return t
}

func (t *Trace) since() time.Duration { return t.now().Sub(t.start) }

// Span opens a new top-level span.
func (t *Trace) Span(name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{tr: t, name: name, start: t.since()}
	t.spans = append(t.spans, s)
	return s
}

// Span opens a child span under s.
func (s *Span) Span(name string) *Span {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	c := &Span{tr: s.tr, name: name, start: s.tr.since()}
	s.children = append(s.children, c)
	return c
}

// Attr attaches a key=value annotation shown on the span's line.
func (s *Span) Attr(key string, value any) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.attrs = append(s.attrs, attr{key, fmt.Sprint(value)})
}

// Eventf records a point-in-time event inside the span.
func (s *Span) Eventf(format string, args ...any) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.events = append(s.events, spanEvent{at: s.tr.since(), text: fmt.Sprintf(format, args...)})
}

// End closes the span. Ending twice keeps the first end time; a span
// never ended renders with the trace's final timestamp.
func (s *Span) End() {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.end = s.tr.since()
	}
}

// WriteTree renders the trace as an indented tree: one line per span
// (`name [start → end, duration] key=value ...`) with its events and
// children beneath, spans ordered by start time. Open spans render with
// the current clock as their end.
func (t *Trace) WriteTree(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nowOff := t.since()
	fmt.Fprintf(w, "trace %s (%s)\n", t.name, fmtDur(nowOff))
	for _, s := range sortedSpans(t.spans) {
		s.write(w, 1, nowOff)
	}
}

func sortedSpans(spans []*Span) []*Span {
	out := append([]*Span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

func (s *Span) write(w io.Writer, depth int, nowOff time.Duration) {
	end := s.end
	open := ""
	if !s.ended {
		end, open = nowOff, " (open)"
	}
	indent(w, depth)
	fmt.Fprintf(w, "%s [%s → %s, %s]%s", s.name, fmtDur(s.start), fmtDur(end), fmtDur(end-s.start), open)
	for _, a := range s.attrs {
		fmt.Fprintf(w, " %s=%s", a.key, a.val)
	}
	io.WriteString(w, "\n")
	for _, e := range s.events {
		indent(w, depth+1)
		fmt.Fprintf(w, "@%s %s\n", fmtDur(e.at), e.text)
	}
	for _, c := range sortedSpans(s.children) {
		c.write(w, depth+1, nowOff)
	}
}

func indent(w io.Writer, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
}

// fmtDur rounds durations for display: traces are read by humans, and
// nanosecond noise hides the shape of the solve.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
