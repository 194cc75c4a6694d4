package coopt

import (
	"io"
	"sync"

	"soctam/internal/obs"
)

// SolveTrace renders one solve's backend lifecycle as a span tree: hook
// it into Options.Progress, run the solve, Finish with the outcome,
// then WriteTree. Each backend's start/done/cancelled events frame a
// span under the solve's root; incumbent improvements become events
// inside that backend's span, so a portfolio race reads as parallel
// children racing toward the winning time. Safe for the solver's
// concurrent emitters (the progress stream is serialized, but the
// tracer does not rely on it).
type SolveTrace struct {
	tr   *obs.Trace
	root *obs.Span

	mu       sync.Mutex
	backends map[string]*obs.Span
}

// NewSolveTrace starts a trace for one solve; name labels the tree
// header (typically the SOC and width being solved).
func NewSolveTrace(name string) *SolveTrace {
	tr := obs.NewTrace(name)
	return &SolveTrace{tr: tr, root: tr.Span("solve"), backends: make(map[string]*obs.Span)}
}

// Hook returns the ProgressFunc that feeds the trace. Chain it with any
// other observer by calling both from one closure.
func (st *SolveTrace) Hook() ProgressFunc {
	return func(ev ProgressEvent) {
		st.mu.Lock()
		sp, ok := st.backends[ev.Backend]
		if !ok {
			sp = st.root.Span(ev.Backend)
			st.backends[ev.Backend] = sp
		}
		st.mu.Unlock()
		switch ev.Kind {
		case ProgressBackendStart:
			// The span itself marks the start.
		case ProgressImproved:
			if ev.Partitions > 0 {
				sp.Eventf("incumbent %d cycles (partition %d)", ev.Time, ev.Partitions)
			} else {
				sp.Eventf("incumbent %d cycles", ev.Time)
			}
		case ProgressBackendDone:
			if ev.Err != "" {
				sp.Attr("error", ev.Err)
			} else {
				sp.Attr("time", ev.Time)
			}
			sp.End()
		case ProgressBackendCancelled:
			sp.Attr("cancelled", true)
			sp.End()
		}
	}
}

// Finish closes the root span and annotates it with the solve's
// outcome. Call exactly once, after SolveContext returns.
func (st *SolveTrace) Finish(res Result, err error) {
	if err != nil {
		st.root.Attr("error", err.Error())
		st.root.End()
		return
	}
	st.root.Attr("strategy", res.Strategy)
	st.root.Attr("time", res.Time)
	st.root.Attr("gap", res.Gap)
	if res.Truncated {
		st.root.Attr("truncated", true)
	}
	if res.Proven {
		st.root.Attr("proven", true)
	}
	st.root.End()
}

// WriteTree renders the trace.
func (st *SolveTrace) WriteTree(w io.Writer) { st.tr.WriteTree(w) }
