package coopt

import (
	"sync"
	"time"

	"soctam/internal/soc"
)

// The progress/observability stream: a caller-supplied hook on Options
// that receives solver events while a Solve runs — backend lifecycle
// (start, finish, cancellation) and incumbent improvements with
// partition counts. The stream is pure observability: it never alters a
// result, Normalized clears it from cache keys, and a nil hook costs
// one predicted branch per improvement. Delivery discipline (see
// ARCHITECTURE.md §11): events are delivered synchronously from the
// solver's own goroutines but serialized through one mutex per Solve
// call, so the hook never runs concurrently with itself and per-backend
// events arrive in causal order (start, then improvements with
// non-increasing times, then exactly one done or cancelled). A
// portfolio runs its racers one after another, so each racer's events
// arrive as one block, in rank order. The hook must return promptly —
// it runs on the solver's critical path.

// ProgressKind classifies a ProgressEvent.
type ProgressKind uint8

// Event kinds.
const (
	// ProgressBackendStart fires when a backend begins solving (once per
	// backend per Solve call).
	ProgressBackendStart ProgressKind = iota
	// ProgressBackendDone fires when a backend completes, with its final
	// testing time (or Err on failure).
	ProgressBackendDone
	// ProgressBackendCancelled fires right after the start of a
	// portfolio racer that is skipped because an earlier racer attained
	// the lower bound, or when the caller's context stopped a backend.
	ProgressBackendCancelled
	// ProgressImproved fires when a backend's running best testing time
	// improves, with the new incumbent time and the partitions
	// enumerated so far (0 for backends that do not enumerate
	// partitions).
	ProgressImproved
)

// String names the kind.
func (k ProgressKind) String() string {
	switch k {
	case ProgressBackendStart:
		return "start"
	case ProgressBackendDone:
		return "done"
	case ProgressBackendCancelled:
		return "cancelled"
	case ProgressImproved:
		return "improved"
	}
	return "unknown"
}

// ProgressEvent is one solver progress notification.
type ProgressEvent struct {
	// Backend is the name of the backend the event concerns.
	Backend string
	// Kind classifies the event.
	Kind ProgressKind
	// Time is the testing time the event reports: the new incumbent for
	// ProgressImproved, the final time for a successful
	// ProgressBackendDone (0 otherwise).
	Time soc.Cycles
	// Partitions is, on a ProgressImproved from an enumerating backend
	// (partition, exhaustive, ilp), the 1-based enumeration sequence
	// number of the improving partition — exact at any worker count,
	// since every worker enumerates the whole space in one order and
	// numbers it alike, whichever worker scores a partition. 0 for
	// non-enumerating backends and other kinds.
	Partitions int
	// Err is the failure message of a ProgressBackendDone that failed
	// ("" on success).
	Err string
	// Elapsed is the time since the Solve call began.
	Elapsed time.Duration
}

// ProgressFunc receives progress events. See the package documentation
// of the delivery discipline; nil disables the stream.
type ProgressFunc func(ProgressEvent)

// progressSink serializes one Solve call's events into the caller's
// hook. A nil sink (or a sink over a nil hook) swallows every event;
// every emitter therefore calls unconditionally and stays branch-free
// at the call site.
type progressSink struct {
	mu      sync.Mutex
	fn      ProgressFunc
	started time.Time
}

// newProgressSink returns a sink for the hook; nil hooks yield a nil
// sink so the no-observer path costs only a nil check.
func newProgressSink(fn ProgressFunc) *progressSink {
	if fn == nil {
		return nil
	}
	return &progressSink{fn: fn, started: time.Now()}
}

// emit delivers one event under the sink's mutex.
func (ps *progressSink) emit(ev ProgressEvent) {
	if ps == nil {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ev.Elapsed = time.Since(ps.started)
	ps.fn(ev)
}

// start, done, cancelled and improved are the emitter vocabulary.

func (ps *progressSink) start(backend string) {
	if ps == nil {
		return
	}
	ps.emit(ProgressEvent{Backend: backend, Kind: ProgressBackendStart})
}

func (ps *progressSink) done(backend string, t soc.Cycles, err error) {
	if ps == nil {
		return
	}
	ev := ProgressEvent{Backend: backend, Kind: ProgressBackendDone, Time: t}
	if err != nil {
		ev.Err = err.Error()
		ev.Time = 0
	}
	ps.emit(ev)
}

func (ps *progressSink) cancelled(backend string) {
	if ps == nil {
		return
	}
	ps.emit(ProgressEvent{Backend: backend, Kind: ProgressBackendCancelled})
}

func (ps *progressSink) improved(backend string, t soc.Cycles, partitions int) {
	if ps == nil {
		return
	}
	ps.emit(ProgressEvent{Backend: backend, Kind: ProgressImproved, Time: t, Partitions: partitions})
}
