package coopt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/assign"
	"soctam/internal/pack"
	"soctam/internal/partition"
	"soctam/internal/soc"
)

// scan is the one loop over width partitions that the partition engine
// (the paper's Partition_evaluate, Figure 3), the exhaustive baseline of
// [8] and the ILP branch and bound share. It owns what they have in
// common: the TAM-count check, the enumeration, one poll of the context
// and the deadline, and the incumbent — the minimum of (time,
// enumeration sequence number) over the partitions offered to it, with
// its power check and its improved event. Each engine supplies a scoring
// function and assembles its own Result.
//
// The scan runs as strided copies of one sequential loop: worker w of n
// enumerates the whole space itself and scores the partitions whose
// sequence number is w mod n, so nothing is copied, batched or queued,
// and one worker is the paper's sequential order. Sequence numbers count
// the partitions of every TAM count in sweep order. ARCHITECTURE.md §3
// has the argument that the answer is the same at any worker count.
type scan struct {
	ctx      context.Context
	deadline time.Time
	tables   [][]soc.Cycles
	pc       *powerContext
	lb       soc.Cycles    // the solve's lower bound (pack.LowerBound)
	sink     *progressSink // nil = no observer
	plan     scanPlan
	workers  []worker
	wg       sync.WaitGroup // the workers beyond the first, during sweep
	maxParts int            // the most parts a partition of the sweep has

	// The incumbent's time and sequence number change under mu, the
	// sequence number stored before the time, and lock-free readers load
	// the time before the sequence number (see bound).
	best      atomic.Int64 // the incumbent's time; -1 until one exists
	bestSeq   atomic.Int64 // the incumbent's sequence number
	truncated atomic.Bool  // the deadline stopped the scan

	mu       sync.Mutex // guards the incumbent's changes, partition and count
	bestPart []int      // the incumbent's partition, sorted; nil until one exists
	improved int        // strict improvements of the incumbent
}

// scanPlan is what an engine fixes about its scan.
type scanPlan struct {
	backend string      // the engine name its improved events carry
	enum    Enumeration // the partition generator
	workers int         // strided copies of the loop
	poll    int         // a worker's own partitions from one poll to the next
}

// Poll cadences. Core_assign scores a partition in well under a
// microsecond and ctx.Err() takes a lock, so the partition engine polls
// once per 1024 of a worker's own partitions; each partition of an exact
// engine costs an exact solve, so those poll at every one.
const (
	heuristicPoll = 1024
	exactPoll     = 1
)

// worker is one strided copy of the loop: its place in the enumeration,
// its countdowns and its own buffers.
type worker struct {
	src   source
	seq   int64 // sequence number of the next partition enumerated
	skip  int   // partitions until this worker's next own one
	poll  int   // own partitions until the next poll
	err   error // the scoring error that stopped this worker
	stats Stats // the engine's counts; offer books PowerInfeasible

	asg assign.Scratch // the engine's Core_assign buffers
	ps  powerScratch   // offer's power-check buffers

	// The workers sit side by side in one slice and each rewrites its
	// counters at every partition; the pad keeps neighbours' counters
	// off one cache line whatever the field order.
	_ [64]byte
}

// scoreFunc is an engine's per-partition body, called with the worker
// that owns the partition (parts is the enumerator's reused buffer). It
// returns errStop to end the worker's scan without an error.
type scoreFunc func(w *worker, parts []int, seq int64) error

// errStop ends a worker's scan without failing it: the ILP engine returns
// it once its incumbent attains the global lower bound.
var errStop = errors.New("coopt: scan stopped")

// newScan computes the solve's testing-time tables, power context and
// lower bound and prepares the plan's workers.
func newScan(ctx context.Context, s *soc.SOC, width int, opt Options, sink *progressSink, plan scanPlan) (*scan, error) {
	tables, err := opt.tables(s, width)
	if err != nil {
		return nil, err
	}
	pc, err := newPowerContext(s, opt)
	if err != nil {
		return nil, err
	}
	_, hi := opt.tamRange(width)
	sc := &scan{ctx: ctx, deadline: opt.deadline, tables: tables, pc: pc, sink: sink, plan: plan,
		lb:      pack.LowerBound(s, tables, width, pc.maxPower()),
		workers: make([]worker, plan.workers), maxParts: min(hi, width)}
	sc.best.Store(-1)
	for i := range sc.workers {
		sc.workers[i].skip = i + 1
		sc.workers[i].poll = 1
	}
	return sc, nil
}

// sweep scans the partitions of width into lo, lo+1, ..., hi parts, in
// that order. Each worker beyond the first runs the whole range on a
// goroutine of its own, started once per sweep rather than once per TAM
// count: a goroutine start may make the runtime allocate a descriptor,
// which moves a solve's allocation count from run to run. All have
// returned when sweep does. It returns the first scoring error, else
// the context's.
func (sc *scan) sweep(width, lo, hi int, score scoreFunc) error {
	if lo < 1 || width < hi {
		return fmt.Errorf("coopt: cannot split width %d into %d TAMs", width, hi)
	}
	for i := 1; i < len(sc.workers); i++ {
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			sc.walk(&sc.workers[i], width, lo, hi, score)
		}()
	}
	sc.walk(&sc.workers[0], width, lo, hi, score)
	sc.wg.Wait()
	for i := range sc.workers {
		if err := sc.workers[i].err; err != nil {
			return err
		}
	}
	return sc.ctx.Err()
}

// walk is one worker's loop over the partitions of width into lo..hi
// parts: each partition takes the next sequence number, and each of the
// worker's own is polled for and scored. Countdowns, not seq % n, keep
// integer division off the per-partition path. The worker builds its
// enumerator on its own goroutine, so the buffer rewritten at every
// partition is not allocated next to a neighbour's on one cache line,
// which made a second worker slower than none.
func (sc *scan) walk(w *worker, width, lo, hi int, score scoreFunc) {
	for b := lo; b <= hi; b++ {
		if w.err = w.src.reset(sc.plan.enum, width, b); w.err != nil {
			return
		}
		for {
			parts, ok := w.src.next()
			if !ok {
				break
			}
			seq := w.seq
			w.seq++
			if w.skip--; w.skip > 0 {
				continue
			}
			w.skip = len(sc.workers)
			if w.poll--; w.poll == 0 {
				w.poll = sc.plan.poll
				if !sc.poll() {
					return
				}
			}
			if err := score(w, parts, seq); err != nil {
				if err != errStop {
					w.err = err
				}
				return
			}
		}
	}
}

// poll reports whether a worker may go on: not once the context is
// cancelled, and not once the deadline has passed with an incumbent in
// hand — before a first incumbent the deadline never fires, so a
// feasible solve always answers. A run with no deadline never reads the
// clock.
func (sc *scan) poll() bool {
	if sc.ctx.Err() != nil {
		return false
	}
	if !sc.deadline.IsZero() && sc.best.Load() >= 0 && time.Now().After(sc.deadline) {
		sc.truncated.Store(true)
		return false
	}
	return true
}

// cut reports whether the deadline stopped an exact solve, one that did
// not prove its answer, and if so marks the scan truncated. A run with
// no deadline reads no clock.
func (sc *scan) cut(proven bool) bool {
	if proven || sc.deadline.IsZero() || !time.Now().After(sc.deadline) {
		return false
	}
	sc.truncated.Store(true)
	return true
}

// incumbent returns the incumbent's time, ok=false before one exists.
func (sc *scan) incumbent() (t soc.Cycles, ok bool) {
	b := sc.best.Load()
	return soc.Cycles(b), b >= 0
}

// bound is Core_assign's abort bound for partition seq, 0 (none) until
// a nonzero incumbent exists. A partition enumerated after the
// incumbent's cannot win a tie, so it aborts at the incumbent's time,
// which is every partition's bound on one worker. On the pool a
// partition enumerated before it can arrive late and win a tie, so it
// must complete one: its bound is one cycle above. The time is loaded
// before the sequence number, which offer stores first, so a pair read
// mid-change pairs a time with a sequence number of the same or a later
// incumbent: the bound only grows, or the tie it refuses could not win
// against the later incumbent either.
func (sc *scan) bound(seq int64) soc.Cycles {
	b := sc.best.Load()
	switch {
	case b <= 0:
		return 0
	case seq > sc.bestSeq.Load():
		return soc.Cycles(b)
	}
	return soc.Cycles(b) + 1
}

// offer proposes a completed evaluation of partition seq for the
// incumbent and reports whether it became it: a strictly better time
// wins, an equal time only with an earlier sequence number, and
// anything else is refused first, by bound's rule and before the power
// check. A would-be winner whose serial-per-TAM schedule breaches the
// power ceiling counts as PowerInfeasible instead; the check runs
// outside the lock on the worker's own scratch, since feasibility is a
// property of the partition and its assignment alone. A strict
// improvement fires the improved event under the lock, so the stream
// stays serialized and its times strictly decrease.
func (sc *scan) offer(w *worker, t soc.Cycles, parts, tamOf []int, seq int64) bool {
	if b := sc.best.Load(); b >= 0 && (t > soc.Cycles(b) || t == soc.Cycles(b) && seq > sc.bestSeq.Load()) {
		return false
	}
	if !sc.pc.feasible(sc.tables, parts, tamOf, &w.ps) {
		w.stats.PowerInfeasible++
		return false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch b := sc.best.Load(); {
	case b < 0 || t < soc.Cycles(b):
		sc.bestSeq.Store(seq)
		sc.best.Store(int64(t))
		sc.improved++
		sc.sink.improved(sc.plan.backend, t, int(seq)+1)
	case t == soc.Cycles(b) && seq < sc.bestSeq.Load():
		// An earlier tie takes the partition; the time, and so the
		// stream, is unchanged.
		sc.bestSeq.Store(seq)
	default:
		return false
	}
	if sc.bestPart == nil {
		sc.bestPart = make([]int, 0, sc.maxParts)
	}
	sc.bestPart = append(sc.bestPart[:0], parts...)
	slices.Sort(sc.bestPart)
	return true
}

// stats sums the workers' counts.
func (sc *scan) stats() Stats {
	var st Stats
	for i := range sc.workers {
		st.add(sc.workers[i].stats)
	}
	return st
}

// exactResult assembles an exact engine's Result from its finished scan:
// the incumbent, with the assignment the engine kept from its winning
// offer. grade decides whether the completed scan proves it.
func (sc *scan) exactResult(strategy Strategy, width int, a assign.Assignment, allProven bool, started time.Time) Result {
	best, _ := sc.incumbent()
	res := Result{
		TotalWidth:        width,
		Strategy:          strategy,
		Partition:         sc.bestPart,
		NumTAMs:           len(sc.bestPart),
		HeuristicTime:     best,
		Assignment:        a,
		Time:              best,
		AssignmentOptimal: allProven,
		MaxPower:          sc.pc.maxPower(),
		PeakPower:         sc.pc.peak(sc.tables, sc.bestPart, a.TAMOf, nil),
		Truncated:         sc.truncated.Load(),
		Stats:             sc.stats(),
	}
	res.grade(sc.lb, allProven)
	res.Elapsed = time.Since(started)
	return res
}

// source is a worker's partition enumerator. next is a branch, not an
// interface call, so stepping the canonical enumerator costs one direct
// call; the canonical one is reset in place, so it allocates once per
// solve, the paper's odometer once per TAM count.
type source struct {
	enum Enumeration
	lex  partition.Lex
	odo  *partition.Odometer
}

func (s *source) reset(enum Enumeration, width, numTAMs int) (err error) {
	s.enum = enum
	if enum == EnumOdometer {
		s.odo, err = partition.NewOdometer(width, numTAMs)
	} else {
		s.lex.Reset(width, numTAMs)
	}
	return err
}

func (s *source) next() ([]int, bool) {
	if s.enum == EnumOdometer {
		return s.odo.Next()
	}
	return s.lex.Next()
}
