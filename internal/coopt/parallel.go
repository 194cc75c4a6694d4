package coopt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/assign"
	"soctam/internal/partition"
	"soctam/internal/soc"
)

// batchSize is how many partitions a worker claims at once. Batching
// amortizes channel traffic; small runs fit in one batch and behave like
// the sequential path.
const batchSize = 256

// batch is a block of enumerated partitions stored back to back in one
// flat slab (partition i is flat[i*width : (i+1)*width]). seq0 is the
// global enumeration sequence number of the first partition; sequence
// numbers totally order partitions across TAM counts.
type batch struct {
	seq0  int64
	width int // parts per partition (the TAM count B)
	flat  []int
}

// count returns the number of partitions in the batch.
func (b *batch) count() int { return len(b.flat) / b.width }

// parts returns the i-th partition in the batch.
func (b *batch) parts(i int) []int { return b.flat[i*b.width : (i+1)*b.width] }

// parEvaluator scores partitions on a pool of workers. The running best
// testing time is shared through an atomic so the paper's lines 18–20
// abort keeps pruning across workers; the winning partition is tracked
// under a mutex with a sequence-number tie-break so the outcome is the
// same partition the sequential path would pick, at any worker count.
//
// Determinism argument: Core_assign is deterministic per partition, and a
// partition only ever aborts when its final time could not beat the bound
// it was raced against — so the set {(value, seq)} of potential winners
// is evaluation-order independent, and taking the lexicographic minimum
// reproduces the sequential "first strict improvement" winner exactly.
// Only the Completed/Aborted/Improved split of Stats depends on timing.
type parEvaluator struct {
	tables [][]soc.Cycles
	orders *assign.Orders // shared read-only by every worker
	opt    Options
	pc     *powerContext
	ctx    context.Context // nil = never cancelled
	sink   *progressSink   // nil = no observer

	best atomic.Int64 // running best testing time in cycles; 0 = none yet
	// (a genuine 0-cycle best leaves the atomic at 0, which only costs
	// pruning on degenerate SOCs; haveBest below carries correctness)

	mu       sync.Mutex
	haveBest bool
	bestPart []int
	bestSeq  int64
	stats    Stats

	// truncated records that the deadline fired between batches and the
	// generator stopped feeding the pool. Written only by the generator
	// (which runs on evaluateB's goroutine) and read after the workers
	// drain, so it needs no synchronization of its own.
	truncated bool

	seq int64 // next sequence number (touched only by the generator)

	// free recycles drained batch slabs back to the generator so a long B
	// sweep stops allocating one slab per 256 partitions once the pool
	// warms up. Slabs whose capacity no longer fits (the TAM count grew)
	// are simply dropped.
	free chan []int

	// scratch holds one entry per worker, kept across the B sweep so
	// each is sized once per solve.
	scratch []workerScratch
}

// workerScratch is one worker's own buffers. The assignment and power
// scratches are worker-local because record checks power feasibility
// outside the shared mutex — the buffers are live concurrently across
// workers.
type workerScratch struct {
	asg assign.Scratch
	ps  powerScratch
}

func newParEvaluator(tables [][]soc.Cycles, orders *assign.Orders, opt Options, pc *powerContext) *parEvaluator {
	return &parEvaluator{
		tables:  tables,
		orders:  orders,
		opt:     opt,
		pc:      pc,
		free:    make(chan []int, 4*opt.workers()),
		scratch: make([]workerScratch, opt.workers()),
	}
}

// evaluateB enumerates all width partitions for a fixed TAM count and
// scores them on the worker pool. Successive calls (the partition
// engine's B sweep) share the running bound and the sequence order.
func (p *parEvaluator) evaluateB(width, numTAMs int) error {
	if numTAMs < 1 || width < numTAMs {
		return fmt.Errorf("coopt: cannot split width %d into %d TAMs", width, numTAMs)
	}
	jobs := make(chan batch, 2*len(p.scratch))
	var wg sync.WaitGroup
	for w := range p.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.worker(jobs, &p.scratch[w])
		}()
	}
	err := p.generate(width, numTAMs, jobs)
	close(jobs)
	wg.Wait()
	if err == nil && p.ctx != nil {
		err = p.ctx.Err()
	}
	return err
}

// generate enumerates partitions with the configured strategy, copies
// them out of the enumerator's reused buffer into flat slabs, and feeds
// them to the pool in batches. A cancelled context stops the enumeration
// at the next batch boundary (workers drain but skip remaining work).
func (p *parEvaluator) generate(width, numTAMs int, jobs chan<- batch) error {
	// slab reuses a recycled flat buffer when one with enough capacity is
	// waiting; the three-index slice pins the capacity to exactly one
	// batch so the "batch full" test below stays a capacity check.
	slab := func() []int {
		want := batchSize * numTAMs
		for {
			select {
			case s := <-p.free:
				if cap(s) >= want {
					return s[:0:want]
				}
			default:
				return make([]int, 0, want)
			}
		}
	}
	cur := batch{seq0: p.seq, width: numTAMs, flat: slab()}
	emit := func(parts []int) bool {
		cur.flat = append(cur.flat, parts...)
		p.seq++
		if len(cur.flat) == cap(cur.flat) {
			if p.ctx != nil && p.ctx.Err() != nil {
				return false
			}
			// Deadline poll at the same batch cadence as cancellation, and
			// only once an incumbent exists (best is 0 until a first
			// nonzero record; a degenerate all-zero-time SOC simply never
			// truncates, which only costs it the early exit). Workers still
			// drain the batches already queued, so the incumbent can keep
			// improving past this point — the generator just stops feeding.
			if !p.opt.Deadline.IsZero() && p.best.Load() != 0 && time.Now().After(p.opt.Deadline) {
				p.truncated = true
				return false
			}
			jobs <- cur
			cur = batch{seq0: p.seq, width: numTAMs, flat: slab()}
		}
		return true
	}
	if err := enumeratePartitions(width, numTAMs, p.opt.Enumeration, emit); err != nil {
		return err
	}
	if len(cur.flat) > 0 && !p.truncated && (p.ctx == nil || p.ctx.Err() == nil) {
		jobs <- cur
	}
	return nil
}

// worker drains batches, scoring each partition with Core_assign from
// the shared orders against the shared bound, on its own scratch ws;
// per-worker stats merge once at exit.
func (p *parEvaluator) worker(jobs <-chan batch, ws *workerScratch) {
	var local Stats
	for b := range jobs {
		if p.ctx == nil || p.ctx.Err() == nil {
			for k := 0; k < b.count(); k++ {
				parts := b.parts(k)
				// Abort only strictly above the bound (bound+1): partitions
				// tying the running best must complete so the sequence-number
				// tie-break can pick the deterministic winner among equals.
				var bound soc.Cycles
				if !p.opt.NoEarlyAbort {
					if cur := p.best.Load(); cur > 0 {
						bound = soc.Cycles(cur) + 1
					}
				}
				a, completed := scoreOne(p.orders, &ws.asg, parts, bound, p.opt, &local)
				if !completed {
					continue
				}
				p.record(a.Time, parts, a.TAMOf, b.seq0+int64(k), &local, &ws.ps)
			}
		}
		// Nothing scored above outlives the batch (the winning partition
		// is copied by partition.Canonical), so the slab can go straight
		// back to the generator.
		select {
		case p.free <- b.flat:
		default:
		}
	}
	p.mu.Lock()
	p.stats.add(local)
	p.mu.Unlock()
}

// record folds one completed evaluation into the shared best: better
// time wins, equal time goes to the earlier enumeration sequence.
// Power-infeasible evaluations never reach the shared best, so the
// potential-winner set stays evaluation-order independent and the
// determinism argument above carries over unchanged.
func (p *parEvaluator) record(t soc.Cycles, parts []int, tamOf []int, seq int64, local *Stats, ps *powerScratch) {
	if cur := p.best.Load(); cur != 0 && soc.Cycles(cur) < t {
		return
	}
	// Checked outside the lock: feasibility is partition-intrinsic, and
	// ps is the calling worker's own scratch.
	if !p.pc.feasible(p.tables, parts, tamOf, ps) {
		local.PowerInfeasible++
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// haveBest (not the 0 sentinel) marks a recorded best, so a genuine
	// 0-cycle best still reaches the sequence tie-break and the winner
	// stays deterministic on degenerate all-zero-time SOCs.
	switch cur := soc.Cycles(p.best.Load()); {
	case !p.haveBest || t < cur:
		p.haveBest = true
		p.best.Store(int64(t))
		p.bestPart = partition.Canonical(parts)
		p.bestSeq = seq
		local.Improved++
		// Emitted under p.mu, so the stream stays serialized; the times
		// reported are strictly decreasing even though evaluation order
		// is not the enumeration order.
		p.sink.improved(partitionBackendName, t, int(seq)+1)
	case t == cur && seq < p.bestSeq:
		p.bestPart = partition.Canonical(parts)
		p.bestSeq = seq
	}
}

// finish assembles the Result exactly like the sequential path.
func (p *parEvaluator) finish(width int, started time.Time) (Result, error) {
	return finishResult(p.tables, p.opt, p.pc, soc.Cycles(p.best.Load()), p.bestPart, p.stats, width, started, p.truncated)
}
