package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/simnet"
)

// Per-slot cascade states. The parallel cascade runs on the Template's
// queued-mark lane (core.Lanes.Mark): every arena slot's uint32 forms a
// tiny state machine that provides both deduplication and single-flight
// execution (one evaluator per slot at a time, which work-stealing would
// otherwise break):
//
//	stIdle ──enqueue──▶ stQueued ──pop──▶ stRunning ──done──▶ stIdle
//	                                          │  ▲
//	                                 enqueue  ▼  │ rerun
//	                                      stRequeued
//
// An enqueue of a queued slot merges (no new entry); an enqueue of a
// running slot marks it requeued, and the slot's current runner loops —
// re-reading neighbor states that now include the enqueuer's flip — so
// no two workers ever evaluate the same slot concurrently, yet no flip
// of an earlier-in-π neighbor can be missed. All transitions are
// sequentially consistent atomics, which is what carries the
// happens-before edge from a neighbor's lane write to the re-run's read.
// stIdle and stQueued are the Template's own unmarked and marked values,
// so the seeds arrive queued and the lane is all-zero between windows.
const (
	stIdle uint32 = iota
	stQueued
	stRunning
	stRequeued
)

const (
	// serialSeedCutoff is the seed count up to which a window's cascade
	// is left to the Template's synchronous evaluator: spawning P workers
	// for a handful of seeds costs more than the cascade.
	serialSeedCutoff = 32
	// outboxFlush caps a per-destination outbox before it is force-flushed
	// mid-round, bounding the latency of a cross-shard hand-off batch.
	outboxFlush = 128
	// localSpill caps the private run stack; beyond it the oldest half is
	// published to the worker's own deque where idle shards can steal it.
	localSpill = 512
	// refillBatch is how many slots a worker moves from its shared deque
	// to its private stack per refill.
	refillBatch = 64
	// stealBatch caps one steal; Deque.Steal additionally never takes
	// more than half the victim's queue.
	stealBatch = 32
)

// shardPart is one slot partition's synchronization point. The membership
// bytes themselves live in the shared arena lane; the shard lock guards
// exactly the lane bytes of the slots this shard owns. The padding keeps
// neighboring shards' locks off one cache line, so lock traffic on one
// shard does not false-share with its neighbors.
type shardPart struct {
	mu sync.RWMutex
	_  [40]byte
}

// worker is one cascade worker's private state: its shared deque (where
// cross-shard batches arrive and thieves steal from), its private run
// stack, per-destination outbox rings, and window scratch. Everything
// except the deque is touched only by the owning worker goroutine during
// a cascade and by the coordinator after the workers have joined.
type worker struct {
	deque   simnet.Deque
	local   []int32   // private LIFO run stack (not stealable)
	out     [][]int32 // per-destination outbox rings, flushed in batches
	flipped []int32   // slots this worker first-flipped in the window

	handoffs int // later-in-π neighbors routed after a flip
	cross    int // the subset owned by another shard
	steals   int // successful steal operations by this worker
}

// parkLot is the cascade's idle coordination: workers that find no
// runnable work anywhere sleep here, batch deliveries bump gen and wake
// them, and the worker that drives pending to zero sets done.
type parkLot struct {
	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64
	waiting int
	done    bool
}

// parallel is the work-stealing evaluator of the flip fixpoint, plugged
// into the engine's Template as its core.ParallelCascade.
type parallel struct {
	g       *graph.Graph
	state   core.State
	shards  []*shardPart
	workers []*worker

	// The running window's lanes, lent by the Template for one Cascade.
	mark    []uint32 // per-slot cascade state, accessed atomically
	flipCnt []int32  // flips of this slot in the window (single-flight)

	pending   atomic.Int64 // queued + requeued slots in the running cascade
	lot       parkLot      // idle-worker parking for the running cascade
	seedBatch [][]int32    // per-owner seed staging, reused across windows

	// forceParallel makes Cascade accept every window, so tests exercise
	// the worker/stealing machinery even on single-processor runtimes and
	// for tiny seed sets.
	forceParallel bool
}

func newParallel(shards int) *parallel {
	p := &parallel{
		shards:    make([]*shardPart, shards),
		workers:   make([]*worker, shards),
		seedBatch: make([][]int32, shards),
	}
	for i := range p.shards {
		p.shards[i] = &shardPart{}
		p.workers[i] = &worker{out: make([][]int32, shards)}
	}
	p.lot.cond = sync.NewCond(&p.lot.mu)
	return p
}

// owner maps a slot to its shard: contiguous ownerBlock-sized slot blocks,
// round-robin across shards.
func (p *parallel) owner(s int32) int {
	return int(uint32(s) / ownerBlock % uint32(len(p.shards)))
}

// memBytes accounts the per-owner seed staging and each worker's deque,
// run stack, outboxes and flip log.
func (p *parallel) memBytes() int64 {
	var n int64
	for _, b := range p.seedBatch {
		n += int64(cap(b)) * 4
	}
	for _, w := range p.workers {
		n += int64(cap(w.local)+cap(w.flipped))*4 + w.deque.MemBytes()
		for _, o := range w.out {
			n += int64(cap(o)) * 4
		}
	}
	return n
}

// Cascade implements core.ParallelCascade. It declines small windows (and
// every window at P = 1 or on a single-processor runtime, where parallel
// workers could only timeshare); otherwise it fans the seeds out to their
// owners' deques, runs one worker per shard with work stealing until the
// cascade quiesces, and folds the workers' flip logs and routing counts
// into the window's lanes and account.
func (p *parallel) Cascade(seeds []int32, l *core.Lanes) (core.CascadeCounts, bool) {
	if !p.forceParallel && (len(p.shards) == 1 || len(seeds) <= serialSeedCutoff || runtime.GOMAXPROCS(0) == 1) {
		return core.CascadeCounts{}, false
	}
	p.mark, p.flipCnt = l.Mark, l.FlipCnt
	for _, wk := range p.workers {
		wk.flipped = wk.flipped[:0]
		wk.local = wk.local[:0]
		wk.handoffs, wk.cross, wk.steals = 0, 0, 0
	}
	for _, s := range seeds {
		d := p.owner(s)
		p.seedBatch[d] = append(p.seedBatch[d], s)
	}

	p.pending.Store(int64(len(seeds)))
	p.lot.done = false
	p.lot.gen = 0
	for d := range p.seedBatch {
		if len(p.seedBatch[d]) > 0 {
			p.workers[d].deque.PushBatch(p.seedBatch[d])
			p.seedBatch[d] = p.seedBatch[d][:0]
		}
	}
	var wg sync.WaitGroup
	for w := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runWorker(w)
		}()
	}
	wg.Wait()

	var c core.CascadeCounts
	for _, wk := range p.workers {
		l.Flipped = append(l.Flipped, wk.flipped...)
		c.Handoffs += wk.handoffs
		c.CrossShard += wk.cross
		c.Steals += wk.steals
	}
	p.mark, p.flipCnt = nil, nil
	return c, true
}

// recordFlip accounts one flip of slot s. The flip lanes are written only
// by s's current runner (single-flight) and read by the coordinator after
// the workers join.
func (p *parallel) recordFlip(wk *worker, s int32) {
	if p.flipCnt[s] == 0 {
		wk.flipped = append(wk.flipped, s)
	}
	p.flipCnt[s]++
}

// runWorker is one parallel worker's main loop: drain the private stack,
// flush outbox batches, refill from the own deque, steal from busier
// shards, park when the whole cascade is quiet.
func (p *parallel) runWorker(w int) {
	wk := p.workers[w]
	for {
		for len(wk.local) > 0 {
			n := len(wk.local) - 1
			s := wk.local[n]
			wk.local = wk.local[:n]
			p.process(w, wk, s)
		}
		p.flushAll(wk)
		if p.refill(wk) {
			continue
		}
		if p.stealWork(w, wk) {
			continue
		}
		if !p.park(w, wk) {
			return
		}
	}
}

// process runs the state machine for one popped slot: evaluate (and
// maybe flip), looping while enqueues marked the slot requeued, then
// release the pending credit and detect termination.
func (p *parallel) process(w int, wk *worker, s int32) {
	fl := &p.mark[s]
	if old := atomic.SwapUint32(fl, stRunning); old != stQueued {
		panic(fmt.Sprintf("shard: popped slot %d in cascade state %d, want queued", s, old))
	}
	for {
		p.step(w, wk, s)
		if atomic.CompareAndSwapUint32(fl, stRunning, stIdle) {
			break
		}
		// An enqueue landed while we were running: consume its credit
		// and re-evaluate with the enqueuer's flip now visible.
		if old := atomic.SwapUint32(fl, stRunning); old != stRequeued {
			panic(fmt.Sprintf("shard: rerun of slot %d found cascade state %d, want requeued", s, old))
		}
		p.pending.Add(-1)
	}
	if p.pending.Add(-1) == 0 {
		p.shutdown()
	}
}

// step evaluates the MIS invariant at slot s and flips it if violated,
// forwarding the slots whose invariant the flip can affect. The
// membership lane is read under the slot-owning shard's RLock and
// written under its write lock; reads may be momentarily stale, but any
// later flip of an earlier neighbor re-enqueues (or re-runs) s, so
// staleness delays convergence and cannot corrupt the fixpoint.
func (p *parallel) step(w int, wk *worker, s int32) {
	own := p.shards[p.owner(s)]
	own.mu.RLock()
	cur := p.state.At(int(s))
	own.mu.RUnlock()

	want := core.In
	for _, nb := range p.g.NeighborSlots(int(s)) {
		if !p.g.LessAt(int(nb), int(s)) {
			continue
		}
		q := p.shards[p.owner(nb)]
		q.mu.RLock()
		nin := p.state.At(int(nb)) == core.In
		q.mu.RUnlock()
		if nin {
			want = core.Out
			break
		}
	}
	if want == cur {
		return
	}

	own.mu.Lock()
	p.state.SetAt(int(s), want)
	own.mu.Unlock()
	p.recordFlip(wk, s)

	// Only nodes later in π can have been violated by this flip.
	so := p.owner(s)
	for _, nb := range p.g.NeighborSlots(int(s)) {
		if !p.g.LessAt(int(s), int(nb)) {
			continue
		}
		wk.handoffs++
		if p.owner(nb) != so {
			wk.cross++
		}
		p.enqueue(w, wk, nb)
	}
}

// enqueue routes slot s into the cascade: own-shard work goes onto the
// private stack, cross-shard work into the destination's outbox ring.
// Duplicate enqueues merge via the state machine; enqueues against a
// running slot become a rerun instead of a queue entry.
//
// The pending credit is taken after the CAS but before the slot becomes
// visible to any consumer; the count cannot meanwhile hit zero because
// the caller — a worker mid-process — still holds its own credit.
func (p *parallel) enqueue(w int, wk *worker, s int32) {
	fl := &p.mark[s]
	for {
		switch atomic.LoadUint32(fl) {
		case stIdle:
			if atomic.CompareAndSwapUint32(fl, stIdle, stQueued) {
				p.pending.Add(1)
				d := p.owner(s)
				if d == w {
					wk.local = append(wk.local, s)
					if len(wk.local) > localSpill {
						p.spillLocal(wk)
					}
				} else {
					wk.out[d] = append(wk.out[d], s)
					if len(wk.out[d]) >= outboxFlush {
						p.flushDest(wk, d)
					}
				}
				return
			}
		case stQueued, stRequeued:
			return // merged into the already-pending entry
		case stRunning:
			if atomic.CompareAndSwapUint32(fl, stRunning, stRequeued) {
				p.pending.Add(1)
				return
			}
		}
	}
}

// spillLocal publishes the oldest half of the private stack to the
// worker's shared deque, where idle shards can steal it.
func (p *parallel) spillLocal(wk *worker) {
	half := len(wk.local) / 2
	wk.deque.PushBatch(wk.local[:half])
	n := copy(wk.local, wk.local[half:])
	wk.local = wk.local[:n]
	p.wake()
}

// flushDest delivers one destination's outbox as a single batch.
func (p *parallel) flushDest(wk *worker, d int) {
	p.workers[d].deque.PushBatch(wk.out[d])
	wk.out[d] = wk.out[d][:0]
	p.wake()
}

// flushAll delivers every non-empty outbox; it must run before a worker
// refills, steals or parks, so no hand-off can hide in a sleeping
// worker's outbox.
func (p *parallel) flushAll(wk *worker) {
	for d := range wk.out {
		if len(wk.out[d]) > 0 {
			p.flushDest(wk, d)
		}
	}
}

// refill moves a batch from the worker's shared deque onto its private
// stack, reporting whether anything arrived.
func (p *parallel) refill(wk *worker) bool {
	n := len(wk.local)
	wk.local = wk.deque.PopBatch(wk.local, refillBatch)
	return len(wk.local) > n
}

// stealWork scans the other shards' deques and steals a batch from the
// first non-empty one.
func (p *parallel) stealWork(w int, wk *worker) bool {
	for i := 1; i < len(p.workers); i++ {
		v := (w + i) % len(p.workers)
		n := len(wk.local)
		wk.local = p.workers[v].deque.Steal(wk.local, stealBatch)
		if len(wk.local) > n {
			wk.steals++
			return true
		}
	}
	return false
}

// park blocks until new work may exist (a batch delivery bumped gen) or
// the cascade terminated. It returns false exactly when the worker
// should exit. The gen re-check between the unlocked probe and the Wait
// closes the lost-wakeup window.
func (p *parallel) park(w int, wk *worker) bool {
	lot := &p.lot
	lot.mu.Lock()
	for {
		if lot.done {
			lot.mu.Unlock()
			return false
		}
		gen := lot.gen
		lot.mu.Unlock()
		if p.refill(wk) || p.stealWork(w, wk) {
			return true
		}
		lot.mu.Lock()
		if lot.gen == gen && !lot.done {
			lot.waiting++
			lot.cond.Wait()
			lot.waiting--
		}
	}
}

// wake records that work was published and rouses parked workers.
func (p *parallel) wake() {
	lot := &p.lot
	lot.mu.Lock()
	lot.gen++
	if lot.waiting > 0 {
		lot.cond.Broadcast()
	}
	lot.mu.Unlock()
}

// shutdown marks the cascade terminated and releases every parked worker.
func (p *parallel) shutdown() {
	lot := &p.lot
	lot.mu.Lock()
	lot.done = true
	lot.cond.Broadcast()
	lot.mu.Unlock()
}
