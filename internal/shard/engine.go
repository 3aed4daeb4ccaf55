// Package shard implements the sharded concurrent update engine: a
// core.Template whose flip fixpoint is evaluated in parallel by P worker
// goroutines, each anchored to a partition of the vertex space.
//
// Every window runs the Template's one apply path: serial staging through
// core.StageChange (which fixes π exactly as the sequential engine does),
// one recovery cascade over the window's seeds (the union of the
// per-change candidate sets S0), then O(touched) accounting and the feed
// delta. The engine differs from the Template only in how the cascade is
// evaluated. The Template offers each window's resolved seeds to this
// package's parallel cascade (a core.ParallelCascade), which declines
// windows of at most serialSeedCutoff seeds, P = 1 and GOMAXPROCS 1: those
// run the Template's synchronous cascade, so a one-shard engine reports
// exactly what the Template reports. A window the parallel cascade accepts
// runs as a distributed worklist with work stealing. Each worker drains a
// private run stack of candidate slots, re-evaluates the MIS invariant
// against current neighbor states, flips under the slot-owning shard's
// lock, and routes the later-in-π neighbors of every flipped node: slots
// of its own shard onto the private stack, foreign slots into
// per-destination outbox rings that are flushed as whole batches into the
// destination worker's deque (simnet.Deque). A worker whose own shard runs
// dry steals batches from busier shards' deques, so a skewed cascade does
// not leave P−1 cores parked. Per-slot deduplication and single-flight
// execution are enforced by an atomic state machine on the Template's
// queued-mark lane (see cascade.go), not by queue identity, so stealing
// cannot double-evaluate a slot.
//
// Storage is the same dense arena every engine shares: memberships live in
// the graph's one-byte state lane and priorities in its priority lane, so
// a worker's invariant evaluation is an array walk over neighbor slots.
// The partition is over slots, not node IDs — contiguous blocks of
// ownerBlock slots per shard — which keeps a shard's lane bytes on its own
// cache lines, and the graph's free-list is partitioned the same way
// (graph.PartitionFreeList), so staging recycles slots round-robin across
// shards instead of clumping one shard's blocks with all the fresh nodes.
// During a cascade the graph (and hence the slot space) is frozen, so
// workers exchange raw slot indices and never consult the NodeID index
// table.
//
// Correctness does not depend on scheduling: the membership assignment
// satisfying the invariant "v ∈ MIS iff no earlier-in-π neighbor is in the
// MIS" is unique for a fixed graph and order (it is the sequential greedy
// MIS), flips propagate strictly upward in π, and every flip re-enqueues
// exactly the nodes whose invariant it can affect — so the fixpoint the
// workers quiesce at is that unique assignment, regardless of shard count,
// stealing, or interleaving. This is the same history-independence
// argument (Definition 14) that makes the paper's distributed engines
// agree with the sequential oracle. The paper's Theorem 1 (E[|S|] ≤ 1) is
// what makes the design scale: the expected number of cascade hand-offs —
// and hence of cross-shard batches — is O(1) per change, independent of
// both the graph size and P.
package shard

import (
	"fmt"
	"runtime"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// DefaultWindow is the number of changes applied per parallel window by
// ApplyAll when SetWindow has not been called.
const DefaultWindow = 512

// ownerBlock is the slot-partition granularity: slots are assigned to
// shards in contiguous blocks of this size, aligning a shard's span of the
// one-byte state lane with whole cache lines so concurrent workers do not
// false-share.
const ownerBlock = 64

// Engine is the sharded concurrent MIS maintainer: a core.Template whose
// windows evaluate their cascade on the parallel worklist. Everything but
// ApplyAll's windowing and the memory account is the Template's. The
// concurrency is confined to a window's cascade, so between calls the
// engine is quiescent and all accessors are plain reads.
//
// An Engine must not be used from multiple goroutines simultaneously: the
// parallelism is inside a window, not across callers.
type Engine struct {
	*core.Template
	par    *parallel
	window int
}

// Engine implements the full engine surface plus the persistence
// capability (its core state — graph, order, memberships — is the
// Template's, merely partitioned) and the instrumentation capability.
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.Snapshotter    = (*Engine)(nil)
	_ core.Instrument     = (*Engine)(nil)
	_ core.MemoryReporter = (*Engine)(nil)
)

// New returns an engine over the empty graph with the given shard count
// (values below 1 select GOMAXPROCS) and a fresh order seeded by seed.
func New(seed uint64, shards int) *Engine {
	return NewWithOrder(order.New(seed), shards)
}

// NewWithOrder returns an engine sharing a caller-supplied order, so that
// differential tests can run several engines under the same π.
func NewWithOrder(ord *order.Order, shards int) *Engine {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	par := newParallel(shards)
	t := core.NewParallelTemplate(ord, par)
	// Partition the arena free-list along shard-ownership blocks: each
	// shard recycles slots it owns, so staging-heavy workloads do not
	// funnel every insertion through one shard's slot range.
	t.Graph().PartitionFreeList(shards, ownerBlock)
	par.g, par.state = t.Graph(), t.View()
	return &Engine{Template: t, par: par, window: DefaultWindow}
}

// Restore rebuilds a sharded engine from a snapshot with the given shard
// count (values below 1 select GOMAXPROCS). The partitioning is a runtime
// tuning knob, not part of the structure, so a snapshot taken at one
// shard count — or on the Template — restores at any other. Fresh nodes
// inserted after the restore draw priorities from a new stream seeded
// with seed, and the snapshot is validated, as in core.RestoreTemplate.
func Restore(s *core.Snapshot, seed uint64, shards int) (*Engine, error) {
	e := NewWithOrder(order.New(seed), shards)
	if err := core.RestoreInto(e.Template, s); err != nil {
		return nil, err
	}
	return e, nil
}

// Shards returns the shard count P.
func (e *Engine) Shards() int { return len(e.par.shards) }

// SetWindow sets the number of changes ApplyAll groups into one parallel
// window (values below 1 restore DefaultWindow).
func (e *Engine) SetWindow(n int) {
	if n < 1 {
		n = DefaultWindow
	}
	e.window = n
}

// ApplyAll applies a change sequence in windows of the configured size,
// accumulating reports; it stops at the first error.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for lo := 0; lo < len(cs); lo += e.window {
		hi := min(lo+e.window, len(cs))
		rep, err := e.ApplyBatch(cs[lo:hi])
		if err != nil {
			return total, fmt.Errorf("window at change %d: %w", lo, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// MemoryProfile accounts the sharded engine: the Template's arena and
// scratch plus the parallel cascade's per-owner seed staging and each
// worker's deque, run stack, outboxes and flip log. Safe only while the
// engine is quiescent (between windows), like every other accessor.
func (e *Engine) MemoryProfile() metrics.Memory {
	return core.ArenaMemory(e.Graph(), e.ScratchBytes()+e.par.memBytes())
}
