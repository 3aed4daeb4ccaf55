package core

import "fmt"

// Report is the per-change cost account shared by all engines. Fields that
// a given engine does not model are left zero (e.g. the template engine has
// no broadcasts; the async engine reports CausalDepth instead of Rounds).
type Report struct {
	// Adjustments is the number of nodes whose output changed between the
	// stable configuration before the change and the one after it — the
	// paper's adjustment-complexity. Theorem 1 bounds its expectation by 1.
	Adjustments int
	// SSize is the number of distinct nodes in the influence set S of
	// Eq. (1): every node that changed state at least once during
	// recovery. Adjustments ≤ SSize; nodes that flip an even number of
	// times (like u2 in the §3 path example) are in S but not adjusted.
	SSize int
	// Flips is the total number of state flips including repeats; the
	// naive template may make up to |S|² of them (§4).
	Flips int
	// Rounds is the synchronous round-complexity: rounds until the system
	// is stable again.
	Rounds int
	// Broadcasts counts O(log n)-bit broadcast messages sent to all
	// neighbors (the paper's broadcast-complexity).
	Broadcasts int
	// Bits is the total message payload size in bits across the recovery.
	Bits int
	// CausalDepth is the asynchronous "round" measure: the longest chain
	// of causally dependent message deliveries.
	CausalDepth int
	// CrossShard counts cascade hand-offs that crossed a shard boundary
	// in the sharded concurrent engine's parallel windows — their
	// serialization points. Windows the parallel cascade declines run the
	// Template's synchronous cascade and report zero. Theorem 1's
	// E[|S|] ≤ 1 bounds its expectation by O(1) per change regardless of
	// the shard count.
	CrossShard int
	// Steals counts work-steal operations in the sharded concurrent
	// engine's parallel windows: an idle worker taking queued slots from
	// a busier shard. Scheduling-dependent, so not deterministic across
	// runs.
	Steals int
	// Work counts primitive adjacency-entry examinations — the
	// single-machine update-time measure used by the sequential structure
	// (internal/seqdyn) and the competitor engines (internal/guptakhan,
	// internal/aoss), where the cost model is data-structure work rather
	// than communication. Zero for the distributed engines.
	Work int
}

// Add accumulates o into r (for sequence-level totals).
func (r *Report) Add(o Report) {
	r.Adjustments += o.Adjustments
	r.SSize += o.SSize
	r.Flips += o.Flips
	r.Rounds += o.Rounds
	r.Broadcasts += o.Broadcasts
	r.Bits += o.Bits
	if o.CausalDepth > r.CausalDepth {
		r.CausalDepth = o.CausalDepth
	}
	r.CrossShard += o.CrossShard
	r.Steals += o.Steals
	r.Work += o.Work
}

// MaxOf raises each field of r to the corresponding field of o — the
// field-wise maximum used for Summary.Max.
func (r *Report) MaxOf(o Report) {
	r.Adjustments = max(r.Adjustments, o.Adjustments)
	r.SSize = max(r.SSize, o.SSize)
	r.Flips = max(r.Flips, o.Flips)
	r.Rounds = max(r.Rounds, o.Rounds)
	r.Broadcasts = max(r.Broadcasts, o.Broadcasts)
	r.Bits = max(r.Bits, o.Bits)
	r.CausalDepth = max(r.CausalDepth, o.CausalDepth)
	r.CrossShard = max(r.CrossShard, o.CrossShard)
	r.Steals = max(r.Steals, o.Steals)
	r.Work = max(r.Work, o.Work)
}

// String renders the non-zero fields compactly.
func (r Report) String() string {
	return fmt.Sprintf("Report(adj=%d |S|=%d flips=%d rounds=%d bcasts=%d bits=%d depth=%d xshard=%d)",
		r.Adjustments, r.SSize, r.Flips, r.Rounds, r.Broadcasts, r.Bits, r.CausalDepth, r.CrossShard)
}
