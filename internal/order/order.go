// Package order implements the uniformly random node order π of the paper
// (§3): every node v draws an independent uniform priority ℓ_v on
// insertion, and π orders nodes by increasing priority. Ties — which occur
// with negligible probability for 64-bit priorities — are broken by node ID
// so that the order is always total and deterministic given the seed.
//
// The priority table (a map) is the source of truth: it survives a node's
// absence from any particular graph (muted nodes keep their priority). For
// the cascade hot path, an Order additionally writes every priority through
// into the dense priority lane of each attached graph arena (Attach), so
// engines compare π positions with graph.LessAt — two array reads — instead
// of two map lookups.
package order

import (
	"math/rand/v2"

	"dynmis/internal/graph"
)

// Priority is the random label ℓ_v of a node; smaller means earlier in π,
// i.e. stronger (a node joins the MIS iff no earlier neighbor is in it).
type Priority uint64

// Order assigns and remembers priorities. The zero value is not usable;
// call New.
type Order struct {
	rng    *rand.Rand
	draws  uint64
	prio   map[graph.NodeID]Priority
	arenas []*graph.Graph
}

// New returns an Order drawing priorities from a PCG stream seeded with
// seed. Two Orders with the same seed and the same Ensure call sequence
// assign identical priorities.
func New(seed uint64) *Order {
	return &Order{
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		prio: make(map[graph.NodeID]Priority),
	}
}

// Attach registers g's arena for priority write-through: every priority this
// Order knows — now (backfill) or in the future (Ensure, Set) — is mirrored
// into g's dense priority lane for the slots of nodes present in g. Engines
// attach their graph at construction; an Order may be attached to several
// arenas (differential tests share one π across engines). Attaching the
// same graph twice is a no-op.
func (o *Order) Attach(g *graph.Graph) {
	for _, a := range o.arenas {
		if a == g {
			return
		}
	}
	o.arenas = append(o.arenas, g)
	for i := range g.Slots() {
		if v := g.IDAt(i); v != graph.None {
			if p, ok := o.prio[v]; ok {
				g.SetPrioAt(i, uint64(p))
			}
		}
	}
}

// sync mirrors v's priority into every attached arena where v currently
// occupies a slot. Arenas where v is absent are skipped: their slot will be
// filled by the Ensure that accompanies v's insertion there. If at is
// attached, v's slot there is i, written without an index lookup.
func (o *Order) sync(v graph.NodeID, p Priority, at *graph.Graph, i int) {
	for _, g := range o.arenas {
		if g == at {
			g.SetPrioAt(i, uint64(p))
		} else if j, ok := g.Index(v); ok {
			g.SetPrioAt(j, uint64(p))
		}
	}
}

// Ensure returns v's priority, drawing a fresh one if v has none yet, and
// writes it through to the attached arenas. Engines call Ensure after the
// node is present in their graph, so the arena lane is filled in the same
// step.
func (o *Order) Ensure(v graph.NodeID) Priority { return o.EnsureAt(v, nil, 0) }

// EnsureAt is Ensure for a caller that holds v's slot i in arena g: g's
// lane is written at i without resolving v again (see core.StageChange).
// A nil or unattached g makes it Ensure.
func (o *Order) EnsureAt(v graph.NodeID, g *graph.Graph, i int) Priority {
	p, ok := o.prio[v]
	if !ok {
		p = Priority(o.rng.Uint64())
		o.draws++
		o.prio[v] = p
	}
	o.sync(v, p, g, i)
	return p
}

// Draws returns how many fresh priorities this Order has drawn from its
// stream. Together with the seed it names the exact stream position, so a
// restored Order can be advanced with Skip to where the original stood —
// the durability layer persists it next to each snapshot.
func (o *Order) Draws() uint64 { return o.draws }

// Skip burns n draws from the priority stream without assigning them.
// Skipping the Draws() of a same-seed Order reproduces its stream
// position exactly: every later Ensure draws the same priority the
// original Order would have drawn.
func (o *Order) Skip(n uint64) {
	for range n {
		o.rng.Uint64()
	}
	o.draws += n
}

// Set forces v's priority. It is intended for tests and for adversarial
// constructions that need a specific order.
func (o *Order) Set(v graph.NodeID, p Priority) {
	o.prio[v] = p
	o.sync(v, p, nil, 0)
}

// Priority returns v's priority if assigned.
func (o *Order) Priority(v graph.NodeID) (Priority, bool) {
	p, ok := o.prio[v]
	return p, ok
}

// Drop forgets v's priority (used when a node is deleted for good; a muted
// node keeps its priority). Arena lanes need no cleanup: the graph zeroes a
// slot's lanes when it is freed or reallocated.
func (o *Order) Drop(v graph.NodeID) { delete(o.prio, v) }

// Less reports whether π(u) < π(v). Both nodes must have priorities; absent
// nodes compare by ID only, which keeps Less total for defensive callers.
func (o *Order) Less(u, v graph.NodeID) bool {
	pu, pv := o.prio[u], o.prio[v]
	if pu != pv {
		return pu < pv
	}
	return u < v
}

// Len returns the number of assigned priorities.
func (o *Order) Len() int { return len(o.prio) }

// MemBytes estimates the priority table's retained footprint: 16
// payload bytes per entry (NodeID key, uint64 priority) plus bucket
// metadata and load-factor slack amortized to half the payload again —
// deterministic in the entry count, so engines can fold it into their
// committed memory profiles (core.MemoryReporter).
func (o *Order) MemBytes() int64 { return int64(len(o.prio)) * 24 }

// Snapshot returns a copy of the priority table (for oracles and engines
// that must evaluate the same π on a different graph).
func (o *Order) Snapshot() map[graph.NodeID]Priority {
	out := make(map[graph.NodeID]Priority, len(o.prio))
	for v, p := range o.prio {
		out[v] = p
	}
	return out
}

// Less compares (p, u) against (q, v) with ID tie-break; it is the pure
// function underlying Order.Less so that snapshots can be compared without
// an Order instance.
func Less(p Priority, u graph.NodeID, q Priority, v graph.NodeID) bool {
	if p != q {
		return p < q
	}
	return u < v
}
