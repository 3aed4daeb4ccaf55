package graph

import "slices"

// Frozen is a read-only copy of a graph's arena lanes: slot → NodeID, the
// adjacency headers with the spill slabs they point into, and the
// priority and membership lanes. Freeze takes it with plain slice copies
// — no index map, no sort — so it fits under a lock that must stay short,
// and the copy is read after the lock is released while the graph goes
// on changing. Slot indices are the graph's at the moment of the copy.
type Frozen struct {
	ids   []NodeID
	adj   []adjacency
	pool  spillPool // slabs only: a copy never allocates, so it keeps no free-lists
	prio  []uint64
	state []byte
	n     int
}

// Freeze copies g's lanes into a Frozen.
func (g *Graph) Freeze() *Frozen {
	f := &Frozen{
		ids:   slices.Clone(g.ids),
		adj:   slices.Clone(g.adj), // headers are plain values; refs stay valid
		prio:  slices.Clone(g.prio),
		state: slices.Clone(g.state),
		n:     g.n,
	}
	for c := range g.pool.classes {
		f.pool.classes[c].slab = slices.Clone(g.pool.classes[c].slab)
	}
	return f
}

// Slots returns the copied arena size; see Graph.Slots.
func (f *Frozen) Slots() int { return len(f.ids) }

// NodeCount returns the number of nodes.
func (f *Frozen) NodeCount() int { return f.n }

// IDAt returns the NodeID in slot i, or None for a free slot.
func (f *Frozen) IDAt(i int) NodeID { return f.ids[i] }

// NeighborSlots returns the neighbor slots of the node in slot i, in
// ascending slot order. The slice aliases the copy and is read-only.
func (f *Frozen) NeighborSlots(i int) []int32 { return f.adj[i].slots(&f.pool) }

// PrioAt returns slot i's entry of the priority lane.
func (f *Frozen) PrioAt(i int) uint64 { return f.prio[i] }

// StateAt returns slot i's entry of the membership lane.
func (f *Frozen) StateAt(i int) byte { return f.state[i] }
