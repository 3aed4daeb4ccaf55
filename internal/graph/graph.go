package graph

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
)

// NodeID identifies a node. IDs are chosen by the caller and are stable
// for the lifetime of the node — unlike slot indices, which are
// recycled when nodes are deleted (see the package documentation for
// the ID/slot distinction). None (-1) is reserved and rejected by
// AddNode.
type NodeID int64

// None is the zero-like sentinel for "no node": the value IDAt returns
// for a free arena slot, and the conventional "absent" NodeID
// throughout the engines. Because free slots are marked with it, it can
// never name a real node (ErrReservedID).
const None NodeID = -1

// Errors returned by graph mutations. They are sentinel values so callers
// can match them with errors.Is.
var (
	ErrNodeExists = errors.New("graph: node already exists")
	ErrNoNode     = errors.New("graph: node does not exist")
	ErrEdgeExists = errors.New("graph: edge already exists")
	ErrNoEdge     = errors.New("graph: edge does not exist")
	ErrSelfLoop   = errors.New("graph: self loops are not allowed")
	// ErrReservedID rejects NodeID None (-1): the arena marks free slots
	// with it, so it cannot name a real node.
	ErrReservedID = errors.New("graph: NodeID None (-1) is reserved")
)

// inlineDegree is the number of neighbor slots stored inline in the node
// slot itself; only nodes of larger degree allocate a spill slice.
const inlineDegree = 4

// adjacency is one slot's neighbor-list header: 24 bytes, down from the
// ~48 of the former {deg, inline, spill []int32} layout. Neighbors are
// slot indices in ascending order. While ref is zero they live in
// inline[:deg]; once the degree first exceeds inlineDegree they move
// into a spill-pool block named by ref (see spill.go). Degree drops
// revert the migration: back down a size class at quarter-occupancy,
// back inline once the list fits again — so a once-hot hub releases its
// peak allocation to the shared pool instead of pinning it forever.
type adjacency struct {
	deg    int32
	ref    spillRef // 0 = inline; else the spill-pool block holding the list
	inline [inlineDegree]int32
}

// slots returns a's neighbor slots in ascending slot order: inline, or in
// the block of p that a.ref names.
func (a *adjacency) slots(p *spillPool) []int32 {
	if a.ref != 0 {
		return p.block(a.ref)[:a.deg]
	}
	return a.inline[:a.deg]
}

// adjSlots returns slot i's neighbor slots in ascending slot order. The
// returned slice aliases the arena and is valid only until the next
// mutation of slot i's own list (mutating other slots' lists may retire
// the backing slab, but the returned snapshot stays intact and current —
// RemoveNode relies on this while unlinking a victim's neighbors).
func (g *Graph) adjSlots(i int32) []int32 { return g.adj[i].slots(&g.pool) }

// adjContains reports whether j is a neighbor slot of i.
func (g *Graph) adjContains(i, j int32) bool {
	a := &g.adj[i]
	if a.ref != 0 {
		_, ok := slices.BinarySearch(g.pool.block(a.ref)[:a.deg], j)
		return ok
	}
	for _, s := range a.inline[:a.deg] {
		if s == j {
			return true
		}
	}
	return false
}

// adjInsert adds neighbor slot j to slot i, keeping ascending order. j
// must not be present.
func (g *Graph) adjInsert(i, j int32) {
	a := &g.adj[i]
	if a.ref == 0 {
		if int(a.deg) < inlineDegree {
			k := a.deg
			for k > 0 && a.inline[k-1] > j {
				a.inline[k] = a.inline[k-1]
				k--
			}
			a.inline[k] = j
			a.deg++
			return
		}
		// First overflow: migrate inline into a class-0 block.
		r := g.pool.alloc(0)
		copy(g.pool.block(r), a.inline[:a.deg])
		a.ref = r
	}
	if int(a.deg) == spillClassCap(a.ref.class()) {
		// Block full: promote one size class (doubling the capacity).
		r := g.pool.alloc(a.ref.class() + 1)
		copy(g.pool.block(r), g.pool.block(a.ref)[:a.deg])
		g.pool.release(a.ref)
		a.ref = r
	}
	blk := g.pool.block(a.ref)
	k, _ := slices.BinarySearch(blk[:a.deg], j)
	copy(blk[k+1:int(a.deg)+1], blk[k:a.deg])
	blk[k] = j
	a.deg++
}

// adjRemove deletes neighbor slot j from slot i. j must be present.
func (g *Graph) adjRemove(i, j int32) {
	a := &g.adj[i]
	if a.ref == 0 {
		for k := int32(0); k < a.deg; k++ {
			if a.inline[k] == j {
				copy(a.inline[k:a.deg-1], a.inline[k+1:a.deg])
				a.deg--
				return
			}
		}
		return
	}
	blk := g.pool.block(a.ref)
	k, _ := slices.BinarySearch(blk[:a.deg], j)
	copy(blk[k:int(a.deg)-1], blk[k+1:a.deg])
	a.deg--
	g.adjShrink(a)
}

// adjShrink reverts spill storage as churn drops the degree: back into
// the inline header once the list fits there, or down one size class
// once the block is at most quarter-full. The quarter threshold is
// hysteresis — after the downshift the new block is at most half-full,
// so the very next insert can never force an immediate re-promotion,
// and a node oscillating around a class boundary does plain O(1)
// free-list pushes and pops rather than GC traffic.
func (g *Graph) adjShrink(a *adjacency) {
	if int(a.deg) <= inlineDegree {
		copy(a.inline[:a.deg], g.pool.block(a.ref)[:a.deg])
		g.pool.release(a.ref)
		a.ref = 0
		return
	}
	if c := a.ref.class(); c > 0 && int(a.deg) <= spillClassCap(c)/4 {
		r := g.pool.alloc(c - 1)
		copy(g.pool.block(r), g.pool.block(a.ref)[:a.deg])
		g.pool.release(a.ref)
		a.ref = r
	}
}

// adjReset empties slot i's list for slot recycling, returning any spill
// block to the pool (where any future hub, not just this slot's next
// tenant, can reuse it).
func (g *Graph) adjReset(i int32) {
	a := &g.adj[i]
	if a.ref != 0 {
		g.pool.release(a.ref)
		a.ref = 0
	}
	a.deg = 0
}

// Graph is a mutable undirected simple graph. The zero value is not ready to
// use; call New.
type Graph struct {
	idx    map[NodeID]int32 // NodeID → dense slot
	idxCap int              // size hint the idx map was last built with
	ids    []NodeID         // slot → NodeID; None when the slot is free
	adj    []adjacency      // slot → neighbor-list header
	pool   spillPool        // shared storage for lists that outgrow the header
	prio   []uint64         // slot → priority lane (see Order.Attach)
	state  []byte           // slot → membership lane (owned by internal/core)
	free   [][]int32        // recycled slots per partition, popped LIFO
	freeRR int              // round-robin allocation cursor over partitions
	freeBk int32            // slot-block granularity keying the partitions
	n      int              // live node count
	edges  int
	// Change.ApplySlots scratch, reused across changes: a node change's
	// neighbor slots, and the pairs that find a repeated neighbor. Mem
	// leaves it out: it is bounded by the largest degree one change names.
	nbrs  []int32
	pairs []uint64
}

// New returns an empty graph with a single (unpartitioned) free-list.
func New() *Graph {
	return &Graph{idx: make(map[NodeID]int32), free: make([][]int32, 1)}
}

// freeKey returns the free-list partition owning slot i.
func (g *Graph) freeKey(i int32) int {
	if len(g.free) == 1 {
		return 0
	}
	return int(uint32(i) / uint32(g.freeBk) % uint32(len(g.free)))
}

// freeCount returns the total number of recycled slots awaiting reuse.
func (g *Graph) freeCount() int {
	n := 0
	for _, part := range g.free {
		n += len(part)
	}
	return n
}

// FreeSlots returns the number of recycled slots on the free-list(s).
func (g *Graph) FreeSlots() int { return g.freeCount() }

// PartitionFreeList splits the arena free-list into parts independent
// pools keyed by contiguous blockSlots-sized slot blocks — the same
// block-cyclic keying a sharded engine uses for slot ownership. Freed
// slots return to the pool of their owning partition, and allocations
// draw from the pools round-robin, so a burst of insertions spreads its
// recycled slots evenly across all partitions instead of replaying the
// free-list's LIFO history (which, after skewed churn, can hand every
// new node to one partition and leave its owner doing the whole
// cascade). With parts == 1 the graph behaves exactly as before:
// one LIFO free-list.
//
// Repartitioning rebuckets the current free slots; it never changes
// observable graph state, only which free slot a future insertion gets.
func (g *Graph) PartitionFreeList(parts int, blockSlots int) {
	if parts < 1 {
		parts = 1
	}
	if blockSlots < 1 {
		blockSlots = 1
	}
	if parts == len(g.free) && (parts == 1 || int32(blockSlots) == g.freeBk) {
		return
	}
	old := g.free
	g.free = make([][]int32, parts)
	g.freeBk = int32(blockSlots)
	g.freeRR = 0
	for _, part := range old {
		for _, i := range part {
			k := g.freeKey(i)
			g.free[k] = append(g.free[k], i)
		}
	}
}

// Grow arranges capacity for at least n additional nodes, so that a
// warm-up phase inserting a known number of nodes neither reallocates
// the arena nor incrementally rehashes the index table. It never
// changes observable state, and it is watermarked: the index table is
// rebuilt only when the projected size exceeds every size it has
// already reached, so repeating a satisfied Grow (or shrinking the
// request) is a no-op rather than a rehash.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	// Fresh insertions drain the free-list first; only the remainder
	// needs new arena capacity.
	if extra := n - g.freeCount(); extra > 0 {
		g.ids = slices.Grow(g.ids, extra)
		g.adj = slices.Grow(g.adj, extra)
		g.prio = slices.Grow(g.prio, extra)
		g.state = slices.Grow(g.state, extra)
	}
	// Rebuild the index map only when the request exceeds every size it
	// has already reached — a Grow that is already satisfied must not
	// rehash (it is documented as safe to repeat).
	if need := g.n + n; need > max(g.idxCap, len(g.idx)) {
		idx := make(map[NodeID]int32, need)
		for v, i := range g.idx {
			idx[v] = i
		}
		g.idx = idx
		g.idxCap = need
	}
}

// Index returns v's dense slot index. Slots are stable for the lifetime
// of the node (until it is deleted) and recycled afterwards, so they
// must not be cached across mutations; they are the key into the arena
// accessors (IDAt, NeighborSlots, DegreeAt, PrioAt, StateAt, LessAt).
// This lookup is the only hashing in the structure. Engines resolve IDs
// to slots once per operation and then stay in slot space: a change
// applied with Change.ApplySlots looks up each ID it names once and
// returns the slots, so staging it needs no Index call at all.
func (g *Graph) Index(v NodeID) (int, bool) {
	i, ok := g.idx[v]
	return int(i), ok
}

// Slots returns the arena size: slot indices range over [0, Slots()).
// Some slots may be free (IDAt returns None for those); the size only
// ever grows, since deleted nodes' slots are recycled through the
// free-list rather than compacted away.
func (g *Graph) Slots() int { return len(g.ids) }

// IDAt returns the NodeID occupying slot i, or None if the slot is free
// (on the free-list, awaiting recycling).
func (g *Graph) IDAt(i int) NodeID { return g.ids[i] }

// NeighborSlots returns the neighbor slots of the node in slot i, in
// ascending slot order. The slice aliases the arena: it is read-only and
// valid only until the next mutation.
func (g *Graph) NeighborSlots(i int) []int32 { return g.adjSlots(int32(i)) }

// DegreeAt returns the degree of the node in slot i.
func (g *Graph) DegreeAt(i int) int { return int(g.adj[i].deg) }

// PrioAt returns slot i's entry of the priority lane. The lane is written
// by an attached internal/order.Order (the source of truth for priorities);
// it exists so that the cascade inner loop can compare π positions with
// two array reads instead of two map lookups.
func (g *Graph) PrioAt(i int) uint64 { return g.prio[i] }

// SetPrioAt writes slot i's entry of the priority lane.
func (g *Graph) SetPrioAt(i int, p uint64) { g.prio[i] = p }

// StateAt returns slot i's entry of the membership lane, a single byte
// owned by the engine layered above (internal/core stores the MIS
// membership here; 0 is "out"). Freed and newly allocated slots read 0
// — both free and alloc zero the lane, so a recycled slot can never
// leak its previous tenant's membership.
func (g *Graph) StateAt(i int) byte { return g.state[i] }

// SetStateAt writes slot i's entry of the membership lane.
func (g *Graph) SetStateAt(i int, b byte) { g.state[i] = b }

// LessAt reports whether the node in slot i precedes the node in slot j in
// the random order π recorded in the priority lane (ties broken by NodeID,
// matching order.Less). Both slots must be occupied.
func (g *Graph) LessAt(i, j int) bool {
	if g.prio[i] != g.prio[j] {
		return g.prio[i] < g.prio[j]
	}
	return g.ids[i] < g.ids[j]
}

// HasNode reports whether v is present.
func (g *Graph) HasNode(v NodeID) bool {
	_, ok := g.idx[v]
	return ok
}

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	i, ok := g.idx[u]
	if !ok {
		return false
	}
	j, ok := g.idx[v]
	if !ok {
		return false
	}
	return g.adjContains(i, j)
}

// alloc claims a slot for v: a recycled one if available (drawn from the
// free-list partitions round-robin), else a fresh one. Lanes and
// adjacency of the returned slot are zeroed.
func (g *Graph) alloc(v NodeID) int32 {
	i := int32(-1)
	for range g.free {
		p := g.freeRR
		g.freeRR = (g.freeRR + 1) % len(g.free)
		if k := len(g.free[p]); k > 0 {
			i = g.free[p][k-1]
			g.free[p] = g.free[p][:k-1]
			break
		}
	}
	if i < 0 {
		i = int32(len(g.ids))
		g.ids = append(g.ids, None)
		g.adj = append(g.adj, adjacency{})
		g.prio = append(g.prio, 0)
		g.state = append(g.state, 0)
	}
	g.ids[i] = v
	g.adjReset(i)
	g.prio[i] = 0
	g.state[i] = 0
	g.idx[v] = i
	g.n++
	return i
}

// AddNode inserts an isolated node.
func (g *Graph) AddNode(v NodeID) error {
	if v == None {
		return fmt.Errorf("add node %d: %w", v, ErrReservedID)
	}
	if g.HasNode(v) {
		return fmt.Errorf("add node %d: %w", v, ErrNodeExists)
	}
	g.alloc(v)
	return nil
}

// RemoveNode deletes v and all incident edges. v's slot is zeroed
// (lanes and adjacency; any spill block returns to the shared pool) and
// pushed onto the free-list for recycling by a future insertion.
func (g *Graph) RemoveNode(v NodeID) error {
	i, ok := g.idx[v]
	if !ok {
		return fmt.Errorf("remove node %d: %w", v, ErrNoNode)
	}
	g.removeAt(i)
	return nil
}

// removeAt is RemoveNode for the node in slot i.
func (g *Graph) removeAt(i int32) {
	// Unlinking i from each neighbor may shrink that neighbor's block and
	// grow a smaller class's slab, but never mutates i's own list — so
	// the adjSlots snapshot stays correct even if its backing slab is
	// retired mid-loop (see adjSlots).
	for _, j := range g.adjSlots(i) {
		g.adjRemove(j, i)
		g.edges--
	}
	g.adjReset(i)
	g.prio[i] = 0
	g.state[i] = 0
	delete(g.idx, g.ids[i])
	g.ids[i] = None
	k := g.freeKey(i)
	g.free[k] = append(g.free[k], i)
	g.n--
}

// AddEdge inserts the undirected edge {u,v}. Both endpoints must exist.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	i, ok := g.idx[u]
	if !ok {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, u, ErrNoNode)
	}
	j, ok := g.idx[v]
	if !ok {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, v, ErrNoNode)
	}
	if g.adjContains(i, j) {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrEdgeExists)
	}
	g.link(i, j)
	return nil
}

// link inserts the edge between slots i and j, which must be absent.
func (g *Graph) link(i, j int32) {
	g.adjInsert(i, j)
	g.adjInsert(j, i)
	g.edges++
}

// RemoveEdge deletes the undirected edge {u,v}.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	i, iok := g.idx[u]
	j, jok := g.idx[v]
	if !iok || !jok || !g.adjContains(i, j) {
		return fmt.Errorf("remove edge {%d,%d}: %w", u, v, ErrNoEdge)
	}
	g.unlink(i, j)
	return nil
}

// unlink deletes the edge between slots i and j, which must be present.
func (g *Graph) unlink(i, j int32) {
	g.adjRemove(i, j)
	g.adjRemove(j, i)
	g.edges--
}

// Neighbors returns the neighbors of v in ascending ID order. The returned
// slice is a copy owned by the caller. Neighbors of an absent node are nil.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	i, ok := g.idx[v]
	if !ok {
		return nil
	}
	nb := g.adjSlots(i)
	out := make([]NodeID, len(nb))
	for k, j := range nb {
		out[k] = g.ids[j]
	}
	slices.Sort(out)
	return out
}

// EachNeighbor calls fn for every neighbor of v in unspecified order. It
// avoids the sort and allocation of Neighbors for hot paths.
func (g *Graph) EachNeighbor(v NodeID, fn func(u NodeID)) {
	i, ok := g.idx[v]
	if !ok {
		return
	}
	for _, j := range g.adjSlots(i) {
		fn(g.ids[j])
	}
}

// Degree returns the degree of v, or 0 if absent.
func (g *Graph) Degree(v NodeID) int {
	i, ok := g.idx[v]
	if !ok {
		return 0
	}
	return int(g.adj[i].deg)
}

// MaxDegree returns the maximum degree over all nodes (0 for the empty
// graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for i := range g.ids {
		if g.ids[i] != None {
			maxDeg = max(maxDeg, int(g.adj[i].deg))
		}
	}
	return maxDeg
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return g.n }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return g.edges }

// NodeSeq iterates over the node IDs in unspecified order, without the
// sort and allocation of Nodes — the hot-path form for full scans. The
// graph must not be mutated during iteration.
func (g *Graph) NodeSeq() iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for _, v := range g.ids {
			if v == None {
				continue
			}
			if !yield(v) {
				return
			}
		}
	}
}

// Nodes returns all node IDs in ascending order. The slice is a copy.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.n)
	for _, v := range g.ids {
		if v != None {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.edges)
	for i := range g.ids {
		if g.ids[i] == None {
			continue
		}
		for _, j := range g.adjSlots(int32(i)) {
			if g.ids[i] < g.ids[j] {
				out = append(out, [2]NodeID{g.ids[i], g.ids[j]})
			}
		}
	}
	slices.SortFunc(out, func(a, b [2]NodeID) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return out
}

// Clone returns a deep copy of g, preallocated to exactly g's size:
// slot assignment, lanes and free-list carry over (every node keeps its
// slot index), so a clone is immediately usable by the same attached
// order without rebuilding, and slot-space scratch computed against g
// remains meaningful for the clone.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		idx:    make(map[NodeID]int32, len(g.idx)),
		ids:    slices.Clone(g.ids),
		adj:    slices.Clone(g.adj), // headers are plain values; refs stay valid
		pool:   g.pool.clone(),      // …against the cloned pool's identical layout
		prio:   slices.Clone(g.prio),
		state:  slices.Clone(g.state),
		free:   make([][]int32, len(g.free)),
		freeRR: g.freeRR,
		freeBk: g.freeBk,
		n:      g.n,
		edges:  g.edges,
	}
	for k, part := range g.free {
		c.free[k] = slices.Clone(part)
	}
	for v, i := range g.idx {
		c.idx[v] = i
	}
	return c
}

// Equal reports whether g and h have identical node and edge sets (slot
// assignment and lanes are representation details and do not participate).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.edges != h.edges {
		return false
	}
	for i := range g.ids {
		v := g.ids[i]
		if v == None {
			continue
		}
		j, ok := h.idx[v]
		if !ok || g.adj[i].deg != h.adj[j].deg {
			return false
		}
		for _, k := range g.adjSlots(int32(i)) {
			hj, ok := h.idx[g.ids[k]]
			if !ok || !h.adjContains(j, hj) {
				return false
			}
		}
	}
	return true
}

// String renders a compact description, e.g. "Graph(n=3, m=2)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.edges)
}
