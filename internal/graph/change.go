package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ChangeKind enumerates the topology changes of the dynamic distributed
// model (paper §2). Deletions are split into graceful (the departing
// node/edge relays messages until the system is stable again) and abrupt
// (it disappears immediately); insertions are split into fresh insertions
// and unmuting of a node that was invisible but kept listening.
type ChangeKind uint8

const (
	// EdgeInsert adds edge {U,V}.
	EdgeInsert ChangeKind = iota + 1
	// EdgeDeleteGraceful removes edge {U,V}; the edge can relay during
	// recovery.
	EdgeDeleteGraceful
	// EdgeDeleteAbrupt removes edge {U,V} immediately.
	EdgeDeleteAbrupt
	// NodeInsert adds node Node with edges to Edges.
	NodeInsert
	// NodeDeleteGraceful removes Node; it relays until stability.
	NodeDeleteGraceful
	// NodeDeleteAbrupt removes Node immediately; neighbors merely detect
	// its disappearance.
	NodeDeleteAbrupt
	// NodeMute hides Node from its neighbors; it keeps listening. Its
	// topological effect equals a graceful deletion.
	NodeMute
	// NodeUnmute re-inserts a muted node. It already knows its neighbors'
	// states, so only one Hello broadcast is needed (paper §2, §4).
	NodeUnmute
)

// String returns the canonical lower-case name of the change kind.
func (k ChangeKind) String() string {
	switch k {
	case EdgeInsert:
		return "edge-insert"
	case EdgeDeleteGraceful:
		return "edge-delete-graceful"
	case EdgeDeleteAbrupt:
		return "edge-delete-abrupt"
	case NodeInsert:
		return "node-insert"
	case NodeDeleteGraceful:
		return "node-delete-graceful"
	case NodeDeleteAbrupt:
		return "node-delete-abrupt"
	case NodeMute:
		return "node-mute"
	case NodeUnmute:
		return "node-unmute"
	default:
		return fmt.Sprintf("ChangeKind(%d)", uint8(k))
	}
}

// IsEdge reports whether the change concerns an edge.
func (k ChangeKind) IsEdge() bool {
	return k == EdgeInsert || k == EdgeDeleteGraceful || k == EdgeDeleteAbrupt
}

// IsDeletion reports whether the change removes something from the visible
// topology.
func (k ChangeKind) IsDeletion() bool {
	switch k {
	case EdgeDeleteGraceful, EdgeDeleteAbrupt, NodeDeleteGraceful, NodeDeleteAbrupt, NodeMute:
		return true
	}
	return false
}

// Change is one topology change. For edge changes U and V are the
// endpoints; for node changes Node is the subject and Edges lists the
// neighbors attached on insertion/unmuting (ignored for deletions).
type Change struct {
	Kind  ChangeKind
	U, V  NodeID
	Node  NodeID
	Edges []NodeID
}

// ErrInvalidChange wraps all change-validation failures.
var ErrInvalidChange = errors.New("graph: invalid change")

// EdgeChange builds an edge change.
func EdgeChange(kind ChangeKind, u, v NodeID) Change {
	return Change{Kind: kind, U: u, V: v}
}

// NodeChange builds a node change; edges may be nil for deletions.
func NodeChange(kind ChangeKind, node NodeID, edges ...NodeID) Change {
	return Change{Kind: kind, Node: node, Edges: edges}
}

// String renders the change, e.g. "edge-insert{3,7}" or "node-insert(9; 1 2)".
func (c Change) String() string {
	if c.Kind.IsEdge() {
		return fmt.Sprintf("%s{%d,%d}", c.Kind, c.U, c.V)
	}
	if len(c.Edges) == 0 {
		return fmt.Sprintf("%s(%d)", c.Kind, c.Node)
	}
	return fmt.Sprintf("%s(%d; %v)", c.Kind, c.Node, c.Edges)
}

// Slots is what Change.ApplySlots resolved: the arena slot of every
// node the change names, each looked up once. Fields a change kind does
// not name are -1 (Nbrs nil, State 0).
type Slots struct {
	// U and V are an edge change's endpoint slots.
	U, V int32
	// Node is a node change's slot: the one an insertion claimed, or the
	// one a deletion freed (which the next insertion may recycle).
	Node int32
	// Nbrs are a node change's neighbor slots: an insertion's new
	// neighbors in Edges order, or a deletion's former neighbors in
	// ascending slot order. The slice is the graph's scratch, valid until
	// the next ApplySlots.
	Nbrs []int32
	// State is a deleted node's membership-lane byte, read before its
	// slot was freed (and zeroed).
	State byte
}

// Validate reports whether c can be applied to g. Unmuting is validated
// like a node insertion: the node must be absent from the visible topology.
// It shares its checks with ApplySlots, so both report the same error.
func (c Change) Validate(g *Graph) error {
	var nbrs [32]int32
	var pairs [32]uint64
	_, _, err := c.resolve(g, nbrs[:0], pairs[:0])
	return err
}

// ApplySlots validates c against g and applies it in one pass, looking up
// each NodeID the change names once, and returns the slots it resolved.
// On a validation error g is unchanged and the error is Validate's.
func (c Change) ApplySlots(g *Graph) (Slots, error) {
	s, pairs, err := c.resolve(g, g.nbrs[:0], g.pairs[:0])
	g.pairs = pairs
	if err != nil {
		return s, err
	}
	switch c.Kind {
	case EdgeInsert:
		g.link(s.U, s.V)
	case EdgeDeleteGraceful, EdgeDeleteAbrupt:
		g.unlink(s.U, s.V)
	case NodeInsert, NodeUnmute:
		g.nbrs = s.Nbrs
		s.Node = g.alloc(c.Node)
		for _, j := range s.Nbrs {
			g.link(s.Node, j)
		}
	case NodeDeleteGraceful, NodeDeleteAbrupt, NodeMute:
		s.State = g.state[s.Node]
		s.Nbrs = append(g.nbrs[:0], g.adjSlots(s.Node)...)
		g.nbrs = s.Nbrs
		g.removeAt(s.Node)
	}
	return s, nil
}

// Apply validates c and mutates g accordingly: ApplySlots without the
// slots.
func (c Change) Apply(g *Graph) error {
	_, err := c.ApplySlots(g)
	return err
}

// resolve checks c against g without mutating it and returns the slots
// of the nodes already present: both endpoints of an edge change, the
// subject of a deletion, and the neighbors of an insertion (appended to
// nbrs). pairs is firstRepeat's scratch, returned grown. Checks run in a
// fixed order, so the first failing one names the error.
func (c Change) resolve(g *Graph, nbrs []int32, pairs []uint64) (Slots, []uint64, error) {
	s := Slots{U: -1, V: -1, Node: -1}
	invalid := func(err error) error {
		return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, err)
	}
	switch c.Kind {
	case EdgeInsert:
		if c.U == c.V {
			return s, pairs, invalid(ErrSelfLoop)
		}
		i, iok := g.idx[c.U]
		j, jok := g.idx[c.V]
		if !iok || !jok {
			return s, pairs, invalid(ErrNoNode)
		}
		if g.adjContains(i, j) {
			return s, pairs, invalid(ErrEdgeExists)
		}
		s.U, s.V = i, j
	case EdgeDeleteGraceful, EdgeDeleteAbrupt:
		i, iok := g.idx[c.U]
		j, jok := g.idx[c.V]
		if !iok || !jok || !g.adjContains(i, j) {
			return s, pairs, invalid(ErrNoEdge)
		}
		s.U, s.V = i, j
	case NodeInsert, NodeUnmute:
		if c.Node == None {
			return s, pairs, invalid(ErrReservedID)
		}
		if _, ok := g.idx[c.Node]; ok {
			return s, pairs, invalid(ErrNodeExists)
		}
		// Resolve the neighbors up to the first one that is absent (which
		// includes a self loop: the node itself is absent). A repeated
		// neighbor before that position is the earlier error.
		bad := -1
		for k, u := range c.Edges {
			j, ok := g.idx[u]
			if !ok {
				bad = k
				break
			}
			nbrs = append(nbrs, j)
		}
		var k int
		if k, pairs = firstRepeat(nbrs, pairs); k >= 0 {
			return s, pairs, fmt.Errorf("%w: %s: duplicate neighbor %d", ErrInvalidChange, c, c.Edges[k])
		}
		if bad >= 0 && c.Edges[bad] == c.Node {
			return s, pairs, invalid(ErrSelfLoop)
		}
		if bad >= 0 {
			return s, pairs, fmt.Errorf("%w: %s: neighbor %d: %w", ErrInvalidChange, c, c.Edges[bad], ErrNoNode)
		}
		s.Nbrs = nbrs
	case NodeDeleteGraceful, NodeDeleteAbrupt, NodeMute:
		i, ok := g.idx[c.Node]
		if !ok {
			return s, pairs, invalid(ErrNoNode)
		}
		s.Node = i
	default:
		return s, pairs, fmt.Errorf("%w: unknown kind %v", ErrInvalidChange, c.Kind)
	}
	return s, pairs, nil
}

// firstRepeat returns the smallest position k with slots[k] in
// slots[:k], or -1 if the slots are distinct. It sorts (slot, position)
// pairs in the pairs scratch, returned grown: within a run of equal
// slots every position but the first is a repeat.
func firstRepeat(slots []int32, pairs []uint64) (int, []uint64) {
	pairs = pairs[:0]
	for k, j := range slots {
		pairs = append(pairs, uint64(uint32(j))<<32|uint64(k))
	}
	slices.Sort(pairs)
	first := -1
	for k := 1; k < len(pairs); k++ {
		if pairs[k]>>32 == pairs[k-1]>>32 {
			if pos := int(uint32(pairs[k])); first < 0 || pos < first {
				first = pos
			}
		}
	}
	return first, pairs
}
