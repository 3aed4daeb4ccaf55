package graph

import (
	"fmt"
	"slices"
	"testing"
)

// decodeChanges turns fuzz bytes into a change stream over IDs [-1, 14]
// (-1 is the reserved None), so the stream is full of missing IDs,
// duplicates and self loops. A header byte picks the kind; an edge change
// reads two IDs, a deletion one, and an insertion or unmute reads its
// node, a neighbor count (0–5) and that many neighbor IDs.
func decodeChanges(data []byte) []Change {
	id := func() NodeID {
		if len(data) == 0 {
			return 0
		}
		v := NodeID(data[0]%16) - 1
		data = data[1:]
		return v
	}
	var cs []Change
	for len(data) > 0 {
		kind := ChangeKind(data[0]%8 + 1)
		data = data[1:]
		switch kind {
		case EdgeInsert, EdgeDeleteGraceful, EdgeDeleteAbrupt:
			cs = append(cs, EdgeChange(kind, id(), id()))
		case NodeInsert, NodeUnmute:
			c := NodeChange(kind, id())
			for range int(id()+1) % 6 {
				c.Edges = append(c.Edges, id())
			}
			cs = append(cs, c)
		default:
			cs = append(cs, NodeChange(kind, id()))
		}
	}
	return cs
}

// refValidate is the map-based validation the single-pass check
// replaced, over the reference model: the oracle for which changes are
// accepted and for the text (and hence the order) of every rejection.
func refValidate(r *refGraph, c Change) error {
	switch c.Kind {
	case EdgeInsert:
		if c.U == c.V {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrSelfLoop)
		}
		if !r.hasNode(c.U) || !r.hasNode(c.V) {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrNoNode)
		}
		if r.hasEdge(c.U, c.V) {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrEdgeExists)
		}
	case EdgeDeleteGraceful, EdgeDeleteAbrupt:
		if !r.hasEdge(c.U, c.V) {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrNoEdge)
		}
	case NodeInsert, NodeUnmute:
		if c.Node == None {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrReservedID)
		}
		if r.hasNode(c.Node) {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrNodeExists)
		}
		seen := make(map[NodeID]bool)
		for _, u := range c.Edges {
			if u == c.Node {
				return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrSelfLoop)
			}
			if !r.hasNode(u) {
				return fmt.Errorf("%w: %s: neighbor %d: %w", ErrInvalidChange, c, u, ErrNoNode)
			}
			if seen[u] {
				return fmt.Errorf("%w: %s: duplicate neighbor %d", ErrInvalidChange, c, u)
			}
			seen[u] = true
		}
	default:
		if !r.hasNode(c.Node) {
			return fmt.Errorf("%w: %s: %w", ErrInvalidChange, c, ErrNoNode)
		}
	}
	return nil
}

// refApply applies an accepted change to the reference model.
func refApply(t *testing.T, r *refGraph, c Change) {
	t.Helper()
	var err error
	switch c.Kind {
	case EdgeInsert:
		err = r.addEdge(c.U, c.V)
	case EdgeDeleteGraceful, EdgeDeleteAbrupt:
		err = r.removeEdge(c.U, c.V)
	case NodeInsert, NodeUnmute:
		err = r.addNode(c.Node)
		for _, u := range c.Edges {
			if err == nil {
				err = r.addEdge(c.Node, u)
			}
		}
	default:
		err = r.removeNode(c.Node)
	}
	if err != nil {
		t.Fatalf("reference rejected accepted %s: %v", c, err)
	}
}

// FuzzChangeApply fuzzes the single-pass Change.ApplySlots (and so
// Change.Apply) against Validate and the map reference model: it accepts
// exactly the changes Validate accepts, with identical error text (also
// the text of the map-based validation it replaced); a rejected change
// leaves the graph equal to its clone; an accepted one matches the
// reference model, and the slots it returns name the change's nodes.
func FuzzChangeApply(f *testing.F) {
	f.Add([]byte{3, 1, 0, 3, 2, 1, 1, 3, 3, 3, 1, 2, 2})       // inserts, one with a duplicate neighbor
	f.Add([]byte{3, 1, 0, 3, 2, 2, 1, 2, 0, 1, 2, 5, 2})       // self loop, edge ops, deletion
	f.Add([]byte{3, 0, 0, 3, 4, 0, 7, 3, 5, 3, 1, 4, 4, 9, 6}) // None, missing and repeated neighbors
	f.Add([]byte{3, 1, 0, 3, 2, 1, 1, 6, 1, 7, 1, 1, 2, 4, 2, 2})
	f.Add([]byte{3, 1, 0, 3, 2, 3, 1, 1, 0}) // a repeated neighbor before a missing one
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ref := New(), newRef()
		for _, c := range decodeChanges(data) {
			clone := g.Clone()
			verr := c.Validate(g)
			s, err := c.ApplySlots(g)
			if (err == nil) != (verr == nil) || err != nil && err.Error() != verr.Error() {
				t.Fatalf("%s: ApplySlots error %v, Validate error %v", c, err, verr)
			}
			if rerr := refValidate(ref, c); (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("%s: error %v, map-based validation %v", c, err, rerr)
			}
			if err != nil {
				if !g.Equal(clone) {
					t.Fatalf("rejected %s mutated the graph", c)
				}
				continue
			}
			refApply(t, ref, c)
			checkSlots(t, g, clone, c, s)
		}
		compareAll(t, g, ref)
	})
}

// checkSlots asserts that the slots an accepted change returned name its
// nodes: clone is the graph before the change, g after it. Insertions
// stamp the node's ID into its membership-lane byte, so a later deletion
// can check the byte it reports.
func checkSlots(t *testing.T, g, clone *Graph, c Change, s Slots) {
	t.Helper()
	ids := func(h *Graph, slots []int32) []NodeID {
		out := make([]NodeID, len(slots))
		for k, j := range slots {
			out[k] = h.IDAt(int(j))
		}
		return out
	}
	switch c.Kind {
	case EdgeInsert, EdgeDeleteGraceful, EdgeDeleteAbrupt:
		if g.IDAt(int(s.U)) != c.U || g.IDAt(int(s.V)) != c.V {
			t.Fatalf("%s: endpoint slots %d,%d hold %d,%d", c, s.U, s.V, g.IDAt(int(s.U)), g.IDAt(int(s.V)))
		}
	case NodeInsert, NodeUnmute:
		if g.IDAt(int(s.Node)) != c.Node {
			t.Fatalf("%s: slot %d holds %d", c, s.Node, g.IDAt(int(s.Node)))
		}
		if got := ids(g, s.Nbrs); !slices.Equal(got, c.Edges) {
			t.Fatalf("%s: neighbor slots hold %v", c, got)
		}
		g.SetStateAt(int(s.Node), byte(c.Node))
	default:
		if i, _ := clone.Index(c.Node); int32(i) != s.Node || g.IDAt(i) != None {
			t.Fatalf("%s: freed slot %d, node held slot %d", c, s.Node, i)
		}
		if want := clone.StateAt(int(s.Node)); s.State != want {
			t.Fatalf("%s: state byte %d, want %d", c, s.State, want)
		}
		got := ids(g, s.Nbrs)
		slices.Sort(got)
		if want := clone.Neighbors(c.Node); !slices.Equal(got, want) {
			t.Fatalf("%s: former neighbor slots hold %v, want %v", c, got, want)
		}
	}
}
