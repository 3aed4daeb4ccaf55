package core

import (
	"dynmis/internal/graph"
	"dynmis/internal/order"
)

// MapState adapts a plain membership map to Stater, for reference models
// and tests.
type MapState map[graph.NodeID]Membership

// Get implements Stater.
func (s MapState) Get(v graph.NodeID) Membership { return s[v] }

// Has implements Stater.
func (s MapState) Has(v graph.NodeID) bool {
	_, ok := s[v]
	return ok
}

// StageChange validates c against g, applies its topology mutation, and
// performs the order and membership bookkeeping that must precede the
// recovery cascade. It is the staging step of every Template window —
// Apply, ApplyBatch, and the sharded engine's windows, which are Template
// windows with a parallel cascade — and the per-change sequence the other
// π-equivalent engines follow, so all of them agree exactly on how π
// evolves (priorities are drawn by ord.EnsureAt in staging order, which is
// what makes engines with equal seeds and equal change sequences
// bit-compatible).
//
// Staging works in slot space: graph.Change.ApplySlots validates and
// applies c in one pass, resolving each NodeID c names once, and
// everything after it takes those slots. StageChange appends the slots of
// the nodes whose MIS invariant the change may have violated — the
// candidate set S0 seeding the cascade (§3) — to seeds, and returns the
// extended slice. A node change also returns its Touch for the window's
// touched log; an edge change mutates no membership during staging and
// returns a Touch whose Node is graph.None.
//
// On a validation error nothing has been mutated and seeds is returned
// unchanged.
func StageChange(g *graph.Graph, ord *order.Order, state State, c graph.Change, seeds []int32) (Touch, []int32, error) {
	s, err := c.ApplySlots(g)
	if err != nil {
		return Touch{}, seeds, err
	}

	switch c.Kind {
	case graph.NodeInsert, graph.NodeUnmute:
		// Ensure once the node occupies its slot, so the priority is
		// written through to the arena lane (unmuting reuses the retained
		// priority).
		ord.EnsureAt(c.Node, g, int(s.Node))
		// The inserted node starts with the temporary state M̄ (§4.1);
		// only it can be violated.
		state.SetAt(int(s.Node), Out)
		return Touch{Node: c.Node, Slot: s.Node, Before: Touched{Present: false, M: Out}}, append(seeds, s.Node), nil

	case graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt, graph.NodeMute:
		if c.Kind != graph.NodeMute {
			ord.Drop(c.Node) // muted nodes keep their priority
		}
		t := Touch{Node: c.Node, Slot: -1, Before: Touched{Present: true, M: s.State != 0}}
		if t.Before.M == In {
			// Deleting an MIS node is the v* flip: the paper counts the
			// departed node as the single violated node with S0 = {v*},
			// one flip and one member of S (DeltaFromTouched counts it
			// from t). Its former neighbors are the candidates of the
			// next cascade layer. Deleting a non-MIS node violates no
			// invariant: S = ∅.
			seeds = append(seeds, s.Nbrs...)
		}
		return t, seeds, nil

	default: // an edge change: ApplySlots rejects every other kind
		// v* is the endpoint ordered later in π; only its invariant can
		// break (§3).
		vstar := s.V
		if g.LessAt(int(s.V), int(s.U)) {
			vstar = s.U
		}
		return Touch{Node: graph.None}, append(seeds, vstar), nil
	}
}
