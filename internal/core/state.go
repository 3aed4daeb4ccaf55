// Package core implements the paper's primary contribution in its purest
// form: the MIS invariant over a random order π (§3), the sequential greedy
// oracle that defines history independence, and the template of Algorithm 1
// — the influence-set cascade whose expected size is at most 1 (Theorem 1).
//
// The distributed implementations (internal/direct, internal/protocol) are
// message-passing realizations of this template; every engine is tested to
// produce exactly the output of GreedyMIS on the current graph with the
// current priorities, which is the paper's history-independence property
// (Definition 14).
package core

import (
	"slices"

	"dynmis/internal/graph"
)

// Membership is a node's output: in the MIS or not. The paper writes M and
// M̄ for the two values.
type Membership bool

const (
	// In is the MIS state M.
	In Membership = true
	// Out is the non-MIS state M̄.
	Out Membership = false
)

// String returns "M" for In and "M̄" for Out.
func (m Membership) String() string {
	if m == In {
		return "M"
	}
	return "M̄"
}

// State is the dense membership view of a graph arena: memberships live in
// the graph's one-byte state lane, indexed by dense slot, so the cascade
// inner loop reads and writes them as array elements with zero map lookups.
// A node is "known" to the view exactly while it occupies a slot, which
// makes presence queries free and guarantees — because the graph zeroes a
// slot's lanes on free and on reallocation — that a recycled slot can never
// surface a deleted node's membership.
//
// State is a view, not a container: copying it is free and every copy reads
// and writes the same arena. It implements Stater (invariant checking);
// staging writes it by slot (SetAt).
type State struct {
	g *graph.Graph
}

// NewState returns the membership view over g's arena.
func NewState(g *graph.Graph) State { return State{g: g} }

// Get returns v's membership (Out for unknown nodes, matching the zero
// value of a map lookup).
func (s State) Get(v graph.NodeID) Membership {
	i, ok := s.g.Index(v)
	if !ok {
		return Out
	}
	return Membership(s.g.StateAt(i) != 0)
}

// Has reports whether v currently has a membership (i.e. occupies a slot).
func (s State) Has(v graph.NodeID) bool { return s.g.HasNode(v) }

// At returns the membership in slot i — the cascade's array-walk accessor.
func (s State) At(i int) Membership { return s.g.StateAt(i) != 0 }

// SetAt writes the membership in slot i.
func (s State) SetAt(i int, m Membership) {
	var b byte
	if m == In {
		b = 1
	}
	s.g.SetStateAt(i, b)
}

// Set records v's membership. Setting an absent node is a no-op: a
// membership exists only while the node occupies a slot.
func (s State) Set(v graph.NodeID, m Membership) {
	if i, ok := s.g.Index(v); ok {
		s.SetAt(i, m)
	}
}

// InMIS reports whether v is currently in the MIS.
func (s State) InMIS(v graph.NodeID) bool { return s.Get(v) == In }

// MIS returns the sorted list of MIS members.
func (s State) MIS() []graph.NodeID {
	out := make([]graph.NodeID, 0, s.g.NodeCount())
	for i := range s.g.Slots() {
		if s.g.IDAt(i) != graph.None && s.g.StateAt(i) != 0 {
			out = append(out, s.g.IDAt(i))
		}
	}
	slices.Sort(out)
	return out
}

// Map materializes the view as a plain membership map (the Engine.State
// wire format).
func (s State) Map() map[graph.NodeID]Membership {
	out := make(map[graph.NodeID]Membership, s.g.NodeCount())
	for i := range s.g.Slots() {
		if v := s.g.IDAt(i); v != graph.None {
			out[v] = s.g.StateAt(i) != 0
		}
	}
	return out
}

// MISOf extracts the sorted list of MIS members from a state map.
func MISOf(state map[graph.NodeID]Membership) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(state))
	for v, m := range state {
		if m == In {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// EqualStates reports whether two state maps agree on every node.
func EqualStates(a, b map[graph.NodeID]Membership) bool {
	if len(a) != len(b) {
		return false
	}
	for v, m := range a {
		if bm, ok := b[v]; !ok || bm != m {
			return false
		}
	}
	return true
}

// DiffStates returns the nodes present in both maps whose membership
// differs, plus nodes present in exactly one map with membership In in it.
// It is the adjustment count between two stable configurations.
func DiffStates(before, after map[graph.NodeID]Membership) []graph.NodeID {
	var out []graph.NodeID
	for v, m := range after {
		if bm, ok := before[v]; ok {
			if bm != m {
				out = append(out, v)
			}
		} else if m == In {
			out = append(out, v) // appeared directly in the MIS
		}
	}
	for v, m := range before {
		if _, ok := after[v]; !ok && m == In {
			out = append(out, v) // left while in the MIS
		}
	}
	slices.Sort(out)
	return out
}
