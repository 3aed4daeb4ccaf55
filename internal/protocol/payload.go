// Package protocol implements Algorithm 2 of the paper (§4): the
// constant-broadcast dynamic distributed MIS. Each node is a four-state
// machine — M (in the MIS), M̄ (out), C (may need to change), R (ready to
// change) — driven only by broadcasts received from its neighbors:
//
//  1. v ∈ M:  if some earlier neighbor changes to C, change to C.
//  2. v ∈ M̄: if some earlier neighbor changes to C and no other earlier
//     neighbor is in M, change to C.
//  3. v ∈ C:  if no later neighbor is in C and v entered C at least two
//     rounds ago, change to R.
//  4. v ∈ R:  once every earlier neighbor is in M or M̄, change to M if
//     they are all in M̄ and to M̄ otherwise.
//
// Every state change is announced with a single 2-bit broadcast, which is
// how the protocol achieves O(1) broadcasts in expectation (Theorem 7):
// each node in the influence set S changes state at most three times
// (Lemma 8), and E[|S|] ≤ 1 (Theorem 1).
//
// Engine drives the state machines over a synchronous simnet.Network and
// owns the topology bookkeeping for the full change repertoire, including
// muting (a node that disappears from the MIS-relevant graph but keeps
// listening, so it can rejoin with O(1) broadcasts). Rounds can be
// executed goroutine-parallel (SetParallel) with bit-identical results.
// Batches are applied change-by-change (ApplyBatch = ApplyAll): the
// C/R hand-shake assumes one recovery in flight; combined single-cascade
// recovery is the domain of the template (internal/core) and sharded
// (internal/shard) engines, which reach the same structures by history
// independence.
package protocol

import (
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/internal/simnet"
)

// State is the Algorithm 2 node state.
type State uint8

const (
	// StateOut is M̄ — not in the MIS.
	StateOut State = iota + 1
	// StateIn is M — in the MIS.
	StateIn
	// StateC marks a node that may need to change its output.
	StateC
	// StateR marks a node that is ready to change its output.
	StateR
	// StateGone marks a retired node (graceful departure completed).
	StateGone
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case StateOut:
		return "M̄"
	case StateIn:
		return "M"
	case StateC:
		return "C"
	case StateR:
		return "R"
	case StateGone:
		return "gone"
	default:
		return "?"
	}
}

// stateBits is the payload size of a bare state announcement: four live
// states fit in 2 bits.
const stateBits = 2

// prioBits is the payload size of a full priority. The paper's ℓ_v ∈ [0,1]
// is realized as a uint64; with the lazy bit-revelation option
// (internal/bitorder) the expected cost drops to O(1) bits, which
// docs/VALIDATION.md's "Bit complexity" section measures separately.
const prioBits = 64

// stateMsg announces a state change (rules 1-4). It is the protocol's
// workhorse 2-bit broadcast.
type stateMsg struct {
	St State
}

// Bits implements simnet.Payload.
func (stateMsg) Bits() int { return stateBits }

// helloMsg announces a node's priority and current output to its
// neighbors. It is sent on node insertion, edge insertion and unmuting
// (§4.1). NeedInfo asks recipients to reply with their own Hello —
// needed only by a fresh node, which is what makes insertion cost
// O(d(v*)) broadcasts while unmuting costs O(1).
type helloMsg struct {
	Prio     order.Priority
	St       State
	NeedInfo bool
}

// Bits implements simnet.Payload.
func (helloMsg) Bits() int { return prioBits + stateBits + 1 }

// retireMsg announces the sender's graceful departure; recipients forget
// it. A retiring node is never in the MIS when it sends this (it resolves
// to M̄ first), so no further information is needed.
type retireMsg struct{}

// Bits implements simnet.Payload.
func (retireMsg) Bits() int { return stateBits }

// Control events are injected by the engine to model local physical-layer
// detection; they cost no communication (Bits 0) and always carry
// From == graph.None.

// evEdgeAttached tells a node it gained an edge to Peer; it must introduce
// itself with a Hello.
type evEdgeAttached struct {
	Peer graph.NodeID
}

// Bits implements simnet.Payload.
func (evEdgeAttached) Bits() int { return 0 }

// evEdgeDown tells a node the edge to Peer is gone.
type evEdgeDown struct {
	Peer graph.NodeID
}

// Bits implements simnet.Payload.
func (evEdgeDown) Bits() int { return 0 }

// evNodeGone tells a node that neighbor Peer vanished abruptly.
type evNodeGone struct {
	Peer graph.NodeID
}

// Bits implements simnet.Payload.
func (evNodeGone) Bits() int { return 0 }

// evRetire tells a node to depart gracefully (deletion or muting).
type evRetire struct {
	// Mute keeps the node listening after retirement.
	Mute bool
}

// Bits implements simnet.Payload.
func (evRetire) Bits() int { return 0 }

// evInserted bootstraps a freshly inserted node; Expect is the number of
// neighbors whose Hello replies it must await before evaluating its
// invariant (it physically knows how many links it was attached with).
type evInserted struct {
	Expect int
}

// Bits implements simnet.Payload.
func (evInserted) Bits() int { return 0 }

// evUnmute re-activates a muted node: it already knows its neighbors'
// states from listening, so it only announces itself.
type evUnmute struct{}

// Bits implements simnet.Payload.
func (evUnmute) Bits() int { return 0 }

// Interface compliance checks.
var (
	_ simnet.Payload = stateMsg{}
	_ simnet.Payload = helloMsg{}
	_ simnet.Payload = retireMsg{}
	_ simnet.Payload = evEdgeAttached{}
	_ simnet.Payload = evEdgeDown{}
	_ simnet.Payload = evNodeGone{}
	_ simnet.Payload = evRetire{}
	_ simnet.Payload = evInserted{}
	_ simnet.Payload = evUnmute{}
)
