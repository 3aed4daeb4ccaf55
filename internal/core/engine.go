package core

import (
	"errors"

	"dynmis/internal/graph"
	"dynmis/internal/order"
)

// Engine is the uniform surface of every MIS maintenance engine: the
// model-level template (this package), the sharded concurrent engine
// (internal/shard), and the three message-passing realizations
// (internal/direct, internal/protocol). The facade and the derived
// structures (clustering, matching, coloring) program against this
// interface only, so any future backend that implements it is a drop-in.
//
// Semantics every implementation must honor:
//
//   - Apply/ApplyAll/ApplyBatch leave the engine in a stable configuration
//     equal to the sequential greedy MIS on the current graph under the
//     engine's order (history independence, Definition 14). ApplyBatch may
//     recover once for the whole batch; engines without a combined
//     recovery fall back to sequential application, which reaches the
//     same structure.
//   - Subscribe registers a change-feed callback; after every Apply or
//     ApplyBatch the engine publishes the net membership delta as Events
//     in ascending node order (see Feed).
//   - Graph and Order expose live internals that callers must treat as
//     read-only.
type Engine interface {
	Apply(graph.Change) (Report, error)
	ApplyAll([]graph.Change) (Report, error)
	ApplyBatch([]graph.Change) (Report, error)
	Graph() *graph.Graph
	Order() *order.Order
	InMIS(graph.NodeID) bool
	MIS() []graph.NodeID
	State() map[graph.NodeID]Membership
	Check() error
	Subscribe(func(Event))
}

// Snapshotter is the optional persistence capability: an Engine that can
// serialize its maintained structure implements it. Engines whose state
// is per-node network knowledge (the message-passing realizations) do
// not; the template and sharded engines do. Snapshot builds the image;
// Freeze only copies it, for a caller that encodes it later, outside
// whatever lock guards the engine (Image.WriteJSON).
type Snapshotter interface {
	Snapshot() *Snapshot
	Freeze() *Image
}

// ErrMuteUnsupported is the sentinel for engines that do not model the
// mute/unmute change kinds (currently the asynchronous direct engine,
// where muting is a synchronous-round notion). Match with errors.Is.
var ErrMuteUnsupported = errors.New("mute/unmute unsupported by this engine")
