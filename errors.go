package dynmis

import (
	"errors"

	"dynmis/internal/core"
	"dynmis/internal/graph"
)

// Typed sentinel errors. Every error a Maintainer (or a derived
// maintainer) returns wraps one of these values, so callers can branch
// with errors.Is instead of string matching, regardless of which engine
// produced it. The topology sentinels are shared with internal/graph —
// each engine validates changes through the same path — and the
// capability sentinels mark operations an engine does not support.
var (
	// ErrInvalidChange wraps every change-validation failure; the
	// sentinels below narrow the reason.
	ErrInvalidChange = graph.ErrInvalidChange
	// ErrUnknownNode: the change references a node that is not visible.
	ErrUnknownNode = graph.ErrNoNode
	// ErrDuplicateNode: the inserted (or unmuted) node already exists.
	ErrDuplicateNode = graph.ErrNodeExists
	// ErrDuplicateEdge: the inserted edge already exists.
	ErrDuplicateEdge = graph.ErrEdgeExists
	// ErrUnknownEdge: the deleted edge does not exist.
	ErrUnknownEdge = graph.ErrNoEdge
	// ErrSelfLoop: the change would create a self loop.
	ErrSelfLoop = graph.ErrSelfLoop
	// ErrMutedUnsupported: the engine does not model mute/unmute
	// (currently EngineAsyncDirect).
	ErrMutedUnsupported = core.ErrMuteUnsupported
	// ErrSnapshotUnsupported: the engine does not implement the
	// Snapshotter capability (returned by Maintainer.Snapshot,
	// Maintainer.Freeze and Restore for the message-passing engines).
	ErrSnapshotUnsupported = errors.New("dynmis: engine does not support snapshots")
	// ErrInvalidOption: an Option carried a value no engine can honor
	// (negative shard count or window, WithShards/WithWindow off
	// EngineSharded, WithParallel off EngineProtocol, an unknown engine).
	ErrInvalidOption = errors.New("dynmis: invalid option")
)
