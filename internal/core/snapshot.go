package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"dynmis/internal/graph"
	"dynmis/internal/order"
)

// SnapshotNode is one node's persisted state.
type SnapshotNode struct {
	ID       graph.NodeID   `json:"id"`
	Priority order.Priority `json:"priority"`
	InMIS    bool           `json:"in_mis"`
}

// Snapshot is a serializable image of a maintained MIS: the graph, the
// random priorities and the memberships. It lets a long-lived deployment
// restart a maintainer without replaying its change history; history
// independence guarantees the restored structure is exactly as valid as
// the original.
type Snapshot struct {
	Nodes []SnapshotNode    `json:"nodes"`
	Edges [][2]graph.NodeID `json:"edges"`
}

// Snapshot captures the engine's current stable state.
func (t *Template) Snapshot() *Snapshot {
	s := &Snapshot{}
	for _, v := range t.g.Nodes() {
		prio, _ := t.ord.Priority(v)
		s.Nodes = append(s.Nodes, SnapshotNode{ID: v, Priority: prio, InMIS: t.state.InMIS(v)})
	}
	s.Edges = t.g.Edges()
	return s
}

// Marshal encodes the snapshot as JSON.
func (s *Snapshot) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot decodes a JSON snapshot.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	return &s, nil
}

// RestoreTemplate rebuilds an engine from a snapshot. Fresh nodes
// inserted after the restore draw their priorities from a new stream
// seeded with seed (the original stream position is not part of the
// snapshot; any seed keeps priorities uniform and independent). The
// snapshot is validated: the restored configuration must satisfy the MIS
// invariant, so a tampered snapshot is rejected.
func RestoreTemplate(s *Snapshot, seed uint64) (*Template, error) {
	t := NewTemplateWithOrder(order.New(seed))
	if err := RestoreInto(t, s); err != nil {
		return nil, err
	}
	return t, nil
}

// RestoreInto fills the empty engine t from a snapshot and validates the
// result. It is the one restore path: engines built on the Template
// restore through it after configuring their empty arena (the sharded
// engine partitions its free-list before any node is added).
func RestoreInto(t *Template, s *Snapshot) error {
	// Insert nodes in ascending ID order, then edges; memberships are
	// restored verbatim and validated at the end. The arena is presized so
	// the rebuild neither reallocates nor rehashes.
	t.g.Grow(len(s.Nodes))
	sorted := slices.Clone(s.Nodes)
	slices.SortFunc(sorted, func(a, b SnapshotNode) int { return cmp.Compare(a.ID, b.ID) })
	for _, n := range sorted {
		if err := t.g.AddNode(n.ID); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		t.ord.Set(n.ID, n.Priority)
		t.state.Set(n.ID, Membership(n.InMIS))
	}
	for _, e := range s.Edges {
		if err := t.g.AddEdge(e[0], e[1]); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	if err := t.Check(); err != nil {
		return fmt.Errorf("core: restore: snapshot inconsistent: %w", err)
	}
	return nil
}
