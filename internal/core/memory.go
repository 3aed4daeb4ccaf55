package core

import (
	"dynmis/internal/graph"
	"dynmis/metrics"
)

// MemoryReporter is the optional memory-accounting capability: an
// arena-backed Engine that can account the bytes its maintained state
// retains implements it. The profile is deterministic for a given
// change history (capacities and entry counts, no runtime
// introspection), so harnesses commit it in artifacts — the big-graph
// benchmark tier's bytes/node column, cmd/validate's head-to-head
// table, and dynmisd's /metricsz all read this capability.
//
// The message-passing engines do not implement it: their state is
// per-node network knowledge spread across simulated nodes, which has
// no meaningful single-arena byte account.
type MemoryReporter interface {
	MemoryProfile() metrics.Memory
}

// ArenaMemory folds a graph arena's retained-bytes account plus
// auxBytes of engine-owned storage (slot-indexed scratch lanes, blocker
// counts, worker deques, the order's priority table) into the wire
// form. It is the shared constructor behind every engine's
// MemoryProfile, so the arena portion can never be double-counted or
// accounted inconsistently between engines.
func ArenaMemory(g *graph.Graph, auxBytes int64) metrics.Memory {
	s := g.Mem()
	total := s.TotalBytes + auxBytes
	m := metrics.Memory{
		Nodes:            int64(s.Nodes),
		Slots:            int64(s.Slots),
		Edges:            int64(s.Edges),
		ArenaBytes:       s.LaneBytes,
		IndexBytes:       s.IndexBytes,
		FreeBytes:        s.FreeBytes,
		SpillSlabBytes:   s.SpillSlabBytes,
		SpillLiveBytes:   s.SpillLiveBytes,
		SpillFreeBlocks:  int64(s.SpillFreeBlocks),
		AuxBytes:         auxBytes,
		TotalBytes:       total,
		SpillUtilization: s.SpillUtilization(),
	}
	if s.Nodes > 0 {
		m.BytesPerNode = float64(total) / float64(s.Nodes)
	}
	return m
}

// MemoryProfile accounts the template engine: the arena plus ScratchBytes.
func (t *Template) MemoryProfile() metrics.Memory {
	return ArenaMemory(t.g, t.ScratchBytes())
}

// ScratchBytes is the template's storage beside the arena: the
// slot-indexed cascade lanes, the cascade worklists, the ID-space window
// scratch and the order's priority table. The touched/flips maps are
// O(window) scratch cleared between windows and are deliberately not
// estimated. An engine built on the Template adds its own storage to this.
func (t *Template) ScratchBytes() int64 {
	l := &t.lanes
	return int64(cap(l.Mark)+cap(l.FlipCnt)+cap(l.Flipped)+cap(t.cand)+cap(t.next))*4 +
		int64(cap(t.frontier)+cap(t.preFlips))*8 +
		t.ord.MemBytes()
}
