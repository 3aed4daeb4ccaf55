// Package graph provides the dynamic undirected graph that underlies the
// dynamic distributed model of Censor-Hillel, Haramaty and Karnin (PODC
// 2016): an evolving node/edge set subject to typed topology changes
// (insertions and deletions of edges and nodes, graceful or abrupt, plus
// muting/unmuting of nodes — see Change and ChangeKind).
//
// # Storage model: a dense slot arena
//
// Since the PR-4 storage rewrite the graph is arena-backed. Every live
// node occupies a dense *slot* — an index into a set of parallel arrays
// — and a single NodeID → slot hash table (Index) is the only map in the
// structure. The parallel arrays ("lanes") per slot are:
//
//   - the node ID (IDAt; None marks a free slot),
//   - the adjacency list, stored as *neighbor slots* in ascending slot
//     order — inline in the 24-byte slot header up to 4 neighbors,
//     spilling into a block of the shared CSR-style spill pool beyond
//     that (NeighborSlots, DegreeAt; see spill.go for the pool's
//     size-class layout and the shrink-back policy),
//   - a uint64 priority lane written through by an attached
//     internal/order.Order (PrioAt, SetPrioAt, LessAt),
//   - a one-byte membership lane owned by internal/core's State view
//     (StateAt, SetStateAt).
//
// # Slot and index semantics
//
// IDs are the stable public names of nodes; slots are the transient
// physical addresses. A slot index is valid from the node's insertion
// until its deletion, and may then be *recycled* for a different node —
// so slots must never be cached across mutations. The engines exploit
// exactly this contract: Change.ApplySlots validates and applies a
// change looking up each ID it names once, and returns the slots it
// resolved, so staging continues in slot space; during a recovery
// cascade the topology is frozen, so the cascade inner loops work
// entirely in slot space (array reads, no hashing). Slot indices range
// over [0, Slots()); free slots are observable only as IDAt(i) == None.
//
// # The None sentinel
//
// None (-1) is the "no node" value. It is what IDAt returns for a free
// slot, which is why AddNode rejects it as a real node ID
// (ErrReservedID): a node named None would be indistinguishable from a
// hole in the arena. Callers use it wherever an optional NodeID needs a
// zero-like value (e.g. the Touch core.StageChange returns for an edge
// change).
//
// # Free-list recycling
//
// Deleting a node zeroes its lanes, resets its adjacency (returning any
// spill block to the shared pool), marks the slot None and pushes it
// onto a LIFO free-list; the next insertion pops it. Consequences: the
// arena's footprint tracks the *live* node count, not the insertion
// history; steady-state churn allocates almost nothing (spill capacity
// recycles through the pool's per-class free-lists, shared by all hubs
// rather than pinned per slot); and because both auxiliary lanes are
// zeroed on free *and* on reallocation, a recycled slot can never leak
// the previous tenant's priority or membership — the delete/re-insert
// aliasing tests (ref_test.go, the root recycle_test.go) pin this.
// Mem reports the resulting retained-bytes account (MemStats),
// deterministically for a given operation history.
//
// # Grow and the index watermark
//
// Grow(n) arranges capacity for n *additional* nodes: it grows the
// lanes by whatever the free-list cannot already supply and rebuilds
// the index map at the projected size. The map rebuild is guarded by a
// watermark (the largest size the table has already been built or grown
// to), so Grow is idempotent and monotone: repeating a satisfied Grow —
// or requesting less than a previous high-water mark — never rehashes.
// Grow changes no observable state; it exists so a known-size warm-up
// phase neither reallocates the arena nor incrementally rehashes the
// table (the facade exposes it as Maintainer.Grow).
//
// # Frozen copies
//
// Freeze copies the lanes — IDs, adjacency headers with the spill slabs
// they point into, priorities, memberships — into a read-only Frozen
// with plain slice copies. Unlike Clone it rebuilds no index and keeps no
// free-list, so it is cheap enough to take under a lock that must stay
// short and to read after the lock is released, while the graph keeps
// changing (internal/core's Image is built on it).
package graph
