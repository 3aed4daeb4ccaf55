// Package direct implements the direct distributed realization of the
// paper's template (Corollary 6): every node continuously enforces the MIS
// invariant against its current knowledge of its earlier neighbors, and
// flips its output the moment the invariant is violated, announcing the
// flip with a broadcast.
//
// In expectation this needs a single adjustment and a single round
// (E[|S|] ≤ 1, Theorem 1), in both the synchronous and the asynchronous
// model — but a node may flip several times during one recovery, so the
// broadcast complexity can reach |S|² (§4's motivation for Algorithm 2,
// measured in docs/VALIDATION.md's "Direct implementation" section).
//
// Two engines realize the algorithm:
//
//   - Engine runs over the synchronous broadcast network (simnet.Network):
//     one potential broadcast per node per round, recovery measured in
//     rounds.
//   - AsyncEngine runs over the event network (simnet.AsyncNetwork) under
//     an adversarial scheduler; its round measure is causal depth. Its
//     ApplyBatch stages several changes before the network drains once —
//     the asynchronous reading of the paper's §6 multiple-failures
//     extension, in which concurrent recoveries interleave arbitrarily
//     and still quiesce at the greedy fixpoint.
//
// Both are differentially tested against the model-level template
// (internal/core) and the greedy oracle: equal seeds must give equal
// structures after every change.
package direct

import (
	"errors"
	"fmt"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/internal/simnet"
	"dynmis/metrics"
)

// Payloads. The direct algorithm announces only outputs, so its state
// messages carry a single bit.

type stateMsg struct {
	In bool
}

// Bits implements simnet.Payload.
func (stateMsg) Bits() int { return 1 }

type helloMsg struct {
	Prio     order.Priority
	In       bool
	NeedInfo bool
}

// Bits implements simnet.Payload.
func (helloMsg) Bits() int { return 64 + 2 }

type retireMsg struct{}

// Bits implements simnet.Payload.
func (retireMsg) Bits() int { return 1 }

// Control events (local detection, no communication cost).

type evEdgeAttached struct{ Peer graph.NodeID }
type evEdgeDown struct{ Peer graph.NodeID }
type evNodeGone struct{ Peer graph.NodeID }
type evRetire struct{ Mute bool }
type evInserted struct{ Expect int }
type evUnmute struct{}

func (evEdgeAttached) Bits() int { return 0 }
func (evEdgeDown) Bits() int     { return 0 }
func (evNodeGone) Bits() int     { return 0 }
func (evRetire) Bits() int       { return 0 }
func (evInserted) Bits() int     { return 0 }
func (evUnmute) Bits() int       { return 0 }

// nbrInfo is a node's knowledge about one neighbor.
type nbrInfo struct {
	prio order.Priority
	in   bool
}

// view is the node-local knowledge shared by the synchronous and
// asynchronous procs.
type view struct {
	id   graph.NodeID
	prio order.Priority
	in   bool
	nbr  map[graph.NodeID]*nbrInfo

	retiring bool
	mute     bool
	muted    bool
	gone     bool

	pendingHello  bool
	helloNeedInfo bool
	pendingReply  bool
	awaitInfo     int
	pendingEval   bool

	// flips counts output changes during the current recovery.
	flips int
}

func newView(id graph.NodeID, prio order.Priority) *view {
	return &view{id: id, prio: prio, nbr: make(map[graph.NodeID]*nbrInfo)}
}

func (v *view) lower(u graph.NodeID, p order.Priority) bool {
	return order.Less(p, u, v.prio, v.id)
}

// shouldBeIn is the MIS invariant's right-hand side under v's knowledge.
func (v *view) shouldBeIn() bool {
	for u, info := range v.nbr {
		if v.lower(u, info.prio) && info.in {
			return false
		}
	}
	return true
}

// ingest applies one message to the knowledge. It returns true if the
// node should evaluate its invariant afterwards.
func (v *view) ingest(m simnet.Message) bool {
	switch p := m.Payload.(type) {
	case stateMsg:
		if info, ok := v.nbr[m.From]; ok {
			info.in = p.In
		}
		return true
	case helloMsg:
		if info, ok := v.nbr[m.From]; ok {
			info.prio = p.Prio
			info.in = p.In
		} else {
			v.nbr[m.From] = &nbrInfo{prio: p.Prio, in: p.In}
		}
		// Honor NeedInfo even when the sender is already known: under an
		// adversarial asynchronous scheduler this node may have learned
		// the sender from an incidental broadcast before the sender's
		// NeedInfo hello arrives, and a dropped reply would starve the
		// sender's awaitInfo count forever.
		if p.NeedInfo {
			v.pendingReply = true
		}
		if v.awaitInfo > 0 {
			v.awaitInfo--
		}
		return true
	case retireMsg:
		delete(v.nbr, m.From)
		if v.awaitInfo > 0 {
			v.awaitInfo--
		}
		return true
	case evEdgeAttached:
		v.pendingHello = true
		return false
	case evEdgeDown:
		delete(v.nbr, p.Peer)
		// A lost edge resolves one pending expectation: if this node was
		// inserted in the same batch and awaits the peer's hello, that
		// hello is never coming (the peer is no longer a neighbor).
		if v.awaitInfo > 0 {
			v.awaitInfo--
		}
		return true
	case evNodeGone:
		delete(v.nbr, p.Peer)
		if v.awaitInfo > 0 {
			v.awaitInfo--
		}
		return true
	case evRetire:
		v.retiring = true
		v.mute = p.Mute
		return false
	case evInserted:
		v.awaitInfo = p.Expect
		v.pendingHello = true
		v.helloNeedInfo = true
		v.pendingEval = true
		return false
	case evUnmute:
		v.muted = false
		v.in = false
		v.pendingHello = true
		v.pendingEval = true
		return false
	}
	return false
}

// react decides the node's single outgoing broadcast after ingesting a
// batch of messages, applying the direct rule: flip whenever the invariant
// is violated.
func (v *view) react(evaluate bool) simnet.Payload {
	if v.muted || v.gone {
		return nil
	}
	if v.pendingHello {
		v.pendingHello = false
		need := v.helloNeedInfo
		v.helloNeedInfo = false
		return helloMsg{Prio: v.prio, In: v.in, NeedInfo: need}
	}
	if v.pendingReply {
		v.pendingReply = false
		return helloMsg{Prio: v.prio, In: v.in, NeedInfo: false}
	}
	if v.retiring {
		// A retiring MIS node leaves the structure outright; the
		// Retire announcement doubles as its "now out" signal, and the
		// departure counts as its flip (the template's S0 = {v*}).
		v.retiring = false
		if v.in {
			v.in = false
			v.flips++
		}
		if v.mute {
			v.muted = true
			v.mute = false
		} else {
			v.gone = true
		}
		return retireMsg{}
	}
	if v.pendingEval {
		if v.awaitInfo > 0 {
			return nil
		}
		v.pendingEval = false
		evaluate = true
	}
	if !evaluate {
		return nil
	}
	if want := v.shouldBeIn(); want != v.in {
		v.in = want
		v.flips++
		return stateMsg{In: want}
	}
	return nil
}

// quiescent reports whether the node owes no action.
func (v *view) quiescent() bool {
	if v.muted || v.gone {
		return true
	}
	return !v.pendingHello && !v.pendingReply && !v.pendingEval && !v.retiring
}

// syncNode adapts view to simnet.Proc.
type syncNode struct {
	view
}

var _ simnet.Proc = (*syncNode)(nil)

// Step implements simnet.Proc.
func (n *syncNode) Step(_ int, inbox []simnet.Message) simnet.Payload {
	evaluate := false
	for _, m := range inbox {
		if n.ingest(m) {
			evaluate = true
		}
	}
	return n.react(evaluate)
}

// Quiescent implements simnet.Proc.
func (n *syncNode) Quiescent() bool { return n.quiescent() }

// Engine runs the direct algorithm over a synchronous broadcast network.
// Its public surface mirrors protocol.Engine.
type Engine struct {
	net     *simnet.Network
	ord     *order.Order
	visible *graph.Graph
	procs   map[graph.NodeID]*syncNode
	feed    core.Feed
	coll    *metrics.Collector // nil while instrumentation is disabled

	// MaxRounds bounds each recovery; 0 selects an automatic O(n) bound.
	MaxRounds int
}

var (
	_ core.Engine     = (*Engine)(nil)
	_ core.Instrument = (*Engine)(nil)
)

// Instrument attaches a complexity collector (nil detaches); see
// core.Instrument.
func (e *Engine) Instrument(c *metrics.Collector) { e.coll = c }

// Collector returns the attached collector, or nil.
func (e *Engine) Collector() *metrics.Collector { return e.coll }

// New returns an engine over an empty graph with a fresh order.
func New(seed uint64) *Engine { return NewWithOrder(order.New(seed)) }

// NewWithOrder returns an engine sharing a caller-supplied order.
func NewWithOrder(ord *order.Order) *Engine {
	return &Engine{
		net:     simnet.NewNetwork(),
		ord:     ord,
		visible: graph.New(),
		procs:   make(map[graph.NodeID]*syncNode),
	}
}

// Graph exposes the visible topology (read-only for callers).
func (e *Engine) Graph() *graph.Graph { return e.visible }

// Order exposes the node order.
func (e *Engine) Order() *order.Order { return e.ord }

// InMIS reports whether visible node v is in the MIS.
func (e *Engine) InMIS(v graph.NodeID) bool {
	p, ok := e.procs[v]
	return ok && !p.muted && p.in
}

// MIS returns the sorted current MIS.
func (e *Engine) MIS() []graph.NodeID { return core.MISOf(e.State()) }

// State returns the membership map over visible nodes.
func (e *Engine) State() map[graph.NodeID]core.Membership {
	out := make(map[graph.NodeID]core.Membership, e.visible.NodeCount())
	for _, v := range e.visible.Nodes() {
		if p := e.procs[v]; p != nil && p.in {
			out[v] = core.In
		} else {
			out[v] = core.Out
		}
	}
	return out
}

func (e *Engine) maxRounds() int {
	if e.MaxRounds > 0 {
		return e.MaxRounds
	}
	return 10*e.visible.NodeCount() + 60
}

// Apply performs one topology change, runs to quiescence and reports
// costs.
func (e *Engine) Apply(c graph.Change) (core.Report, error) {
	if err := e.validate(c); err != nil {
		return core.Report{}, err
	}
	before := e.State()
	e.net.Metrics.Reset()
	for _, p := range e.procs {
		p.flips = 0
	}

	var rep core.Report
	cleanup, err := e.stage(c, &rep)
	if err != nil {
		return core.Report{}, err
	}
	rounds, err := e.net.RunUntilQuiet(e.maxRounds())
	if err != nil {
		return core.Report{}, fmt.Errorf("direct: %s: %w", c, err)
	}
	for _, p := range e.procs {
		if p.flips > 0 {
			rep.SSize++
			rep.Flips += p.flips
		}
	}
	if cleanup != nil {
		cleanup()
	}
	rep.Rounds = rounds
	rep.Broadcasts = e.net.Metrics.Broadcasts
	rep.Bits = e.net.Metrics.Bits
	after := e.State()
	rep.Adjustments = len(core.DiffStates(before, after))
	e.feed.EmitDiff(before, after)
	if mc := e.coll; mc != nil {
		mc.ObserveNetworkWindow(1, rep.Adjustments, rep.SSize, rep.Flips, rep.Rounds, e.net.Metrics.Sample())
	}
	return rep, nil
}

// Subscribe registers a change-feed callback; see core.Feed.
func (e *Engine) Subscribe(fn func(core.Event)) { e.feed.Subscribe(fn) }

// ErrUnmuteUnknownNeighbor mirrors protocol.ErrUnmuteUnknownNeighbor.
var ErrUnmuteUnknownNeighbor = errors.New("direct: unmute attaches unknown neighbor")

func (e *Engine) validate(c graph.Change) error {
	if c.Kind == graph.NodeUnmute {
		p, ok := e.procs[c.Node]
		if !ok || !p.muted {
			return fmt.Errorf("%w: %s: node is not muted", graph.ErrInvalidChange, c)
		}
		for _, u := range c.Edges {
			if !e.visible.HasNode(u) {
				return fmt.Errorf("%w: %s: neighbor %d: %w", graph.ErrInvalidChange, c, u, graph.ErrNoNode)
			}
			if !e.net.Graph().HasEdge(c.Node, u) {
				return fmt.Errorf("%w: %s: neighbor %d: %w", graph.ErrInvalidChange, c, u, ErrUnmuteUnknownNeighbor)
			}
		}
		return nil
	}
	return c.Validate(e.visible)
}

func (e *Engine) stage(c graph.Change, rep *core.Report) (func(), error) {
	none := graph.None
	switch c.Kind {
	case graph.EdgeInsert:
		if err := e.visible.AddEdge(c.U, c.V); err != nil {
			return nil, err
		}
		if err := e.net.AddEdge(c.U, c.V); err != nil {
			return nil, err
		}
		e.net.Inject(c.U, simnet.Message{From: none, Payload: evEdgeAttached{Peer: c.V}})
		e.net.Inject(c.V, simnet.Message{From: none, Payload: evEdgeAttached{Peer: c.U}})
		return nil, nil

	case graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt:
		if err := e.visible.RemoveEdge(c.U, c.V); err != nil {
			return nil, err
		}
		if err := e.net.RemoveEdge(c.U, c.V); err != nil {
			return nil, err
		}
		e.net.Inject(c.U, simnet.Message{From: none, Payload: evEdgeDown{Peer: c.V}})
		e.net.Inject(c.V, simnet.Message{From: none, Payload: evEdgeDown{Peer: c.U}})
		return nil, nil

	case graph.NodeInsert:
		prio := e.ord.Ensure(c.Node)
		p := &syncNode{view: *newView(c.Node, prio)}
		if err := e.net.AddNode(c.Node, p); err != nil {
			return nil, err
		}
		if err := e.visible.AddNode(c.Node); err != nil {
			return nil, err
		}
		for _, u := range c.Edges {
			if err := e.net.AddEdge(c.Node, u); err != nil {
				return nil, err
			}
			if err := e.visible.AddEdge(c.Node, u); err != nil {
				return nil, err
			}
		}
		e.procs[c.Node] = p
		e.net.Inject(c.Node, simnet.Message{From: none, Payload: evInserted{Expect: len(c.Edges)}})
		return nil, nil

	case graph.NodeDeleteAbrupt:
		if e.procs[c.Node].in {
			rep.SSize++
			rep.Flips++
		}
		nbrs := e.net.Graph().Neighbors(c.Node)
		if err := e.net.RemoveNode(c.Node); err != nil {
			return nil, err
		}
		if err := e.visible.RemoveNode(c.Node); err != nil {
			return nil, err
		}
		e.ord.Drop(c.Node)
		delete(e.procs, c.Node)
		for _, u := range nbrs {
			e.net.Inject(u, simnet.Message{From: none, Payload: evNodeGone{Peer: c.Node}})
		}
		return nil, nil

	case graph.NodeDeleteGraceful, graph.NodeMute:
		mute := c.Kind == graph.NodeMute
		e.net.Inject(c.Node, simnet.Message{From: none, Payload: evRetire{Mute: mute}})
		node := c.Node
		return func() {
			_ = e.visible.RemoveNode(node)
			if !mute {
				_ = e.net.RemoveNode(node)
				e.ord.Drop(node)
				delete(e.procs, node)
			}
		}, nil

	case graph.NodeUnmute:
		want := make(map[graph.NodeID]bool, len(c.Edges))
		for _, u := range c.Edges {
			want[u] = true
		}
		for _, u := range e.net.Graph().Neighbors(c.Node) {
			if want[u] {
				continue
			}
			if q := e.procs[u]; q != nil && q.muted {
				continue
			}
			if err := e.net.RemoveEdge(c.Node, u); err != nil {
				return nil, err
			}
			e.net.Inject(c.Node, simnet.Message{From: none, Payload: evEdgeDown{Peer: u}})
		}
		if err := e.visible.AddNode(c.Node); err != nil {
			return nil, err
		}
		for _, u := range c.Edges {
			if err := e.visible.AddEdge(c.Node, u); err != nil {
				return nil, err
			}
		}
		e.net.Inject(c.Node, simnet.Message{From: none, Payload: evUnmute{}})
		return nil, nil
	}
	return nil, fmt.Errorf("%w: unknown kind %v", graph.ErrInvalidChange, c.Kind)
}

// ApplyAll applies a sequence of changes, accumulating reports.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for i, c := range cs {
		rep, err := e.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d: %w", i, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// ApplyBatch applies several changes with per-change recovery. The
// synchronous direct algorithm reacts to each detection event as it runs,
// so it realizes the batch sequentially; history independence guarantees
// the final structure equals a genuinely combined recovery. The change
// feed still publishes one net delta for the whole batch (even on a
// mid-batch error, for the applied prefix), matching the genuinely
// batching engines event for event.
func (e *Engine) ApplyBatch(cs []graph.Change) (core.Report, error) {
	// Mirror protocol.Engine.ApplyBatch: the per-change delegation
	// instruments per change, so snapshot the counters and repair
	// afterwards — one window per batch, nothing counted on error.
	var snap metrics.Counters
	if e.coll != nil {
		snap = e.coll.Counters
	}
	rep, err := e.applyBatch(cs)
	if e.coll != nil {
		switch {
		case err != nil:
			e.coll.Counters = snap
		case len(cs) > 0:
			e.coll.Windows = snap.Windows + 1
		}
	}
	return rep, err
}

// applyBatch is ApplyBatch without the instrumentation repair.
func (e *Engine) applyBatch(cs []graph.Change) (core.Report, error) {
	if !e.feed.Active() {
		return e.ApplyAll(cs)
	}
	before := e.State()
	resume := e.feed.Suspend()
	rep, err := e.ApplyAll(cs)
	resume()
	e.feed.EmitDiff(before, e.State())
	return rep, err
}

// Check verifies the steady-state invariants: MIS invariant on the visible
// graph and exact neighbor knowledge everywhere.
func (e *Engine) Check() error {
	if err := core.CheckInvariant(e.visible, e.ord, e.State()); err != nil {
		return err
	}
	for v, p := range e.procs {
		visibleCount := 0
		for _, u := range e.net.Graph().Neighbors(v) {
			q := e.procs[u]
			if q == nil || q.muted {
				continue
			}
			visibleCount++
			info, ok := p.nbr[u]
			if !ok {
				return fmt.Errorf("direct: node %d missing knowledge of %d", v, u)
			}
			if info.in != q.in {
				return fmt.Errorf("direct: node %d has stale state for %d", v, u)
			}
		}
		if len(p.nbr) != visibleCount {
			return fmt.Errorf("direct: node %d knows %d neighbors, want %d", v, len(p.nbr), visibleCount)
		}
	}
	return nil
}
