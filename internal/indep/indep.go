// Package indep is the shared machinery of the *independent* dynamic MIS
// engines — competitors from the related work (Gupta–Khan 2018,
// Assadi–Onak–Schieber–Solomon 2018) that maintain a valid maximal
// independent set which legitimately differs from this repository's
// greedy-over-π structure. Both competitors share one skeleton: maintain,
// for every vertex v, the blocker count cnt(v) = |N(v) ∩ M|; the MIS
// invariant is v ∈ M ⟺ cnt(v) = 0. An update adjusts the counts of the
// O(Δ) affected vertices, evicts one endpoint of a freshly created M–M
// edge, and then *settles*: repeatedly promotes an uncovered vertex
// (cnt = 0, out of M) into M until none remains. The algorithms differ
// only in two decisions, abstracted as a Policy: which endpoint an M–M
// edge insertion evicts, and in which order uncovered vertices are
// settled. internal/guptakhan and internal/aoss supply the two policies.
//
// # The band-certificate order
//
// This repository's oracles — core.CheckInvariantOn, the facade's
// Verify (greedy-MIS comparison), GreedyClusters — are all phrased over
// a random order π that the independent engines do not use. Instead of
// special-casing them everywhere, each Engine maintains a *membership
// band certificate* in its order.Order: priority BandIn (0) for every
// MIS member, BandOut (1) for everyone else, updated on each flip.
// Under this order the engine's own MIS is exactly the sequential
// greedy MIS: members come first and are mutually non-adjacent, so
// greedy takes them all; every non-member has an (earlier) member
// neighbor by maximality, so greedy skips it. CheckInvariantOn, Verify
// and every derived structure therefore work unchanged on an engine
// whose MIS is not the paper's.
package indep

import (
	"fmt"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// Band priorities of the membership certificate order: MIS members carry
// BandIn, everyone else BandOut, so "earlier in π" coincides with "in M".
const (
	BandIn  order.Priority = 0
	BandOut order.Priority = 1
)

// Policy is the pair of decisions distinguishing the independent
// engines. Implementations may keep internal queue state; the Engine
// revalidates every popped candidate (present, out of M, zero blocker
// count), so policies are free to return stale entries.
type Policy interface {
	// Evict picks which endpoint of a freshly inserted M–M edge leaves
	// the MIS. Both endpoints are present and in M when it is called.
	Evict(g *graph.Graph, u, v graph.NodeID) graph.NodeID
	// Offer enqueues v as a join candidate: at the time of the call v is
	// present, out of M, and has blocker count zero.
	Offer(g *graph.Graph, v graph.NodeID)
	// Next pops the next join candidate, or graph.None when the queue is
	// drained. Entries may be stale; the Engine revalidates.
	Next(g *graph.Graph) graph.NodeID
}

// Engine is a counter-based independent dynamic MIS engine implementing
// the full core.Engine surface plus the core.Instrument capability. The
// zero value is not usable; call New.
type Engine struct {
	g     *graph.Graph
	ord   *order.Order
	state core.State
	pol   Policy
	cnt   []int32 // slot-indexed blocker counts: cnt[i] = |N(i) ∩ M|
	feed  core.Feed
	coll  *metrics.Collector // nil while instrumentation is disabled

	// Window scratch.
	one     [1]graph.Change
	touched map[graph.NodeID]core.Touched
	flipCnt map[graph.NodeID]int
	flips   int
	work    int
}

// Engine implements the uniform surface and the instrumentation
// capability (but not Snapshotter: the band certificate is derivable
// from the membership lane, so there is no extra structure to persist,
// and the priority stream of a π engine's snapshot is meaningless here).
var (
	_ core.Engine         = (*Engine)(nil)
	_ core.Instrument     = (*Engine)(nil)
	_ core.MemoryReporter = (*Engine)(nil)
)

// New returns an engine over an empty graph. The seed only initializes
// the order's (unused) priority stream: independent engines draw no
// random priorities, so their output is deterministic in the change
// sequence alone — unlike the π engines, equal inputs with different
// seeds still produce identical structures.
func New(seed uint64, pol Policy) *Engine {
	g := graph.New()
	ord := order.New(seed)
	ord.Attach(g)
	return &Engine{
		g:       g,
		ord:     ord,
		state:   core.NewState(g),
		pol:     pol,
		touched: make(map[graph.NodeID]core.Touched),
		flipCnt: make(map[graph.NodeID]int),
	}
}

// Graph exposes the engine's live graph (read-only for callers).
func (e *Engine) Graph() *graph.Graph { return e.g }

// Order exposes the band-certificate order; see the package comment.
func (e *Engine) Order() *order.Order { return e.ord }

// InMIS reports whether v is currently in the maintained MIS.
func (e *Engine) InMIS(v graph.NodeID) bool { return e.state.InMIS(v) }

// MIS returns the sorted current MIS.
func (e *Engine) MIS() []graph.NodeID { return e.state.MIS() }

// State returns a copy of the full membership map.
func (e *Engine) State() map[graph.NodeID]core.Membership { return e.state.Map() }

// Subscribe registers a change-feed callback; see core.Feed.
func (e *Engine) Subscribe(fn func(core.Event)) { e.feed.Subscribe(fn) }

// Instrument attaches a complexity collector (nil detaches).
func (e *Engine) Instrument(c *metrics.Collector) { e.coll = c }

// Collector returns the attached collector, or nil.
func (e *Engine) Collector() *metrics.Collector { return e.coll }

// MemoryProfile accounts a counter-skeleton engine: the arena plus the
// slot-indexed blocker-count lane and the order's (typically empty)
// priority table. Policy-internal scratch (settle heaps, buckets) is
// O(pending work) and transient, so it is not estimated.
func (e *Engine) MemoryProfile() metrics.Memory {
	return core.ArenaMemory(e.g, int64(cap(e.cnt))*4+e.ord.MemBytes())
}

// Apply performs one topology change and restores the MIS invariant. On
// a validation error the engine is unchanged.
func (e *Engine) Apply(c graph.Change) (core.Report, error) {
	e.one[0] = c
	return e.applyWindow(e.one[:], false)
}

// ApplyBatch stages several changes and settles once over the combined
// damage. On a mid-batch validation error the already-staged prefix's
// mutations remain applied and the settle pass restores the invariant
// (publishing the prefix's feed delta) before the error returns — the
// engine stays consistent and usable, exactly like the π engines'
// prefix-recovery contract. Note that because eviction and settle
// decisions observe intermediate configurations, a batch may legally
// reach a different (still valid, still policy-conforming) MIS than
// per-change application of the same changes.
func (e *Engine) ApplyBatch(cs []graph.Change) (core.Report, error) {
	return e.applyWindow(cs, true)
}

// ApplyAll applies a sequence of changes one window each, accumulating
// reports. It stops at the first error.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for i, c := range cs {
		rep, err := e.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d (%s): %w", i, c, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// applyWindow is the shared application path of Apply (a window of one)
// and ApplyBatch: stage every change (adjusting blocker counts and
// evicting M–M conflicts), run a single settle pass over the collected
// join candidates, then account adjustments and the feed delta from the
// touched set alone — O(touched), never O(n).
func (e *Engine) applyWindow(cs []graph.Change, batch bool) (core.Report, error) {
	clear(e.touched)
	clear(e.flipCnt)
	e.flips, e.work = 0, 0

	var stageErr error
	for i, c := range cs {
		// Capture the pre-window configuration of the node a node-change
		// touches before staging mutates it (first touch wins). Edge
		// changes mutate no membership during staging; endpoints that
		// flip are captured by noteFlip.
		if !c.Kind.IsEdge() {
			if _, seen := e.touched[c.Node]; !seen {
				e.touched[c.Node] = core.Touched{Present: e.g.HasNode(c.Node), M: e.state.Get(c.Node)}
			}
		}
		if err := e.stage(c); err != nil {
			if batch {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			stageErr = err
			break
		}
	}
	e.settle()

	log := make([]core.Touch, 0, len(e.touched))
	for v, b := range e.touched {
		slot := int32(-1)
		if i, ok := e.g.Index(v); ok {
			slot = int32(i)
		}
		log = append(log, core.Touch{Node: v, Slot: slot, Before: b})
	}
	d := core.DeltaFromTouched(e.state, log, nil, &e.feed)
	if stageErr != nil {
		return core.Report{}, stageErr
	}

	rep := core.Report{
		Adjustments: d.Adjustments,
		SSize:       len(e.flipCnt),
		Flips:       e.flips,
		Work:        e.work,
	}
	if mc := e.coll; mc != nil {
		mc.Updates += uint64(len(cs))
		mc.Windows++
		mc.Adjustments += uint64(d.Adjustments)
		mc.Influence += uint64(rep.SSize)
		mc.Flips += uint64(rep.Flips)
		mc.TouchedSlots += uint64(len(e.touched))
	}
	return rep, nil
}

// noteFlip records one membership flip of a present node for the
// window's cost account: first touch captures the pre-window
// configuration, every flip counts toward Flips and SSize.
func (e *Engine) noteFlip(v graph.NodeID, before core.Membership) {
	if _, seen := e.touched[v]; !seen {
		e.touched[v] = core.Touched{Present: true, M: before}
	}
	e.flipCnt[v]++
	e.flips++
}

// stage validates and applies one change, maintaining the blocker-count
// invariant cnt(v) = |N(v) ∩ M| and collecting join candidates. On a
// validation error nothing has been mutated.
func (e *Engine) stage(c graph.Change) error {
	if err := c.Validate(e.g); err != nil {
		return err
	}
	switch c.Kind {
	case graph.EdgeInsert:
		if err := c.Apply(e.g); err != nil {
			return err
		}
		iu, _ := e.g.Index(c.U)
		iv, _ := e.g.Index(c.V)
		uIn, vIn := e.state.At(iu) == core.In, e.state.At(iv) == core.In
		if uIn {
			e.cnt[iv]++
		}
		if vIn {
			e.cnt[iu]++
		}
		e.work += 2
		if uIn && vIn {
			// The new edge joins two MIS members; the policy picks the
			// one that leaves. Its departure may uncover neighbors.
			e.leave(e.pol.Evict(e.g, c.U, c.V))
		}

	case graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt:
		iu, _ := e.g.Index(c.U)
		iv, _ := e.g.Index(c.V)
		if err := c.Apply(e.g); err != nil {
			return err
		}
		// At most one endpoint is in M (independence), so at most one
		// count drops — possibly uncovering the other endpoint.
		if e.state.At(iu) == core.In {
			e.cnt[iv]--
			if e.cnt[iv] == 0 && e.state.At(iv) == core.Out {
				e.pol.Offer(e.g, c.V)
			}
		}
		if e.state.At(iv) == core.In {
			e.cnt[iu]--
			if e.cnt[iu] == 0 && e.state.At(iu) == core.Out {
				e.pol.Offer(e.g, c.U)
			}
		}
		e.work += 2

	case graph.NodeInsert, graph.NodeUnmute:
		if err := c.Apply(e.g); err != nil {
			return err
		}
		e.growCnt()
		i, _ := e.g.Index(c.Node)
		e.ord.Set(c.Node, BandOut)
		n := int32(0)
		for _, nb := range e.g.NeighborSlots(i) {
			if e.state.At(int(nb)) == core.In {
				n++
			}
			e.work++
		}
		e.cnt[i] = n
		if n == 0 {
			e.pol.Offer(e.g, c.Node)
		}

	case graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt, graph.NodeMute:
		i, _ := e.g.Index(c.Node)
		wasIn := e.state.At(i) == core.In
		var nbrs []graph.NodeID
		if wasIn {
			nbrs = e.g.Neighbors(c.Node)
		}
		if err := c.Apply(e.g); err != nil {
			return err
		}
		// The band is recomputed whenever the node re-enters (muted or
		// not), so the certificate never retains stale priorities.
		e.ord.Drop(c.Node)
		if wasIn {
			// The departing member counts as the window's first flip
			// (the touched entry was captured above), and its neighbors
			// lose a blocker each.
			e.flipCnt[c.Node]++
			e.flips++
			for _, u := range nbrs {
				j, ok := e.g.Index(u)
				if !ok {
					continue
				}
				e.cnt[j]--
				e.work++
				if e.cnt[j] == 0 && e.state.At(j) == core.Out {
					e.pol.Offer(e.g, u)
				}
			}
		}

	default:
		return fmt.Errorf("%w: unknown kind %v", graph.ErrInvalidChange, c.Kind)
	}
	return nil
}

// leave removes w from the MIS (an eviction), decrementing its
// neighbors' blocker counts and offering any vertex this uncovers. w
// itself keeps at least one blocker — the M neighbor whose edge caused
// the eviction — so it is never its own candidate.
func (e *Engine) leave(w graph.NodeID) {
	i, _ := e.g.Index(w)
	e.noteFlip(w, core.In)
	e.state.SetAt(i, core.Out)
	e.ord.Set(w, BandOut)
	for _, nb := range e.g.NeighborSlots(i) {
		e.cnt[nb]--
		e.work++
		if e.cnt[nb] == 0 && e.state.At(int(nb)) == core.Out {
			e.pol.Offer(e.g, e.g.IDAt(int(nb)))
		}
	}
}

// settle drains the policy's candidate queue, promoting every still
// uncovered vertex into the MIS in the policy's order. Promotions only
// add blockers, so the pass monotonically converges: each pop either
// discards a stale entry or performs one promotion, and promotions
// never enqueue new candidates.
func (e *Engine) settle() {
	for {
		v := e.pol.Next(e.g)
		if v == graph.None {
			return
		}
		i, ok := e.g.Index(v)
		if !ok || e.state.At(i) == core.In || e.cnt[i] != 0 {
			continue // stale: deleted, already promoted, or re-covered
		}
		e.noteFlip(v, core.Out)
		e.state.SetAt(i, core.In)
		e.ord.Set(v, BandIn)
		for _, nb := range e.g.NeighborSlots(i) {
			e.cnt[nb]++
			e.work++
		}
	}
}

// growCnt extends the blocker-count lane to cover the arena. Recycled
// slots need no cleanup: a slot's count is rewritten by the NodeInsert
// staging that reuses it.
func (e *Engine) growCnt() {
	if n := e.g.Slots(); len(e.cnt) < n {
		e.cnt = append(e.cnt, make([]int32, n-len(e.cnt))...)
	}
}

// Check verifies the engine's full invariant stack: the blocker counts
// against a recount, independence and maximality directly (CheckMISOn),
// the band certificate's consistency with the membership lane, and —
// through the certificate — the π-phrased MIS invariant the rest of the
// repository checks engines with (CheckInvariantOn).
func (e *Engine) Check() error {
	for i := range e.g.Slots() {
		v := e.g.IDAt(i)
		if v == graph.None {
			continue
		}
		n := int32(0)
		for _, nb := range e.g.NeighborSlots(i) {
			if e.state.At(int(nb)) == core.In {
				n++
			}
		}
		if e.cnt[i] != n {
			return fmt.Errorf("indep: node %d blocker count %d, want %d", v, e.cnt[i], n)
		}
		p, ok := e.ord.Priority(v)
		if !ok {
			return fmt.Errorf("indep: node %d has no band priority", v)
		}
		if in := e.state.At(i) == core.In; (p == BandIn) != in {
			return fmt.Errorf("indep: node %d band %d disagrees with membership %v", v, p, e.state.At(i))
		}
	}
	if err := core.CheckMISOn(e.g, e.state); err != nil {
		return err
	}
	return core.CheckInvariantOn(e.g, e.ord, e.state)
}
