package core

import (
	"fmt"
	"slices"

	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
)

// Template is the model-level engine of Algorithm 1 (§3): it maintains the
// MIS invariant under topology changes by simulating the influence-set
// cascade. It is not tied to a computation model; the distributed engines
// realize the same cascade with messages. Its outputs define the ground
// truth the distributed engines are differentially tested against.
//
// The cascade is the synchronous fixpoint reading of Eq. (1): starting from
// the single node v* whose invariant the change may violate, repeatedly
// flip — simultaneously — every node whose state disagrees with
// ShouldBeIn under the current states. Violations propagate strictly
// upward in π (a node's invariant depends only on earlier neighbors), so
// the process terminates; the set of distinct flipped nodes is S and
// E[|S|] ≤ 1 over the random order (Theorem 1).
//
// Storage-wise the engine is arena-backed: memberships live in the graph's
// dense state lane (the State view) and priorities are written through into
// the graph's priority lane by the attached Order, so the cascade inner
// loop — invariant evaluation, flipping, frontier expansion — is pure array
// walks over slot indices with no hashing and no steady-state allocation.
// Per-update cost accounting is O(touched): only the nodes a window staged
// or flipped are examined, never the whole state (Theorem 1 makes that set
// expected-constant per change).
//
// The fixpoint is unique for a fixed graph and π, so how it is evaluated is
// the Template's one seam: an engine may plug in a ParallelCascade
// (internal/shard does), which every window offers its resolved seeds to
// before the synchronous cascade runs. Staging, flip recording, accounting
// and the feed are the same code either way.
type Template struct {
	g     *graph.Graph
	ord   *order.Order
	state State
	steps int // safety counter for the last cascade
	feed  Feed
	coll  *metrics.Collector // nil while instrumentation is disabled
	par   ParallelCascade    // nil: every window cascades synchronously

	// Slot-indexed cascade scratch, reused across windows. Staging
	// appends the window's seed slots to cand, the cascade's first
	// worklist.
	lanes Lanes
	cand  []int32
	next  []int32

	// Window scratch, reused across windows: the touched log of staged
	// node changes, which lives beside the lanes' flip log.
	one [1]graph.Change
	log []Touch
}

// Lanes is the Template's slot-indexed cascade scratch: 8 bytes per arena
// slot, sized to the arena at the start of every cascade and never
// cleared in O(n).
type Lanes struct {
	// Mark is the queued mark: nonzero while a slot waits for evaluation.
	// The synchronous cascade sets it on enqueue and clears it on
	// evaluation; a ParallelCascade uses the same lane as its atomic
	// per-slot state machine, with 1 meaning queued. It is all-zero
	// between windows.
	Mark []uint32
	// FlipCnt counts each slot's flips in the current window and Flipped
	// lists the slots whose count left zero, so the next window resets
	// the counts in O(|S|). The window's accounting (DeltaFromTouched)
	// reads the two beside its touched log and sorts Flipped by node.
	FlipCnt []int32
	Flipped []int32
}

// CascadeCounts is a ParallelCascade's routing account of one window.
type CascadeCounts struct {
	// Handoffs counts flipped nodes' later-in-π neighbors routed back into
	// the worklist; CrossShard is the subset whose slot another shard
	// owns.
	Handoffs, CrossShard int
	// Steals counts work-steal operations; it depends on scheduling.
	Steals int
}

// ParallelCascade evaluates a window's flip fixpoint on several workers.
// Cascade receives the window's resolved, deduplicated seed slots, each
// already marked 1 (queued) in l.Mark, while the graph and order are
// frozen. It either declines, touching nothing, and returns false — the
// Template then runs its synchronous cascade over the same seeds — or runs
// the fixpoint to quiescence and returns true. A run must record every
// flip in l.FlipCnt and l.Flipped (each flip toggles one membership, which
// is what lets the Template recover pre-cascade memberships from flip
// parity) and leave l.Mark all-zero.
type ParallelCascade interface {
	Cascade(seeds []int32, l *Lanes) (CascadeCounts, bool)
}

// Template implements the full engine surface plus the persistence and
// instrumentation capabilities.
var (
	_ Engine         = (*Template)(nil)
	_ Snapshotter    = (*Template)(nil)
	_ Instrument     = (*Template)(nil)
	_ MemoryReporter = (*Template)(nil)
)

// NewTemplate returns an engine over an empty graph with a fresh random
// order seeded by seed.
func NewTemplate(seed uint64) *Template {
	return NewTemplateWithOrder(order.New(seed))
}

// NewTemplateWithOrder returns an engine using a caller-supplied order,
// allowing several engines (or an oracle) to share the same π.
func NewTemplateWithOrder(ord *order.Order) *Template {
	return NewParallelTemplate(ord, nil)
}

// NewParallelTemplate is NewTemplateWithOrder with a parallel cascade that
// every window offers its seeds to first (nil for none).
func NewParallelTemplate(ord *order.Order, par ParallelCascade) *Template {
	g := graph.New()
	ord.Attach(g)
	return &Template{g: g, ord: ord, state: NewState(g), par: par}
}

// Graph exposes the engine's live graph. Callers must treat it as
// read-only; mutate only through Apply.
func (t *Template) Graph() *graph.Graph { return t.g }

// Order exposes the engine's node order.
func (t *Template) Order() *order.Order { return t.ord }

// InMIS reports whether v is currently in the maintained MIS.
func (t *Template) InMIS(v graph.NodeID) bool { return t.state.InMIS(v) }

// MIS returns the sorted current MIS.
func (t *Template) MIS() []graph.NodeID { return t.state.MIS() }

// State returns a copy of the full membership map.
func (t *Template) State() map[graph.NodeID]Membership { return t.state.Map() }

// View returns the live dense membership view (read-only for callers).
func (t *Template) View() State { return t.state }

// Check verifies the MIS invariant on the current configuration, and that
// the last window left the queued-mark lane all-zero.
func (t *Template) Check() error {
	if i := slices.IndexFunc(t.lanes.Mark, func(m uint32) bool { return m != 0 }); i >= 0 {
		return fmt.Errorf("core: cascade left slot %d marked %d", i, t.lanes.Mark[i])
	}
	return CheckInvariantOn(t.g, t.ord, t.state)
}

// Subscribe registers a change-feed callback; see Feed.
func (t *Template) Subscribe(fn func(Event)) { t.feed.Subscribe(fn) }

// Instrument attaches a complexity collector (nil detaches); see the
// Instrument capability.
func (t *Template) Instrument(c *metrics.Collector) { t.coll = c }

// Collector returns the attached collector, or nil.
func (t *Template) Collector() *metrics.Collector { return t.coll }

// Apply performs one topology change and runs the recovery cascade,
// returning the cost report. On validation error the engine is unchanged.
func (t *Template) Apply(c graph.Change) (Report, error) {
	t.one[0] = c
	return t.applyWindow(t.one[:], false)
}

// applyWindow is the shared application path of Apply (a window of one)
// and ApplyBatch: stage every change, run a single recovery cascade over
// the combined damage, then account adjustments and the feed delta from
// the touched log alone.
//
// On a staging error the already-staged prefix's mutations remain applied,
// and the recovery cascade runs over the prefix's damage (also publishing
// its feed delta) before the error returns: the engine stays consistent
// and usable. For a window of one nothing has been staged when that
// happens, so Apply's contract — unchanged engine on validation error —
// holds.
func (t *Template) applyWindow(cs []graph.Change, batch bool) (Report, error) {
	seeds := t.cand[:0]
	t.log = t.log[:0]

	var stageErr error
	for i, c := range cs {
		touch, staged, err := StageChange(t.g, t.ord, t.state, c, seeds)
		seeds = staged
		if err != nil {
			if batch {
				err = fmt.Errorf("batch change %d: %w", i, err)
			}
			stageErr = err
			break
		}
		if touch.Node != graph.None {
			t.log = append(t.log, touch)
		}
	}

	steps, hops, cerr := t.cascade(seeds)
	if cerr != nil {
		if stageErr != nil {
			return Report{}, fmt.Errorf("%w (and prefix recovery failed: %v)", stageErr, cerr)
		}
		return Report{}, cerr
	}
	if stageErr == nil {
		// Record the step count only for successful windows: a rejected
		// Apply stages nothing and must leave the engine — including
		// LastCascadeSteps — unchanged.
		t.steps = steps
	}

	d := DeltaFromTouched(t.state, t.log, &t.lanes, &t.feed)
	if stageErr != nil {
		return Report{}, stageErr
	}

	rep := Report{
		Adjustments: d.Adjustments,
		SSize:       d.SSize,
		Flips:       d.Flips,
		Rounds:      steps,
		CrossShard:  hops.CrossShard,
		Steals:      hops.Steals,
	}

	// Instrumentation folds quantities already computed for the Report
	// and the O(touched) accounting — nothing is measured twice, and a
	// detached collector costs exactly this nil check.
	if mc := t.coll; mc != nil {
		mc.Updates += uint64(len(cs))
		mc.Windows++
		mc.Adjustments += uint64(d.Adjustments)
		mc.Influence += uint64(d.SSize)
		mc.Flips += uint64(d.Flips)
		mc.CascadeSteps += uint64(steps)
		mc.TouchedSlots += uint64(d.Nodes)
		mc.Handoffs += uint64(hops.Handoffs)
		mc.CrossShard += uint64(hops.CrossShard)
		mc.Steals += uint64(hops.Steals)
	}
	return rep, nil
}

// cascade runs the flip fixpoint starting from the given seed slots (in
// t.cand's buffer, which it filters in place), recording flips in the
// slot-indexed lanes. The window's live, deduplicated seeds go to the
// parallel cascade first, if there is one; if it runs, cascade returns
// its routing account and zero steps. Otherwise the synchronous cascade
// runs and cascade returns the number of steps in which at least one
// node flipped.
func (t *Template) cascade(seeds []int32) (int, CascadeCounts, error) {
	// Reset the previous window's flip records sparsely, then make sure
	// the slot-indexed lanes cover the arena.
	l := &t.lanes
	for _, s := range l.Flipped {
		l.FlipCnt[s] = 0
	}
	l.Flipped = l.Flipped[:0]
	if n := t.g.Slots(); len(l.Mark) < n {
		l.Mark = append(l.Mark, make([]uint32, n-len(l.Mark))...)
		l.FlipCnt = append(l.FlipCnt, make([]int32, n-len(l.FlipCnt))...)
	}

	// Every slot in cand or next carries the queued mark, and every exit
	// below leaves the mark lane all-zero: marks are cleared as cand is
	// evaluated, and only a step that goes on marks next.
	cand, next := seeds[:0], t.next[:0]
	defer func() { t.cand, t.next = cand[:0], next[:0] }()
	for _, s := range seeds {
		// A seed slot freed later in the same window names no node, and
		// one recycled by a later insertion names that node, which seeded
		// itself; a deleted seed's former neighbors were seeded separately.
		if t.g.IDAt(int(s)) != graph.None && l.Mark[s] == 0 {
			l.Mark[s] = 1
			cand = append(cand, s)
		}
	}
	if t.par != nil && len(cand) > 0 {
		if hops, ok := t.par.Cascade(cand, l); ok {
			return 0, hops, nil
		}
	}

	steps := 0
	limit := 2*t.g.NodeCount() + 10
	for len(cand) > 0 {
		// Evaluate every candidate before flipping any, compacting the
		// violated ones to the front of cand.
		violated := cand[:0]
		for _, s := range cand {
			l.Mark[s] = 0
			if t.state.At(int(s)) != t.shouldBeInAt(int(s)) {
				violated = append(violated, s)
			}
		}
		if len(violated) == 0 {
			break
		}
		steps++
		if steps > limit {
			return steps, CascadeCounts{}, fmt.Errorf("core: cascade did not converge after %d steps", steps)
		}
		// Flip simultaneously. A violated node's target is always the
		// complement of its current state (membership is binary), so the
		// simultaneous commit is a plain toggle.
		for _, s := range violated {
			t.state.SetAt(int(s), !t.state.At(int(s)))
			if l.FlipCnt[s] == 0 {
				l.Flipped = append(l.Flipped, s)
			}
			l.FlipCnt[s]++
		}
		// New violations can only appear at nodes ordered after a node
		// that just flipped (the invariant looks only at earlier
		// neighbors).
		next = next[:0]
		for _, s := range violated {
			for _, nb := range t.g.NeighborSlots(int(s)) {
				if t.g.LessAt(int(s), int(nb)) && l.Mark[nb] == 0 {
					l.Mark[nb] = 1
					next = append(next, nb)
				}
			}
		}
		cand, next = next, cand
	}
	return steps, CascadeCounts{}, nil
}

// shouldBeInAt is ShouldBeIn in slot space: an array walk over the
// neighbor slots, the state lane and the priority lane.
func (t *Template) shouldBeInAt(i int) Membership {
	for _, nb := range t.g.NeighborSlots(i) {
		if t.state.At(int(nb)) == In && t.g.LessAt(int(nb), i) {
			return Out
		}
	}
	return In
}

// LastCascadeSteps returns the step count of the most recent successful
// Apply or ApplyBatch (failed applications leave it unchanged); it is
// exposed for tests exercising the §3 path example.
func (t *Template) LastCascadeSteps() int { return t.steps }

// ApplyAll applies a sequence of changes, accumulating reports. It stops at
// the first error.
func (t *Template) ApplyAll(cs []graph.Change) (Report, error) {
	var total Report
	for i, c := range cs {
		rep, err := t.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d (%s): %w", i, c, err)
		}
		total.Add(rep)
	}
	return total, nil
}
