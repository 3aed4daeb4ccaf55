package core

import (
	"cmp"
	"fmt"
	"slices"

	"dynmis/internal/graph"
)

// EventCause classifies a membership event on the change feed.
type EventCause uint8

const (
	// CauseJoin: the node entered the visible topology. To is its
	// membership once the recovery settled (joining nodes start Out and
	// may be promoted by the cascade before the event is published).
	CauseJoin EventCause = iota + 1
	// CauseLeave: the node left the visible topology (deleted or muted).
	// From is its membership in the stable configuration before the
	// change; To is always Out.
	CauseLeave
	// CauseFlip: the recovery cascade flipped a node that stayed present.
	CauseFlip
)

// String names the cause.
func (c EventCause) String() string {
	switch c {
	case CauseJoin:
		return "join"
	case CauseLeave:
		return "leave"
	case CauseFlip:
		return "flip"
	default:
		return fmt.Sprintf("EventCause(%d)", uint8(c))
	}
}

// Event is one record of the membership change feed: node Node went from
// membership From to membership To because of Cause. Seq is the engine's
// monotonically increasing sequence number, starting at 1.
//
// Engines publish the *net* membership delta of every update (or batch
// window) in ascending node order, between stable configurations. That
// canonicalization is what makes the feed engine-independent: for equal
// seeds and equal change sequences every engine emits the identical event
// stream, because history independence (Definition 14) fixes the stable
// configurations themselves. Transient flips inside a recovery (a node
// flipping twice, §3's u2) are invisible — consumers only ever observe
// states that actually satisfied the MIS invariant.
type Event struct {
	Seq   uint64
	Node  graph.NodeID
	From  Membership
	To    Membership
	Cause EventCause
}

// String renders the event, e.g. "#3 flip 7 M̄→M".
func (e Event) String() string {
	return fmt.Sprintf("#%d %s %d %v→%v", e.Seq, e.Cause, e.Node, e.From, e.To)
}

// Feed is the engine-side publisher of membership events. The zero value
// is ready to use. Subscribers are invoked synchronously, on the
// goroutine that applied the change, after the recovery has settled — so
// a callback always observes the engine in a stable configuration. A Feed
// is not safe for concurrent use; engines publish only from their (single)
// caller goroutine.
type Feed struct {
	seq       uint64
	suspended bool
	subs      []func(Event)
}

// Subscribe registers fn for every future event.
func (f *Feed) Subscribe(fn func(Event)) { f.subs = append(f.subs, fn) }

// Active reports whether anyone is listening; engines use it to skip
// delta assembly entirely when the feed is unused or suspended.
func (f *Feed) Active() bool { return len(f.subs) > 0 && !f.suspended }

// Suspend silences the feed and returns a resume function. Engines whose
// batch surface delegates to per-change application wrap the delegation
// in Suspend/resume and emit a single net delta afterwards, so ApplyBatch
// publishes with the same per-window granularity on every engine.
func (f *Feed) Suspend() (resume func()) {
	f.suspended = true
	return func() { f.suspended = false }
}

// Seq returns the sequence number of the most recently published event.
func (f *Feed) Seq() uint64 { return f.seq }

// Publish assigns the next sequence number and delivers one event.
func (f *Feed) Publish(node graph.NodeID, from, to Membership, cause EventCause) {
	f.seq++
	ev := Event{Seq: f.seq, Node: node, From: from, To: to, Cause: cause}
	for _, fn := range f.subs {
		fn(ev)
	}
}

// PublishSorted sorts the events by node ID, assigns sequence numbers and
// delivers them. A delta assembled in map order (EmitDiff's, or
// DeltaFromTouchedOn's in internal/seqdyn) is published through it in
// the canonical order; the Seq fields of the input are overwritten.
func (f *Feed) PublishSorted(evs []Event) {
	slices.SortFunc(evs, func(a, b Event) int { return cmp.Compare(a.Node, b.Node) })
	for _, ev := range evs {
		f.Publish(ev.Node, ev.From, ev.To, ev.Cause)
	}
}

// EmitDiff publishes the canonical delta between two stable membership
// configurations: a join for every node present only in after, a leave
// for every node present only in before, and a flip for every node whose
// membership changed — all in ascending node order. It is a no-op with no
// subscribers.
func (f *Feed) EmitDiff(before, after map[graph.NodeID]Membership) {
	if !f.Active() {
		return
	}
	var evs []Event
	for v, m := range after {
		bm, ok := before[v]
		switch {
		case !ok:
			evs = append(evs, Event{Node: v, From: Out, To: m, Cause: CauseJoin})
		case bm != m:
			evs = append(evs, Event{Node: v, From: bm, To: m, Cause: CauseFlip})
		}
	}
	for v, bm := range before {
		if _, ok := after[v]; !ok {
			evs = append(evs, Event{Node: v, From: bm, To: Out, Cause: CauseLeave})
		}
	}
	f.PublishSorted(evs)
}

// Touched is a node's configuration at a point of an update window:
// whether it was present, and with which membership. The engines account
// a whole window from the configurations its touched nodes had before it
// — O(touched), never O(n).
type Touched struct {
	Present bool
	M       Membership
}

// Touch is one record of a window's touched log: node Node was staged by
// a node change of the window. The template and sharded engines log one
// Touch per staged node change (StageChange), so the log is at most as
// long as the window, and keep the nodes the cascade flipped on the
// Lanes flip log beside it; a node that is deleted and re-inserted, or
// inserted and then flipped, is on both or on the log twice.
// DeltaFromTouched folds a node's records in log order.
type Touch struct {
	Node graph.NodeID
	// Slot is Node's slot after the change, or -1 if the change removed
	// it. A removed MIS member (Before.M == In) is the v* flip of §3: it
	// "flips" to M̄ by departing.
	Slot int32
	// Before is Node's configuration just before the change.
	Before Touched
}

// Delta is a window's account, folded from its touched nodes.
type Delta struct {
	// Adjustments counts the nodes whose membership differs between the
	// stable configurations before and after the window (DiffStates).
	Adjustments int
	// SSize counts the nodes with at least one flip, and Flips the flips:
	// the departures of MIS members on the log and the flips on the flip
	// log. An engine that counts its flips elsewhere reads neither.
	SSize, Flips int
	// Nodes counts the distinct touched nodes.
	Nodes int
}

// DeltaFromTouched folds a window's touched nodes — the staged ones on
// log and the cascade-flipped ones on l's flip log (l may be nil) — into
// its Delta, and publishes the window's canonical feed delta on f in
// ascending node order. A node's first log record gives its pre-window
// configuration (first touch wins; a node only flipped had the
// membership its flip parity implies), its last touch its slot
// afterwards, and the arena state its membership there. Untouched nodes
// cannot have changed, so the result equals DiffStates/EmitDiff over full
// before/after maps. It sorts log (stably) and l.Flipped by node in
// place.
func DeltaFromTouched(s State, log []Touch, l *Lanes, f *Feed) Delta {
	slices.SortStableFunc(log, func(a, b Touch) int { return cmp.Compare(a.Node, b.Node) })
	var flipped []int32
	if l != nil {
		flipped = l.Flipped
		slices.SortFunc(flipped, func(a, b int32) int { return cmp.Compare(s.g.IDAt(int(a)), s.g.IDAt(int(b))) })
	}
	emit := f.Active()

	var d Delta
	for i, j := 0, 0; i < len(log) || j < len(flipped); {
		// Merge the two node-ordered lists; a node is on the flip log at
		// most once (it flips in the one slot it holds after staging).
		v := graph.None
		if i < len(log) {
			v = log[i].Node
		}
		if j < len(flipped) && (v == graph.None || s.g.IDAt(int(flipped[j])) < v) {
			v = s.g.IDAt(int(flipped[j]))
		}
		var b Touched
		slot, flips, seen := int32(-1), 0, false
		for ; i < len(log) && log[i].Node == v; i++ {
			if !seen {
				b, seen = log[i].Before, true
			}
			slot = log[i].Slot
			if slot < 0 && log[i].Before.M == In {
				flips++
			}
		}
		if j < len(flipped) && s.g.IDAt(int(flipped[j])) == v {
			slot = flipped[j]
			j++
			n := l.FlipCnt[slot]
			flips += int(n)
			if !seen {
				// A cascade flip only ever toggles, so the pre-window
				// membership is the current one complemented iff the
				// flip count is odd.
				b = Touched{Present: true, M: s.At(int(slot)) != (n%2 == 1)}
			}
		}
		d.Nodes++
		if flips > 0 {
			d.SSize++
			d.Flips += flips
		}
		switch {
		case b.Present && slot >= 0:
			if cur := s.At(int(slot)); cur != b.M {
				d.Adjustments++
				if emit {
					f.Publish(v, b.M, cur, CauseFlip)
				}
			}
		case b.Present:
			if b.M == In {
				d.Adjustments++
			}
			if emit {
				f.Publish(v, b.M, Out, CauseLeave)
			}
		case slot >= 0:
			cur := s.At(int(slot))
			if cur == In {
				d.Adjustments++
			}
			if emit {
				f.Publish(v, Out, cur, CauseJoin)
			}
		}
	}
	return d
}

// DeltaFromTouchedOn is the adjustment count and feed delta of
// DeltaFromTouched for a map-backed engine (internal/seqdyn, with
// MapState): touched maps each node to its pre-window configuration,
// presence afterwards is s.Has and membership s.Get. The events still
// need PublishSorted for the canonical node order.
func DeltaFromTouchedOn(s Stater, touched map[graph.NodeID]Touched, emit bool) (adjustments int, evs []Event) {
	for v, b := range touched {
		present := s.Has(v)
		switch {
		case b.Present && present:
			if cur := s.Get(v); cur != b.M {
				adjustments++
				if emit {
					evs = append(evs, Event{Node: v, From: b.M, To: cur, Cause: CauseFlip})
				}
			}
		case b.Present && !present:
			if b.M == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: b.M, To: Out, Cause: CauseLeave})
			}
		case !b.Present && present:
			cur := s.Get(v)
			if cur == In {
				adjustments++
			}
			if emit {
				evs = append(evs, Event{Node: v, From: Out, To: cur, Cause: CauseJoin})
			}
		}
	}
	return adjustments, evs
}

// Replay folds an event stream into the membership configuration it
// describes, starting from the empty graph: joins and flips set the
// node's membership, leaves forget it. Replaying every event an engine
// has published reproduces the engine's State() exactly.
func Replay(evs []Event) map[graph.NodeID]Membership {
	state := make(map[graph.NodeID]Membership)
	for _, ev := range evs {
		switch ev.Cause {
		case CauseLeave:
			delete(state, ev.Node)
		default:
			state[ev.Node] = ev.To
		}
	}
	return state
}
