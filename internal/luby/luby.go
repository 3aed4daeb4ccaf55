// Package luby implements Luby's classic randomized distributed MIS
// algorithm (SIAM J. Comput. 1986) as the paper's static baseline: the
// standard way to maintain an MIS dynamically before this paper was to
// re-run a static algorithm after every topology change (§1).
//
// The algorithm proceeds in synchronous phases over the live (undecided)
// subgraph. In each phase every live node draws a fresh random value and
// broadcasts it; a node whose value is a strict local minimum joins the
// MIS, announces it, and its neighbors announce their exit. The number of
// phases is O(log n) with high probability, and every phase costs one
// broadcast per live node — which is exactly the Θ(log n)-rounds /
// Θ(n log n)-broadcasts-per-change behavior that docs/VALIDATION.md's
// "Static recompute baselines" section contrasts with the dynamic
// algorithm's O(1).
package luby

import (
	"fmt"
	"math/rand/v2"

	"dynmis/internal/core"
	"dynmis/internal/graph"
)

// valueBits is the size of a phase value broadcast: the standard choice of
// Θ(log n) bits makes collisions unlikely; ties are broken by node ID.
const valueBits = 64

// decidedBits is the size of an "I joined" / "I left" announcement.
const decidedBits = 1

// Result is the outcome of one static run.
type Result struct {
	State      map[graph.NodeID]core.Membership
	Rounds     int
	Broadcasts int
	Bits       int
}

// Run executes Luby's algorithm on g, drawing randomness from rng. Each
// phase is two synchronous rounds: value exchange, then decision
// announcements.
func Run(g *graph.Graph, rng *rand.Rand) Result {
	res := Result{State: make(map[graph.NodeID]core.Membership, g.NodeCount())}
	live := make(map[graph.NodeID]bool, g.NodeCount())
	for _, v := range g.Nodes() {
		live[v] = true
	}

	for len(live) > 0 {
		// Round 1 of the phase: every live node broadcasts a fresh
		// value.
		res.Rounds++
		res.Broadcasts += len(live)
		res.Bits += len(live) * valueBits
		value := make(map[graph.NodeID]uint64, len(live))
		ids := sortedKeys(live)
		for _, v := range ids {
			value[v] = rng.Uint64()
		}

		// Local minima join the MIS.
		var joined []graph.NodeID
		for _, v := range ids {
			minimal := true
			g.EachNeighbor(v, func(u graph.NodeID) {
				if !live[u] {
					return
				}
				if value[u] < value[v] || (value[u] == value[v] && u < v) {
					minimal = false
				}
			})
			if minimal {
				joined = append(joined, v)
			}
		}

		// Round 2 of the phase: winners and their neighbors announce
		// their decisions and leave the live subgraph.
		res.Rounds++
		for _, v := range joined {
			res.State[v] = core.In
			delete(live, v)
			res.Broadcasts++
			res.Bits += decidedBits
			g.EachNeighbor(v, func(u graph.NodeID) {
				if live[u] {
					res.State[u] = core.Out
					delete(live, u)
					res.Broadcasts++
					res.Bits += decidedBits
				}
			})
		}
	}
	return res
}

func sortedKeys(set map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Maintainer is the static-recompute dynamic baseline: it answers every
// topology change by re-running Luby's algorithm from scratch on the whole
// graph. Correct, simple — and expensive, which is the separation the
// paper proves away.
type Maintainer struct {
	g     *graph.Graph
	rng   *rand.Rand
	state map[graph.NodeID]core.Membership
}

// NewMaintainer returns a baseline maintainer over an empty graph.
func NewMaintainer(seed uint64) *Maintainer {
	return &Maintainer{
		g:     graph.New(),
		rng:   rand.New(rand.NewPCG(seed, seed^0xabcdef12345)),
		state: make(map[graph.NodeID]core.Membership),
	}
}

// Graph exposes the maintained topology (read-only for callers).
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// InMIS reports whether v is in the current MIS.
func (m *Maintainer) InMIS(v graph.NodeID) bool { return m.state[v] == core.In }

// MIS returns the sorted current MIS.
func (m *Maintainer) MIS() []graph.NodeID { return core.MISOf(m.state) }

// State returns a copy of the current membership map.
func (m *Maintainer) State() map[graph.NodeID]core.Membership {
	out := make(map[graph.NodeID]core.Membership, len(m.state))
	for v, s := range m.state {
		out[v] = s
	}
	return out
}

// Apply applies the change and recomputes the MIS from scratch,
// reporting the full cost of the static re-run.
func (m *Maintainer) Apply(c graph.Change) (core.Report, error) {
	if err := c.Apply(m.g); err != nil {
		return core.Report{}, err
	}
	before := m.state
	res := Run(m.g, m.rng)
	m.state = res.State
	rep := core.Report{
		Rounds:      res.Rounds,
		Broadcasts:  res.Broadcasts,
		Bits:        res.Bits,
		Adjustments: len(core.DiffStates(before, res.State)),
	}
	rep.SSize = rep.Adjustments
	return rep, nil
}

// ApplyAll applies a sequence of changes, accumulating reports.
func (m *Maintainer) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for i, c := range cs {
		rep, err := m.Apply(c)
		if err != nil {
			return total, fmt.Errorf("change %d: %w", i, err)
		}
		total.Add(rep)
	}
	return total, nil
}

// Check verifies that the current state is a valid MIS.
func (m *Maintainer) Check() error { return core.CheckMIS(m.g, m.state) }
