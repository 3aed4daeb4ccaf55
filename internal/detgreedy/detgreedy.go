// Package detgreedy is the deterministic dynamic MIS baseline used to
// reproduce the paper's lower bound (§1.1): any deterministic algorithm
// admits a topology change that forces n adjustments. This engine is "the
// natural deterministic algorithm" — greedy over the fixed order of node
// IDs — maintained with the same cascade as the randomized template; on
// the complete bipartite construction K_{k,k} it is forced to flip an
// entire side at once, which docs/VALIDATION.md's "Deterministic lower
// bound" section measures.
package detgreedy

import (
	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
)

// Engine maintains the ID-ordered greedy MIS dynamically.
type Engine struct {
	tpl *core.Template
}

// New returns an engine over an empty graph.
func New() *Engine {
	return &Engine{tpl: core.NewTemplateWithOrder(order.New(0))}
}

// Apply performs one topology change. Node priorities are pinned to the
// node IDs, making the algorithm fully deterministic.
func (e *Engine) Apply(c graph.Change) (core.Report, error) {
	if c.Kind == graph.NodeInsert || c.Kind == graph.NodeUnmute {
		e.tpl.Order().Set(c.Node, order.Priority(c.Node))
	}
	return e.tpl.Apply(c)
}

// ApplyAll applies a sequence of changes, accumulating reports.
func (e *Engine) ApplyAll(cs []graph.Change) (core.Report, error) {
	var total core.Report
	for _, c := range cs {
		rep, err := e.Apply(c)
		if err != nil {
			return total, err
		}
		total.Add(rep)
	}
	return total, nil
}

// Graph exposes the maintained topology (read-only for callers).
func (e *Engine) Graph() *graph.Graph { return e.tpl.Graph() }

// InMIS reports whether v is in the current MIS.
func (e *Engine) InMIS(v graph.NodeID) bool { return e.tpl.InMIS(v) }

// MIS returns the sorted current MIS.
func (e *Engine) MIS() []graph.NodeID { return e.tpl.MIS() }

// State returns a copy of the membership map.
func (e *Engine) State() map[graph.NodeID]core.Membership { return e.tpl.State() }

// Check verifies the MIS invariant.
func (e *Engine) Check() error { return e.tpl.Check() }
