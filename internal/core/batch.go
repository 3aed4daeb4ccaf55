package core

import "dynmis/internal/graph"

// ApplyBatch applies several topology changes at once and runs a single
// recovery cascade, instead of recovering after each change. This
// addresses the paper's first open question (§6: "whether our analysis
// can be extended to cope with more than a single failure at a time").
//
// Correctness is inherited from history independence: the final state
// equals the sequential greedy MIS on the resulting graph, exactly as if
// the changes had been applied one at a time — only the cost differs
// (batch_test.go:TestBatchAdjustmentsSublinear pins the saving).
//
// The changes are validated and applied in order; on a validation error
// the engine keeps the already-staged prefix's topology, and a recovery
// cascade over the prefix's damage restores the MIS invariant (and
// publishes the prefix's feed delta) before the error returns — the
// engine stays consistent and usable.
func (t *Template) ApplyBatch(cs []graph.Change) (Report, error) {
	return t.applyWindow(cs, true)
}
