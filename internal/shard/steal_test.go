package shard

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
	"dynmis/workload"
)

// The instrumentation counters and the window Reports are two accounts
// of the same parallel cascade; they must agree window by window even
// under concurrent execution with stealing, and cross-shard hand-offs
// are a subset of all hand-offs.
func TestStealHandoffCounterProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewPCG(41, 43))
	build := workload.GNP(rng, 300, 0.04)
	churn := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(4000))
	all := append(build, churn...)

	e := New(17, 8)
	e.par.forceParallel = true
	coll := metrics.NewCollector()
	e.Instrument(coll)

	const window = 256
	for lo := 0; lo < len(all); lo += window {
		hi := min(lo+window, len(all))
		prev := coll.Snapshot()
		rep, err := e.ApplyBatch(all[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		d := coll.Snapshot().Diff(prev)
		if d.CrossShard != uint64(rep.CrossShard) {
			t.Fatalf("window at %d: collector cross-shard %d, report %d", lo, d.CrossShard, rep.CrossShard)
		}
		if d.Steals != uint64(rep.Steals) {
			t.Fatalf("window at %d: collector steals %d, report %d", lo, d.Steals, rep.Steals)
		}
		if d.CrossShard > d.Handoffs {
			t.Fatalf("window at %d: %d cross-shard hand-offs exceed %d hand-offs", lo, d.CrossShard, d.Handoffs)
		}
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	c := coll.Snapshot()
	if c.Handoffs == 0 {
		t.Fatal("forced-parallel windows routed no hand-offs")
	}
	// Steal totals are scheduling-dependent, so only log them.
	t.Logf("handoffs: %d (%d cross); steals: %d", c.Handoffs, c.CrossShard, c.Steals)
}

// A window that fails staging must leave the metrics collector untouched
// — including the hand-off and steal counters — even though the parallel
// recovery cascade over the staged prefix runs.
func TestFailedWindowLeavesCountersUnchanged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 400
	e := New(1, 4)
	e.par.forceParallel = true
	for v := 0; v < n; v++ {
		e.Order().Set(graph.NodeID(v), order.Priority(v+1))
	}
	if _, err := e.ApplyAll(workload.Path(n)); err != nil {
		t.Fatal(err)
	}
	coll := metrics.NewCollector()
	e.Instrument(coll)

	before := coll.Snapshot()
	_, err := e.ApplyBatch([]graph.Change{
		graph.NodeChange(graph.NodeDeleteAbrupt, 0),        // cascades the whole chain
		graph.EdgeChange(graph.EdgeInsert, 77_777, 88_888), // fails validation
	})
	if err == nil {
		t.Fatal("expected staging failure")
	}
	if after := coll.Snapshot(); after != before {
		t.Fatalf("failed window moved the collector:\n got %+v\nwant %+v", after, before)
	}
	// The prefix cascade did run: the structure is consistent and the
	// MIS shifted down the path.
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if !e.InMIS(1) || e.InMIS(2) {
		t.Fatal("prefix cascade did not shift the path's MIS")
	}
}
