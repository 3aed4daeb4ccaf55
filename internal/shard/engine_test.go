package shard

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
	"dynmis/workload"
)

// The sharded engine must reproduce the sequential Template bit-for-bit on
// randomized update streams: same seed, same changes, same final state.
// This is the history-independence equivalence the design rests on, and it
// must hold for every shard count and window size.
func TestEquivalenceWithSequential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, window := range []int{1, 7, 64} {
			rng := rand.New(rand.NewPCG(11, 13))
			seq := workload.GNP(rng, 120, 0.05)
			seq = append(seq, workload.RandomChurn(rng, workload.BuildGraph(seq), workload.DefaultChurn(600))...)

			tpl := core.NewTemplate(42)
			if _, err := tpl.ApplyAll(seq); err != nil {
				t.Fatalf("template: %v", err)
			}

			// Once letting the engine pick its execution mode per window,
			// once with the parallel cascade accepting every window, so the
			// equivalence covers the worker/stealing machinery even on
			// hosts where GOMAXPROCS would route everything through the
			// Template's synchronous cascade.
			for _, force := range []bool{false, true} {
				e := New(42, shards)
				e.par.forceParallel = force
				e.SetWindow(window)
				if _, err := e.ApplyAll(seq); err != nil {
					t.Fatalf("shards=%d window=%d force=%v: %v", shards, window, force, err)
				}
				if err := e.Check(); err != nil {
					t.Fatalf("shards=%d window=%d force=%v: invariant: %v", shards, window, force, err)
				}
				if !core.EqualStates(tpl.State(), e.State()) {
					t.Fatalf("shards=%d window=%d force=%v: state diverged from sequential engine", shards, window, force)
				}
				if !tpl.Graph().Equal(e.Graph()) {
					t.Fatalf("shards=%d window=%d force=%v: graph diverged", shards, window, force)
				}
			}
		}
	}
}

// A long path with strictly increasing priorities is the worst case for
// cross-shard serialization: deleting the head MIS node cascades a flip
// down the entire path, and with block ownership every 64th hand-off
// crosses a shard boundary. The parallel cascade must serialize those
// hand-offs correctly and still converge to the greedy fixpoint.
func TestCrossShardConflictSerialization(t *testing.T) {
	const n = 400
	e := New(1, 4)
	e.par.forceParallel = true
	// Force π to follow the node IDs so the cascade travels the full path.
	for v := 0; v < n; v++ {
		e.Order().Set(graph.NodeID(v), order.Priority(v+1))
	}
	if _, err := e.ApplyAll(workload.Path(n)); err != nil {
		t.Fatal(err)
	}
	// Alternating MIS: 0, 2, 4, ...
	if got := len(e.MIS()); got != n/2 {
		t.Fatalf("path MIS size = %d, want %d", got, n/2)
	}

	rep, err := e.Apply(graph.NodeChange(graph.NodeDeleteAbrupt, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Every remaining node flips: S = {0} ∪ {1..n-1}.
	if rep.SSize != n {
		t.Fatalf("S size = %d, want %d", rep.SSize, n)
	}
	if rep.CrossShard == 0 {
		t.Fatal("expected cross-shard hand-offs on a hashed path cascade")
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	// The MIS shifted by one: 1, 3, 5, ...
	if got := len(e.MIS()); got != (n-1+1)/2 {
		t.Fatalf("post-delete MIS size = %d, want %d", got, n/2)
	}
}

// Window-level adjustment accounting must agree with the full state diff.
func TestBatchAdjustmentAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	build := workload.GNP(rng, 80, 0.08)
	churn := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(300))

	e := New(9, 4)
	if _, err := e.ApplyAll(build); err != nil {
		t.Fatal(err)
	}

	for lo := 0; lo < len(churn); lo += 25 {
		hi := min(lo+25, len(churn))
		before := e.State()
		rep, err := e.ApplyBatch(churn[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if want := len(core.DiffStates(before, e.State())); rep.Adjustments != want {
			t.Fatalf("window at %d: adjustments = %d, diff says %d", lo, rep.Adjustments, want)
		}
	}
}

// Staged deletions inside a window may seed the cascade with nodes that no
// longer exist (insert then delete of the same node); the cascade must
// skip them and the final structure must match the sequential engine.
func TestWindowWithTransientNodes(t *testing.T) {
	cs := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 1, 2),
		graph.NodeChange(graph.NodeDeleteAbrupt, 2),
		graph.NodeChange(graph.NodeInsert, 4, 1, 3),
		graph.NodeChange(graph.NodeDeleteGraceful, 4),
	}
	e := New(3, 4)
	rep, err := e.ApplyBatch(cs)
	if err != nil {
		t.Fatal(err)
	}
	tpl := core.NewTemplate(3)
	if _, err := tpl.ApplyAll(cs); err != nil {
		t.Fatal(err)
	}
	if !core.EqualStates(tpl.State(), e.State()) {
		t.Fatal("state diverged on transient-node window")
	}
	before := map[graph.NodeID]core.Membership{}
	if want := len(core.DiffStates(before, e.State())); rep.Adjustments != want {
		t.Fatalf("adjustments = %d, want %d", rep.Adjustments, want)
	}
}

// Validation failures surface with the change index and, as in
// Template.ApplyBatch, leave the engine consistent: the staged prefix
// stays applied and is cascaded.
func TestBatchValidationError(t *testing.T) {
	e := New(1, 2)
	_, err := e.ApplyBatch([]graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.EdgeChange(graph.EdgeInsert, 1, 99), // missing endpoint
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
	if !e.InMIS(1) {
		t.Fatal("staged prefix was not cascaded")
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

// Mute/unmute round-trips through windows, retaining priorities.
func TestMuteUnmuteWindow(t *testing.T) {
	e := New(21, 4)
	seq := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 1, 2),
	}
	if _, err := e.ApplyBatch(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(graph.NodeChange(graph.NodeMute, 2)); err != nil {
		t.Fatal(err)
	}
	pMuted, _ := e.Order().Priority(2)
	if _, err := e.Apply(graph.NodeChange(graph.NodeUnmute, 2, 1, 3)); err != nil {
		t.Fatal(err)
	}
	pBack, _ := e.Order().Priority(2)
	if pMuted != pBack {
		t.Fatal("muted node lost its priority across unmute")
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}

	tpl := core.NewTemplate(21)
	all := append(append([]graph.Change{}, seq...),
		graph.NodeChange(graph.NodeMute, 2),
		graph.NodeChange(graph.NodeUnmute, 2, 1, 3))
	if _, err := tpl.ApplyAll(all); err != nil {
		t.Fatal(err)
	}
	if !core.EqualStates(tpl.State(), e.State()) {
		t.Fatal("state diverged after mute/unmute")
	}
}

// Dense windows under many shards exercise the per-slot state-machine
// dedup, batch flushing, stealing and the termination protocol; run with
// -race to exercise the locking discipline. The parallel cascade accepts
// every window and GOMAXPROCS is raised so the parallel machinery runs
// even on single-processor hosts.
func TestDenseWindowsRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewPCG(31, 37))
	build := workload.GNP(rng, 200, 0.1)
	churn := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(1500))

	e := New(8, 8)
	e.par.forceParallel = true
	e.SetWindow(128)
	coll := metrics.NewCollector()
	e.Instrument(coll)
	if _, err := e.ApplyAll(build); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyAll(churn); err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if err := core.CheckMIS(e.Graph(), e.State()); err != nil {
		t.Fatal(err)
	}
	c := coll.Snapshot()
	if c.Windows == 0 || c.Updates != uint64(len(build)+len(churn)) {
		t.Fatalf("collector miscounted: %+v", c)
	}
}
