package shard

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/workload"
)

// The Template's queued-mark lane is shared by its synchronous cascade
// and the parallel one, so both must hand it back all-zero after every
// window: successful, staging-failed, and forced-parallel. Check scans
// the lane.
func TestCascadeLaneQuiescent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewPCG(71, 73))
	build := workload.GNP(rng, 150, 0.06)
	churn := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(900))
	all := append(build, churn...)

	for _, force := range []bool{false, true} {
		e := New(5, 4)
		e.par.forceParallel = force
		for lo := 0; lo < len(all); lo += 64 {
			hi := min(lo+64, len(all))
			if _, err := e.ApplyBatch(all[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if err := e.Check(); err != nil {
				t.Fatalf("force=%v: after window at %d: %v", force, lo, err)
			}
			// A window whose last change fails staging still cascades its
			// prefix: delete an MIS node, re-insert it with its neighbors
			// (leaving the topology as it was), then insert it again.
			v := e.MIS()[0]
			_, err := e.ApplyBatch([]graph.Change{
				graph.NodeChange(graph.NodeDeleteAbrupt, v),
				graph.NodeChange(graph.NodeInsert, v, e.Graph().Neighbors(v)...),
				graph.NodeChange(graph.NodeInsert, v),
			})
			if err == nil {
				t.Fatal("expected staging failure")
			}
			if err := e.Check(); err != nil {
				t.Fatalf("force=%v: after failed window at %d: %v", force, lo, err)
			}
		}
	}
}

// With one shard, or whenever the parallel cascade declines, a sharded
// window is exactly a Template window, so its steady-state allocations
// per window are no more than Template.ApplyBatch's.
func TestSteadyStateAllocsMatchTemplate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewPCG(81, 83))
	build := workload.GNP(rng, 400, 0.02)
	churn := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(4_000))

	const window, warm = 16, 100
	allocs := func(e interface {
		ApplyBatch([]graph.Change) (core.Report, error)
	}) float64 {
		if _, err := e.ApplyBatch(build); err != nil {
			t.Fatal(err)
		}
		next := 0
		apply := func() {
			if _, err := e.ApplyBatch(churn[next : next+window]); err != nil {
				t.Fatal(err)
			}
			next += window
		}
		for range warm {
			apply()
		}
		return testing.AllocsPerRun(100, apply)
	}
	tpl := allocs(core.NewTemplate(3))
	for _, shards := range []int{1, 4} {
		if got := allocs(New(3, shards)); got > tpl {
			t.Fatalf("shards=%d: %.1f allocs per window, Template %.1f", shards, got, tpl)
		}
	}
}
