package dynmis

import (
	"math/rand/v2"
	"testing"

	"dynmis/internal/clustering"
	"dynmis/internal/coloring"
	"dynmis/internal/core"
	"dynmis/internal/direct"
	"dynmis/internal/graph"
	"dynmis/internal/luby"
	"dynmis/internal/matching"
	"dynmis/internal/order"
	"dynmis/internal/protocol"
	"dynmis/internal/seqdyn"
	"dynmis/workload"
)

// ---------------------------------------------------------------------
// Engine micro-benchmarks: cost of one topology change at steady state.
// The custom metrics (adjustments/op, broadcasts/op, rounds/op) are the
// paper's complexity measures; ns/op measures the simulator.
// ---------------------------------------------------------------------

// churnBench drives pre-generated edge churn through any engine.
func churnBench(b *testing.B, apply func(graph.Change) (core.Report, error), g *graph.Graph, seed uint64) {
	b.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	churn := workload.EdgeChurn(rng, g, 4096)
	var total core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := apply(churn[i%len(churn)])
		if err != nil {
			// Replay wraps around, so a change may be stale; skip it.
			continue
		}
		total.Add(rep)
	}
	n := float64(b.N)
	b.ReportMetric(float64(total.Adjustments)/n, "adjustments/op")
	b.ReportMetric(float64(total.SSize)/n, "Ssize/op")
	b.ReportMetric(float64(total.Rounds)/n, "rounds/op")
	b.ReportMetric(float64(total.Broadcasts)/n, "broadcasts/op")
}

func buildOn(b *testing.B, applyAll func([]graph.Change) (core.Report, error), n int, seed uint64) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	build := workload.GNP(rng, n, 8/float64(n))
	if _, err := applyAll(build); err != nil {
		b.Fatal(err)
	}
	return workload.BuildGraph(build)
}

func BenchmarkTemplateEdgeChange(b *testing.B) {
	eng := core.NewTemplate(1)
	g := buildOn(b, eng.ApplyAll, 500, 1)
	churnBench(b, eng.Apply, g, 1)
}

func BenchmarkDirectEdgeChange(b *testing.B) {
	eng := direct.New(2)
	g := buildOn(b, eng.ApplyAll, 500, 2)
	churnBench(b, eng.Apply, g, 2)
}

func BenchmarkProtocolEdgeChange(b *testing.B) {
	eng := protocol.New(3)
	g := buildOn(b, eng.ApplyAll, 500, 3)
	churnBench(b, eng.Apply, g, 3)
}

func BenchmarkAsyncDirectEdgeChange(b *testing.B) {
	eng := direct.NewAsync(4, nil)
	g := buildOn(b, eng.ApplyAll, 500, 4)
	churnBench(b, eng.Apply, g, 4)
}

func BenchmarkLubyRecomputePerChange(b *testing.B) {
	m := luby.NewMaintainer(5)
	g := buildOn(b, m.ApplyAll, 500, 5)
	churnBench(b, m.Apply, g, 5)
}

// BenchmarkProtocolNodeInsertDegree measures Lemma 10's O(d) broadcast
// cost directly.
func BenchmarkProtocolNodeInsertDegree32(b *testing.B) {
	eng := protocol.New(6)
	buildOn(b, eng.ApplyAll, 500, 6)
	rng := rand.New(rand.NewPCG(6, 6))
	next := graph.NodeID(100000)
	var bcasts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := eng.Graph().Nodes()
		perm := rng.Perm(len(nodes))
		nbrs := make([]graph.NodeID, 0, 32)
		for _, idx := range perm[:32] {
			nbrs = append(nbrs, nodes[idx])
		}
		rep, err := eng.Apply(graph.NodeChange(graph.NodeInsert, next, nbrs...))
		if err != nil {
			b.Fatal(err)
		}
		bcasts += rep.Broadcasts
		if _, err := eng.Apply(graph.NodeChange(graph.NodeDeleteGraceful, next)); err != nil {
			b.Fatal(err)
		}
		next++
	}
	b.ReportMetric(float64(bcasts)/float64(b.N), "broadcasts/op")
}

// BenchmarkGreedyOracle measures the static oracle (baseline for the
// dynamic engines' per-change costs).
func BenchmarkGreedyOracle(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	g := workload.BuildGraph(workload.GNP(rng, 1000, 0.008))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.GreedyMIS(g, order.New(uint64(i)))
	}
}

func BenchmarkSeqdynEdgeChange(b *testing.B) {
	eng := seqdyn.New(7)
	g := buildOn(b, eng.ApplyAll, 2000, 7)
	rng := rand.New(rand.NewPCG(7, 99))
	churn := workload.EdgeChurn(rng, g, 4096)
	var work int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Apply(churn[i%len(churn)])
		if err != nil {
			continue
		}
		work += rep.Work
	}
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
}

func BenchmarkMatchingEdgeChange(b *testing.B) {
	m := matching.New(8)
	g := buildOn(b, m.ApplyAll, 300, 8)
	churnBench(b, m.Apply, g, 8)
}

func BenchmarkClusteringEdgeChange(b *testing.B) {
	m := clustering.New(9)
	rng := rand.New(rand.NewPCG(9, 7))
	build := workload.GNP(rng, 300, 8/300.0)
	if _, err := m.ApplyAll(build); err != nil {
		b.Fatal(err)
	}
	g := workload.BuildGraph(build)
	churn := workload.EdgeChurn(rng, g, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Apply(churn[i%len(churn)]); err != nil {
			continue
		}
	}
}

func BenchmarkColoringEdgeChange(b *testing.B) {
	m, err := coloring.New(10, 16)
	if err != nil {
		b.Fatal(err)
	}
	// Bounded-degree build so the palette guard never trips.
	var nodes []graph.NodeID
	rng := rand.New(rand.NewPCG(10, 10))
	for v := graph.NodeID(0); v < 120; v++ {
		var nbrs []graph.NodeID
		for _, u := range nodes {
			if len(nbrs) >= 6 {
				break
			}
			if m.Graph().Degree(u) < 6 && rng.Float64() < 0.05 {
				nbrs = append(nbrs, u)
			}
		}
		if _, err := m.Apply(graph.NodeChange(graph.NodeInsert, v, nbrs...)); err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := m.Graph()
		es := g.Edges()
		if len(es) == 0 {
			b.Fatal("graph lost all edges")
		}
		e := es[i%len(es)]
		if _, err := m.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, e[0], e[1])); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Apply(graph.EdgeChange(graph.EdgeInsert, e[0], e[1])); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolParallelRounds(b *testing.B) {
	eng := protocol.New(11)
	eng.SetParallel(4)
	g := buildOn(b, eng.ApplyAll, 2000, 11)
	churnBench(b, eng.Apply, g, 11)
}

func BenchmarkTemplateBatch16(b *testing.B) {
	eng := core.NewTemplate(12)
	g := buildOn(b, eng.ApplyAll, 500, 12)
	rng := rand.New(rand.NewPCG(12, 99))
	churn := workload.EdgeChurn(rng, g, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 16) % (len(churn) - 16)
		if _, err := eng.ApplyBatch(churn[lo : lo+16]); err != nil {
			continue
		}
	}
}
