package core_test // see batch_test.go for why these tests are external

import (
	. "dynmis/internal/core"

	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dynmis/internal/graph"
	"dynmis/workload"
)

// buildFromBytes deterministically turns fuzz bytes into a small graph
// engine, giving testing/quick structural diversity beyond G(n,p).
func buildFromBytes(seed uint64, edges []uint16, n byte) (*Template, error) {
	nodes := graph.NodeID(n%24) + 2
	eng := NewTemplate(seed)
	for v := graph.NodeID(0); v < nodes; v++ {
		if _, err := eng.Apply(graph.NodeChange(graph.NodeInsert, v)); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		u := graph.NodeID(e>>8) % nodes
		v := graph.NodeID(e&0xff) % nodes
		if u == v || eng.Graph().HasEdge(u, v) {
			continue
		}
		if _, err := eng.Apply(graph.EdgeChange(graph.EdgeInsert, u, v)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// TestCascadeReportInvariants: for arbitrary graphs and arbitrary single
// changes, the cost report obeys adjustments ≤ |S| ≤ flips and
// steps ≤ flips, and the result matches the oracle.
func TestCascadeReportInvariants(t *testing.T) {
	f := func(seed uint64, edges []uint16, n byte, pick uint16) bool {
		eng, err := buildFromBytes(seed, edges, n)
		if err != nil {
			return false
		}
		g := eng.Graph()
		nodes := g.Nodes()
		var c graph.Change
		switch pick % 4 {
		case 0:
			u := nodes[int(pick/4)%len(nodes)]
			v := nodes[int(pick/7)%len(nodes)]
			if u == v || g.HasEdge(u, v) {
				return true
			}
			c = graph.EdgeChange(graph.EdgeInsert, u, v)
		case 1:
			es := g.Edges()
			if len(es) == 0 {
				return true
			}
			e := es[int(pick/4)%len(es)]
			c = graph.EdgeChange(graph.EdgeDeleteAbrupt, e[0], e[1])
		case 2:
			c = graph.NodeChange(graph.NodeDeleteGraceful, nodes[int(pick/4)%len(nodes)])
		default:
			c = graph.NodeChange(graph.NodeInsert, 1000, nodes[int(pick/4)%len(nodes)])
		}
		rep, err := eng.Apply(c)
		if err != nil {
			return false
		}
		if rep.Adjustments > rep.SSize || rep.SSize > rep.Flips {
			return false
		}
		if rep.Rounds > rep.Flips {
			return false
		}
		want := GreedyMIS(eng.Graph().Clone(), eng.Order())
		return EqualStates(eng.State(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEdgeInvolution: deleting an edge and re-inserting it (same
// priorities) restores the exact previous structure — the template is an
// involution under inverse changes.
func TestEdgeInvolution(t *testing.T) {
	f := func(seed uint64, edges []uint16, n byte, pick uint16) bool {
		eng, err := buildFromBytes(seed, edges, n)
		if err != nil {
			return false
		}
		es := eng.Graph().Edges()
		if len(es) == 0 {
			return true
		}
		before := eng.State()
		e := es[int(pick)%len(es)]
		if _, err := eng.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, e[0], e[1])); err != nil {
			return false
		}
		if _, err := eng.Apply(graph.EdgeChange(graph.EdgeInsert, e[0], e[1])); err != nil {
			return false
		}
		return EqualStates(before, eng.State())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestBatchPropertyEqualsSequential drives random batches through the
// quick harness: batched and sequential application agree on the final
// structure for arbitrary inputs.
func TestBatchPropertyEqualsSequential(t *testing.T) {
	f := func(seed uint64, edges []uint16, n byte, steps byte) bool {
		a, err := buildFromBytes(seed, edges, n)
		if err != nil {
			return false
		}
		b, err := buildFromBytes(seed, edges, n)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		batch := workload.RandomChurn(rng, a.Graph(), workload.DefaultChurn(int(steps%24)+1))
		if _, err := a.ApplyAll(batch); err != nil {
			return false
		}
		if _, err := b.ApplyBatch(batch); err != nil {
			return false
		}
		return EqualStates(a.State(), b.State())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMISOfSortedAndComplete: MISOf returns exactly the In nodes, sorted.
func TestMISOfSortedAndComplete(t *testing.T) {
	f := func(bits []bool) bool {
		state := make(map[graph.NodeID]Membership, len(bits))
		want := 0
		for i, b := range bits {
			state[graph.NodeID(i)] = Membership(b)
			if b {
				want++
			}
		}
		mis := MISOf(state)
		if len(mis) != want {
			return false
		}
		for i := 1; i < len(mis); i++ {
			if mis[i-1] >= mis[i] {
				return false
			}
		}
		for _, v := range mis {
			if state[v] != In {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTheorem1NodeDeletionMean measures Theorem 1 the way it is stated:
// a FIXED graph and a FIXED topology change, expectation over the random
// order only. Node deletion is the near-equality case (E[|S|] ≈ 1), so it
// is the sharpest check; sampling 3000 orders gives a standard error of
// about 0.04.
func TestTheorem1NodeDeletionMean(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical")
	}
	const orders = 3000
	var sum, sumSq float64
	for seed := 0; seed < orders; seed++ {
		eng := NewTemplate(uint64(seed))
		if _, err := eng.ApplyAll(workload.Grid(10, 10)); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Apply(graph.NodeChange(graph.NodeDeleteGraceful, 45))
		if err != nil {
			t.Fatal(err)
		}
		x := float64(rep.SSize)
		sum += x
		sumSq += x * x
	}
	mean := sum / orders
	stdErr := math.Sqrt((sumSq/orders - mean*mean) / (orders - 1))
	if mean > 1.0+4*stdErr {
		t.Errorf("E[|S|] = %.4f ± %.4f over %d orders, exceeds Theorem 1's bound of 1", mean, stdErr, orders)
	}
	t.Logf("E[|S|] = %.4f ± %.4f over %d orders (Theorem 1 bound: 1)", mean, stdErr, orders)
}
