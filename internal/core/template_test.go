package core

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"dynmis/internal/graph"
	"dynmis/internal/order"
)

func apply(t *testing.T, eng *Template, c graph.Change) Report {
	t.Helper()
	rep, err := eng.Apply(c)
	if err != nil {
		t.Fatalf("Apply(%s): %v", c, err)
	}
	return rep
}

// checkOracle asserts the history-independence property: the engine's state
// must equal the sequential greedy output on the current graph under the
// same order (Definition 14).
func checkOracle(t *testing.T, eng *Template) {
	t.Helper()
	if err := eng.Check(); err != nil {
		t.Fatal(err)
	}
	want := GreedyMIS(eng.Graph().Clone(), eng.Order())
	if !EqualStates(eng.State(), want) {
		t.Fatalf("engine state diverged from greedy oracle:\n got: %v\nwant: %v",
			MISOf(eng.State()), MISOf(want))
	}
}

func TestTemplateBasicLifecycle(t *testing.T) {
	eng := NewTemplate(1)
	rep := apply(t, eng, graph.NodeChange(graph.NodeInsert, 1))
	if rep.Adjustments != 1 {
		t.Errorf("first node adjustments = %d, want 1 (it joins the MIS)", rep.Adjustments)
	}
	if !eng.InMIS(1) {
		t.Error("isolated node not in MIS")
	}
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 2, 1))
	checkOracle(t, eng)
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 3, 1, 2))
	checkOracle(t, eng)
	apply(t, eng, graph.EdgeChange(graph.EdgeDeleteGraceful, 1, 2))
	checkOracle(t, eng)
	apply(t, eng, graph.NodeChange(graph.NodeDeleteAbrupt, 1))
	checkOracle(t, eng)
	if eng.Graph().HasNode(1) {
		t.Error("deleted node still present")
	}
}

func TestTemplateInvalidChangeLeavesEngineIntact(t *testing.T) {
	eng := NewTemplate(2)
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 2, 1))
	before := eng.State()
	if _, err := eng.Apply(graph.EdgeChange(graph.EdgeInsert, 1, 9)); !errors.Is(err, graph.ErrNoNode) {
		t.Fatalf("err = %v, want ErrNoNode", err)
	}
	if !EqualStates(before, eng.State()) {
		t.Error("state mutated by invalid change")
	}
}

// TestTemplatePathExample reproduces the worked example of §3: inserting an
// edge that evicts v* from the MIS causes the cascade
// S1={u1,u2}, S2={w1}, S3={w2}, S4={u2}, with u2 flipping twice and ending
// at its original output.
func TestTemplatePathExample(t *testing.T) {
	eng := NewTemplate(0)
	ord := eng.Order()

	const (
		x     = graph.NodeID(0)
		vstar = graph.NodeID(1)
		u1    = graph.NodeID(2)
		w1    = graph.NodeID(3)
		w2    = graph.NodeID(4)
		u2    = graph.NodeID(5)
	)
	// Force the order x < v* < u1 < w1 < w2 < u2 before the nodes draw
	// random priorities.
	for i, v := range []graph.NodeID{x, vstar, u1, w1, w2, u2} {
		ord.Set(v, order.Priority(i+1))
	}
	apply(t, eng, graph.NodeChange(graph.NodeInsert, x))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, vstar))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, u1, vstar))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, w1, u1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, w2, w1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, u2, vstar, w2))

	// Stable pre-change configuration of the example.
	for _, tc := range []struct {
		v    graph.NodeID
		want Membership
	}{{x, In}, {vstar, In}, {u1, Out}, {w1, In}, {w2, Out}, {u2, Out}} {
		if eng.State()[tc.v] != tc.want {
			t.Fatalf("pre-change state[%d] = %v, want %v", tc.v, eng.State()[tc.v], tc.want)
		}
	}

	rep := apply(t, eng, graph.EdgeChange(graph.EdgeInsert, x, vstar))
	checkOracle(t, eng)

	if rep.SSize != 5 {
		t.Errorf("|S| = %d, want 5 (v*, u1, u2, w1, w2)", rep.SSize)
	}
	if rep.Flips != 6 {
		t.Errorf("flips = %d, want 6 (u2 flips twice)", rep.Flips)
	}
	if rep.Rounds != 5 {
		t.Errorf("cascade steps = %d, want 5", rep.Rounds)
	}
	if rep.Adjustments != 4 {
		t.Errorf("adjustments = %d, want 4 (u2 returns to its original state)", rep.Adjustments)
	}
	for _, tc := range []struct {
		v    graph.NodeID
		want Membership
	}{{x, In}, {vstar, Out}, {u1, In}, {w1, Out}, {w2, In}, {u2, Out}} {
		if eng.State()[tc.v] != tc.want {
			t.Errorf("post-change state[%d] = %v, want %v", tc.v, eng.State()[tc.v], tc.want)
		}
	}
}

func TestTemplateDeleteOutNodeIsFree(t *testing.T) {
	eng := NewTemplate(3)
	ord := eng.Order()
	ord.Set(1, 10)
	ord.Set(2, 20)
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 2, 1))
	if eng.InMIS(2) {
		t.Fatal("node 2 should be out (neighbor 1 is earlier)")
	}
	rep := apply(t, eng, graph.NodeChange(graph.NodeDeleteAbrupt, 2))
	if rep.SSize != 0 || rep.Adjustments != 0 || rep.Flips != 0 {
		t.Errorf("deleting a non-MIS node should be free, got %v", rep)
	}
	checkOracle(t, eng)
}

func TestTemplateDeleteMISNodeCascades(t *testing.T) {
	eng := NewTemplate(4)
	ord := eng.Order()
	// Path 1-2-3 with order 1 < 2 < 3: MIS = {1,3}.
	ord.Set(1, 10)
	ord.Set(2, 20)
	ord.Set(3, 30)
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 2, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 3, 2))
	if !eng.InMIS(1) || eng.InMIS(2) || !eng.InMIS(3) {
		t.Fatalf("unexpected MIS %v", eng.MIS())
	}
	rep := apply(t, eng, graph.NodeChange(graph.NodeDeleteGraceful, 1))
	checkOracle(t, eng)
	// Deleting 1 promotes 2 and demotes 3: S = {1,2,3}.
	if rep.SSize != 3 {
		t.Errorf("|S| = %d, want 3", rep.SSize)
	}
	if rep.Adjustments != 3 {
		t.Errorf("adjustments = %d, want 3", rep.Adjustments)
	}
	if eng.InMIS(3) || !eng.InMIS(2) {
		t.Errorf("post-delete MIS = %v, want [2]", eng.MIS())
	}
}

func TestTemplateMuteUnmuteRoundTrip(t *testing.T) {
	eng := NewTemplate(5)
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 2, 1))
	apply(t, eng, graph.NodeChange(graph.NodeInsert, 3, 1, 2))
	beforeMIS := eng.State()

	apply(t, eng, graph.NodeChange(graph.NodeMute, 2))
	checkOracle(t, eng)
	if eng.Graph().HasNode(2) {
		t.Fatal("muted node visible")
	}
	// Unmuting with the same neighborhood must restore the exact same MIS:
	// the priority is retained, so the configuration is history
	// independent.
	apply(t, eng, graph.NodeChange(graph.NodeUnmute, 2, 1, 3))
	checkOracle(t, eng)
	if !EqualStates(beforeMIS, eng.State()) {
		t.Errorf("mute/unmute round trip changed the MIS: %v -> %v",
			MISOf(beforeMIS), MISOf(eng.State()))
	}
}

func TestTemplateRandomChurnAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	eng := NewTemplate(99)
	next := graph.NodeID(0)
	present := map[graph.NodeID]bool{}

	randNode := func() graph.NodeID {
		i := rng.IntN(len(present))
		for v := range present {
			if i == 0 {
				return v
			}
			i--
		}
		panic("unreachable")
	}

	for step := 0; step < 1200; step++ {
		g := eng.Graph()
		var c graph.Change
		switch op := rng.IntN(10); {
		case op < 3: // node insert with random attachments
			var nbrs []graph.NodeID
			for v := range present {
				if rng.Float64() < 0.15 {
					nbrs = append(nbrs, v)
				}
			}
			c = graph.NodeChange(graph.NodeInsert, next, nbrs...)
			present[next] = true
			next++
		case op < 5: // node delete
			if len(present) == 0 {
				continue
			}
			v := randNode()
			kind := graph.NodeDeleteGraceful
			if rng.IntN(2) == 0 {
				kind = graph.NodeDeleteAbrupt
			}
			c = graph.NodeChange(kind, v)
			delete(present, v)
		case op < 8: // edge insert
			if len(present) < 2 {
				continue
			}
			u, v := randNode(), randNode()
			if u == v || g.HasEdge(u, v) {
				continue
			}
			c = graph.EdgeChange(graph.EdgeInsert, u, v)
		default: // edge delete
			es := g.Edges()
			if len(es) == 0 {
				continue
			}
			e := es[rng.IntN(len(es))]
			kind := graph.EdgeDeleteGraceful
			if rng.IntN(2) == 0 {
				kind = graph.EdgeDeleteAbrupt
			}
			c = graph.EdgeChange(kind, e[0], e[1])
		}
		rep, err := eng.Apply(c)
		if err != nil {
			t.Fatalf("step %d: Apply(%s): %v", step, c, err)
		}
		if rep.SSize < rep.Adjustments {
			t.Fatalf("step %d: |S|=%d < adjustments=%d", step, rep.SSize, rep.Adjustments)
		}
		if step%50 == 0 {
			checkOracle(t, eng)
		}
	}
	checkOracle(t, eng)
}

// TestTemplateExpectedSSize measures E[|S|] over many random single changes
// on a fixed random graph — Theorem 1 says the expectation is at most 1.
// With 4000 trials the sample mean should comfortably sit below 1.15.
func TestTemplateExpectedSSize(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	rng := rand.New(rand.NewPCG(21, 22))
	var totalS, trials float64

	for rep := 0; rep < 40; rep++ {
		eng := NewTemplate(uint64(rep))
		n := graph.NodeID(80)
		var changes []graph.Change
		for v := graph.NodeID(0); v < n; v++ {
			changes = append(changes, graph.NodeChange(graph.NodeInsert, v))
		}
		for u := graph.NodeID(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.06 {
					changes = append(changes, graph.EdgeChange(graph.EdgeInsert, u, v))
				}
			}
		}
		if _, err := eng.ApplyAll(changes); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			g := eng.Graph()
			var c graph.Change
			if rng.IntN(2) == 0 {
				es := g.Edges()
				e := es[rng.IntN(len(es))]
				c = graph.EdgeChange(graph.EdgeDeleteGraceful, e[0], e[1])
			} else {
				nodes := g.Nodes()
				u, v := nodes[rng.IntN(len(nodes))], nodes[rng.IntN(len(nodes))]
				if u == v || g.HasEdge(u, v) {
					continue
				}
				c = graph.EdgeChange(graph.EdgeInsert, u, v)
			}
			r, err := eng.Apply(c)
			if err != nil {
				t.Fatal(err)
			}
			totalS += float64(r.SSize)
			trials++
		}
	}
	mean := totalS / trials
	if mean > 1.15 {
		t.Errorf("empirical E[|S|] = %.3f over %d trials, want ≤ 1 (Theorem 1)", mean, int(trials))
	}
	t.Logf("empirical E[|S|] = %.3f over %d trials", mean, int(trials))
}

func TestDiffStates(t *testing.T) {
	before := map[graph.NodeID]Membership{1: In, 2: Out, 3: In, 4: Out}
	after := map[graph.NodeID]Membership{1: Out, 2: Out, 4: In, 5: In, 6: Out}
	// 1 flipped, 3 removed while In, 4 flipped, 5 appeared In; 6 appeared
	// Out (not counted), 2 unchanged.
	got := DiffStates(before, after)
	want := []graph.NodeID{1, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("DiffStates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DiffStates = %v, want %v", got, want)
		}
	}
}

func TestMembershipString(t *testing.T) {
	if In.String() != "M" || Out.String() != "M̄" {
		t.Error("Membership.String mismatch")
	}
}

func TestReportAddAndString(t *testing.T) {
	a := Report{Adjustments: 1, SSize: 2, Flips: 3, Rounds: 4, Broadcasts: 5, Bits: 6, CausalDepth: 2}
	b := Report{Adjustments: 1, CausalDepth: 7}
	a.Add(b)
	if a.Adjustments != 2 || a.CausalDepth != 7 {
		t.Errorf("Add result %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

// TestTemplateWindowTraps pins one ApplyBatch window that springs every
// trap of slot-space staging at once: it deletes an MIS node u (1) and
// its neighbor w (2), inserts a fresh node z (5) that recycles w's freed
// slot — so w's seed slot names z by cascade time — and re-inserts u so
// that it flips back in. The Report and events are the ones the
// map-based staging returned for this window: u's pre-window record wins
// (no event for it), and u counts once in S although it both departed
// in the MIS and flipped.
func TestTemplateWindowTraps(t *testing.T) {
	ord := order.New(5)
	for v, p := range map[graph.NodeID]order.Priority{1: 10, 2: 20, 3: 30, 4: 40, 5: 5} {
		ord.Set(v, p)
	}
	eng := NewTemplateWithOrder(ord)
	// u=1 is first in π and blocks w=2 and x=3; y=4 joins behind them.
	for _, c := range []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 1),
		graph.NodeChange(graph.NodeInsert, 4, 2, 3),
	} {
		apply(t, eng, c)
	}
	var evs []Event
	eng.Subscribe(func(ev Event) { evs = append(evs, ev) })
	wSlot, _ := eng.Graph().Index(2)

	rep, err := eng.ApplyBatch([]graph.Change{
		graph.NodeChange(graph.NodeDeleteGraceful, 1),
		graph.NodeChange(graph.NodeDeleteAbrupt, 2),
		graph.NodeChange(graph.NodeInsert, 5, 4),
		graph.NodeChange(graph.NodeInsert, 1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if zSlot, _ := eng.Graph().Index(5); zSlot != wSlot {
		t.Fatalf("z took slot %d, want w's recycled slot %d", zSlot, wSlot)
	}
	if want := (Report{Adjustments: 3, SSize: 4, Flips: 5, Rounds: 3}); rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
	wantEvs := []Event{
		{Seq: 1, Node: 2, From: Out, To: Out, Cause: CauseLeave},
		{Seq: 2, Node: 3, From: Out, To: In, Cause: CauseFlip},
		{Seq: 3, Node: 4, From: In, To: Out, Cause: CauseFlip},
		{Seq: 4, Node: 5, From: Out, To: In, Cause: CauseJoin},
	}
	if !slices.Equal(evs, wantEvs) {
		t.Errorf("events = %v, want %v", evs, wantEvs)
	}
	if !eng.InMIS(1) {
		t.Error("re-inserted u did not flip into the MIS")
	}
	checkOracle(t, eng)
}
