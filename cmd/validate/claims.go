package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"dynmis/internal/bitorder"
	"dynmis/internal/core"
	"dynmis/internal/detgreedy"
	"dynmis/internal/direct"
	"dynmis/internal/ghaffari"
	"dynmis/internal/graph"
	"dynmis/internal/luby"
	"dynmis/internal/order"
	"dynmis/internal/protocol"
	"dynmis/workload"
)

// replayer is the surface the baseline sections drive: core.Engine's
// apply and check methods, which the baseline engines implement too.
// They drive the engines directly rather than through the facade, which
// knows none of the baselines.
type replayer interface {
	Apply(graph.Change) (core.Report, error)
	ApplyAll([]graph.Change) (core.Report, error)
	Check() error
}

// warmUp applies build to eng as one unmeasured prefix.
func warmUp(what string, eng replayer, build []graph.Change) {
	if _, err := eng.ApplyAll(build); err != nil {
		fatal(fmt.Errorf("%s warm-up: %w", what, err))
	}
}

// replay applies changes to eng one at a time, handing each Report to
// observe, and fails the run unless eng then passes its Check.
func replay(what string, eng replayer, changes []graph.Change, observe func(core.Report)) {
	for _, c := range changes {
		rep, err := eng.Apply(c)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", what, err))
		}
		observe(rep)
	}
	if err := eng.Check(); err != nil {
		fatal(fmt.Errorf("%s failed its engine check: %w", what, err))
	}
}

// series is a running mean (Welford's update) and maximum.
type series struct {
	n         int
	mean, max float64
}

func (s *series) add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
	if s.n == 1 || x > s.max {
		s.max = x
	}
}

func (s *series) addInt(x int) { s.add(float64(x)) }

// sized returns full, or small under -quick.
func sized[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// writeStaticBaselines renders §1's static/dynamic separation: Luby's
// and Ghaffari's static algorithms re-run after every edge change,
// against Algorithm 2 repairing only the influence set.
func writeStaticBaselines(doc *strings.Builder, seed uint64, quick bool) {
	ns := sized(quick, []int{100, 200, 400, 800}, []int{100, 200})
	steps := sized(quick, 120, 20)
	fmt.Fprintf(doc, `## Static recompute baselines: Luby and Ghaffari vs. Algorithm 2

§1's static/dynamic separation. Before this paper, the way to keep an
MIS under topology changes was to re-run a static distributed algorithm
after every change: Luby's, or Ghaffari's degree-adaptive one
(arXiv:1506.05093). Each recompute costs Θ(log n) rounds and Θ(n)
broadcasts, and it redraws the whole output, so many nodes adjust.
Algorithm 2 (the protocol engine) repairs only the influence set, in
O(1) rounds and broadcasts. All three run the same G(n, 8/n) build and
the same %d edge changes per n (workload rng PCG(seed+n, 53), engine
seed seed+n), and every run passes its engine's Check.

| n | algorithm | rounds/change | bcasts/change | adj/change |
|---:|---|---:|---:|---:|
`, steps)
	fmt.Println("== static recompute baselines")
	for _, n := range ns {
		wrng := rand.New(rand.NewPCG(seed+uint64(n), 53))
		build := workload.GNP(wrng, n, 8/float64(n))
		churn := workload.EdgeChurn(wrng, workload.BuildGraph(build), steps)
		algos := []struct {
			name string
			eng  replayer
		}{
			{"luby-recompute", luby.NewMaintainer(seed + uint64(n))},
			{"ghaffari-recompute", ghaffari.NewMaintainer(seed + uint64(n))},
			{"protocol (Alg 2)", protocol.New(seed + uint64(n))},
		}
		for _, al := range algos {
			what := fmt.Sprintf("static baselines %s n=%d", al.name, n)
			warmUp(what, al.eng, build)
			var rounds, bcasts, adj series
			replay(what, al.eng, churn, func(rep core.Report) {
				rounds.addInt(rep.Rounds)
				bcasts.addInt(rep.Broadcasts)
				adj.addInt(rep.Adjustments)
			})
			fmt.Fprintf(doc, "| %d | %s | %.3f | %.3f | %.3f |\n", n, al.name, rounds.mean, bcasts.mean, adj.mean)
			fmt.Printf("   %-18s n=%-4d rounds/change=%.3f bcasts/change=%.3f\n", al.name, n, rounds.mean, bcasts.mean)
		}
	}
	doc.WriteString(`
The static baselines also adjust a large share of the graph on every
change, because they redraw their output: output stability is the
second axis of the separation.

`)
}

// writeLowerBound renders §1.1's deterministic lower bound: ID-ordered
// greedy (internal/detgreedy) against the random order on the
// adversarial deletion sequence over K_{k,k}.
func writeLowerBound(doc *strings.Builder, seed uint64, quick bool) {
	ks := sized(quick, []int{4, 8, 16, 32, 64}, []int{4, 8, 16})
	seeds := sized(quick, 40, 8)
	fmt.Fprintf(doc, `## Deterministic lower bound: ID-ordered greedy vs. the random order on K_{k,k}

§1.1: every deterministic algorithm admits a topology change that
forces n adjustments. The victim is internal/detgreedy, the template
with priorities pinned to node IDs. The sequence
(workload.LowerBoundDeletions) deletes the lower-ID side of K_{k,k}
node by node, so the last deletion flips the whole other side at once:
"det max adj" is k+1. The randomized template runs the same sequence
under %d orders per k (engine seed seed+1000·k+s, s < %d). An oblivious
sequence cannot aim at a random order, so the mean stays ≈ 1
adjustment per change. "rand max adj" is the worst single change over
all runs: an unlucky order can still pay a large side flip at once, the
amortized-versus-worst-case contrast of Theorem 1. Every run passes its
engine's Check.

| k | det max adj | det total adj | rand mean adj/change | rand max adj | rand total adj |
|---:|---:|---:|---:|---:|---:|
`, seeds, seeds)
	fmt.Println("== deterministic lower bound")
	for _, k := range ks {
		det := detgreedy.New()
		what := fmt.Sprintf("lower bound detgreedy k=%d", k)
		warmUp(what, det, workload.CompleteBipartite(k))
		detMax, detTotal := 0, 0
		replay(what, det, workload.LowerBoundDeletions(k), func(rep core.Report) {
			detTotal += rep.Adjustments
			detMax = max(detMax, rep.Adjustments)
		})

		var mean, totals series
		randMax := 0
		for s := 0; s < seeds; s++ {
			eng := core.NewTemplate(seed + uint64(1000*k+s))
			what := fmt.Sprintf("lower bound template k=%d run %d", k, s)
			warmUp(what, eng, workload.CompleteBipartite(k))
			total, most := 0, 0
			replay(what, eng, workload.LowerBoundDeletions(k), func(rep core.Report) {
				total += rep.Adjustments
				most = max(most, rep.Adjustments)
			})
			mean.add(float64(total) / float64(k))
			randMax = max(randMax, most)
			totals.addInt(total)
		}
		fmt.Fprintf(doc, "| %d | %d | %d | %.3f | %d | %.3f |\n", k, detMax, detTotal, mean.mean, randMax, totals.mean)
		fmt.Printf("   k=%-3d det max=%d rand mean=%.3f\n", k, detMax, mean.mean)
	}
	doc.WriteString("\n")
}

// writeBitComplexity renders §1.1's bit complexity: the priority bits a
// node must reveal against its neighborhood (bitorder.RevealBits), and
// Algorithm 2's per-change bits with eager 64-bit priorities against
// that lazy revelation.
func writeBitComplexity(doc *strings.Builder, seed uint64, quick bool) {
	samples := sized(quick, 5000, 500)
	steps := sized(quick, 600, 80)
	const n = 300
	fmt.Fprintf(doc, `## Bit complexity: lazy priority revelation

§1.1, after Métivier et al.: a node needs only its order relative to
its neighbors, so adjacent nodes can reveal their priorities bit by bit,
most significant first, until the order is decided. That costs O(1)
expected bits per broadcast instead of Θ(log n). The first table
measures the exact revelation cost, bitorder.RevealBits, for %d uniform
priorities against d uniform neighbors (rng PCG(seed, 61)): about 2 bits
for one pair, plus about one bit per doubling of d.

| degree d | samples | mean bits | max bits | full width |
|---:|---:|---:|---:|---:|
`, samples)
	fmt.Println("== bit complexity")
	rng := rand.New(rand.NewPCG(seed, 61))
	for _, d := range []int{1, 4, 16, 64, 256} {
		var bits series
		nbrs := make([]order.Priority, d)
		for range samples {
			p := order.Priority(rng.Uint64())
			for j := range nbrs {
				nbrs[j] = order.Priority(rng.Uint64())
			}
			bits.addInt(bitorder.RevealBits(p, nbrs))
		}
		fmt.Fprintf(doc, "| %d | %d | %.3f | %d | 64 |\n", d, samples, bits.mean, int(bits.max))
	}

	eng := protocol.New(seed + 14)
	wrng := rand.New(rand.NewPCG(seed, 67))
	what := "bit complexity protocol"
	warmUp(what, eng, workload.GNP(wrng, n, 8/float64(n)))
	var eager, lazy, bcasts series
	replay(what, eng, workload.EdgeChurn(wrng, eng.Graph(), steps), func(rep core.Report) {
		eager.addInt(rep.Bits)
		// Each edge change ships two Hellos whose 64-bit priorities
		// lazy revelation replaces by ≈ 2 bits; the state machine's
		// 2-bit messages are unchanged.
		helloOverhead := rep.Bits - 2*rep.Broadcasts
		lazy.addInt(2*rep.Broadcasts + helloOverhead/32)
		bcasts.addInt(rep.Broadcasts)
	})
	fmt.Fprintf(doc, `
The second table applies that cost as an accounting substitution to
Algorithm 2 on G(n=%d, 8/n) with %d edge changes (engine seed seed+14,
workload rng PCG(seed, 67)). Eager counts the protocol's real payloads.
Lazy keeps the 2-bit state messages and replaces each Hello's 64-bit
priority by its expected ≈ 2-bit revelation. bitorder.Run simulates the
interactive, round-by-round form of the same revelation. The run passes
the protocol's Check.

| metric | eager | lazy |
|---|---:|---:|
| mean bits/change | %.3f | %.3f |
| mean bits/broadcast | %.3f | %.3f |

`, n, steps, eager.mean, lazy.mean, eager.mean/bcasts.mean, lazy.mean/bcasts.mean)
	fmt.Printf("   bits/change eager=%.3f lazy=%.3f\n", eager.mean, lazy.mean)
}

// blowupGadget builds the π-increasing fan: v* (earliest) adjacent to all
// of u_1 < u_2 < … < u_k, which also form a path u_1-u_2-…-u_k. While v*
// is in the MIS every u_i is out; deleting v* gracefully makes the direct
// algorithm oscillate (u_i flips ≈ i times), while Algorithm 2 flips each
// node once.
func blowupGadget(k int, ord *order.Order) []graph.Change {
	ord.Set(0, 1) // v*
	cs := []graph.Change{graph.NodeChange(graph.NodeInsert, 0)}
	for i := 1; i <= k; i++ {
		ord.Set(graph.NodeID(i), order.Priority(i+1))
		nbrs := []graph.NodeID{0}
		if i > 1 {
			nbrs = append(nbrs, graph.NodeID(i-1))
		}
		cs = append(cs, graph.NodeChange(graph.NodeInsert, graph.NodeID(i), nbrs...))
	}
	return cs
}

// writeBlowup renders §4's motivation for Algorithm 2: on the fan-path
// gadget the direct implementation flips ≈ |S|²/2 times, while Algorithm 2
// flips each influenced node once.
func writeBlowup(doc *strings.Builder, quick bool) {
	ks := sized(quick, []int{4, 8, 16, 32, 64}, []int{4, 8, 16})
	doc.WriteString(`## Direct implementation: the |S|² flip blow-up vs. Algorithm 2

§4: the direct implementation (Corollary 6) may change states up to
|S|² times in one recovery, one broadcast per flip, while Algorithm 2
changes each node's state at most three times (Lemma 8). The gadget is
a fan with a path on its rim: v* is earliest in π and adjacent to
u_1 < … < u_k, which also form the path u_1-…-u_k, so |S| = k+1 when v*
is deleted gracefully. In the direct engine each u_i flips about i
times, so its flips grow quadratically in k. Algorithm 2 flips each
node exactly once, at 3 broadcasts per node. The priorities are fixed,
so the table does not depend on the seed. Both runs pass their engine's
Check.

| k | direct flips | direct bcasts | alg2 flips | alg2 bcasts | flip ratio |
|---:|---:|---:|---:|---:|---:|
`)
	fmt.Println("== direct blow-up")
	deleteHub := []graph.Change{graph.NodeChange(graph.NodeDeleteGraceful, 0)}
	for _, k := range ks {
		var dRep, pRep core.Report
		dOrd := order.New(1)
		dEng := direct.NewWithOrder(dOrd)
		what := fmt.Sprintf("blow-up direct k=%d", k)
		warmUp(what, dEng, blowupGadget(k, dOrd))
		replay(what, dEng, deleteHub, func(rep core.Report) { dRep = rep })

		pOrd := order.New(1)
		pEng := protocol.NewWithOrder(pOrd)
		what = fmt.Sprintf("blow-up protocol k=%d", k)
		warmUp(what, pEng, blowupGadget(k, pOrd))
		replay(what, pEng, deleteHub, func(rep core.Report) { pRep = rep })

		fmt.Fprintf(doc, "| %d | %d | %d | %d | %d | %.3f |\n", k, dRep.Flips, dRep.Broadcasts,
			pRep.Flips, pRep.Broadcasts, float64(dRep.Flips)/float64(pRep.Flips))
		fmt.Printf("   k=%-3d direct flips=%d alg2 flips=%d\n", k, dRep.Flips, pRep.Flips)
	}
	doc.WriteString("\n")
}
