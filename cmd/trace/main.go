// Command trace replays the paper's §3 worked example (or a random
// scenario) through Algorithm 2 and prints the node states round by
// round, making the C/R wave of the protocol visible:
//
//	$ go run ./cmd/trace
//	stable:   0:M 1:M 2:M̄ 3:M 4:M̄ 5:M̄
//	change:   edge-insert{0,1}
//	round  1: 0:M 1:C 2:M̄ 3:M 4:M̄ 5:M̄
//	round  2: 0:M 1:C 2:C 3:M 4:M̄ 5:C
//	...
//
// With -replay, the command instead streams a recorded dynmis/trace
// JSONL file (made with `bench -record`) through
// the protocol engine via Maintainer.Drive and prints the membership
// event feed — which nodes joined, left or flipped, change by change.
//
// Usage:
//
//	trace [-scenario path|star|random] [-n 8] [-seed 1]
//	trace -replay trace.jsonl [-seed 1] [-events 20]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"dynmis"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/internal/protocol"
	"dynmis/internal/viz"
	"dynmis/trace"
	"dynmis/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "paper", "paper | path | star | random")
		n        = flag.Int("n", 8, "size for path/star/random scenarios")
		seed     = flag.Uint64("seed", 1, "random seed")
		dot      = flag.String("dot", "", "write a Graphviz DOT rendering of the final MIS to this file")
		replayF  = flag.String("replay", "", "stream a recorded trace file through the engine and print its event feed")
		events   = flag.Int("events", 20, "with -replay: print only the first N membership events (0 = all)")
	)
	flag.Parse()

	if *replayF != "" {
		if err := replayTrace(*replayF, *seed, *events); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	eng := protocol.New(*seed)
	var change graph.Change

	switch *scenario {
	case "paper":
		// The §3 path example: x < v* < u1 < w1 < w2 < u2; inserting
		// the edge {x, v*} evicts v* and ripples through the path.
		ord := eng.Order()
		for i, v := range []graph.NodeID{0, 1, 2, 3, 4, 5} {
			ord.Set(v, order.Priority(i+1))
		}
		mustAll(eng,
			graph.NodeChange(graph.NodeInsert, 0),
			graph.NodeChange(graph.NodeInsert, 1),
			graph.NodeChange(graph.NodeInsert, 2, 1),
			graph.NodeChange(graph.NodeInsert, 3, 2),
			graph.NodeChange(graph.NodeInsert, 4, 3),
			graph.NodeChange(graph.NodeInsert, 5, 1, 4),
		)
		change = graph.EdgeChange(graph.EdgeInsert, 0, 1)
	case "path":
		mustAll(eng, workload.Path(*n)...)
		change = graph.NodeChange(graph.NodeDeleteGraceful, 0)
	case "star":
		mustAll(eng, workload.Star(*n)...)
		change = graph.NodeChange(graph.NodeDeleteAbrupt, 0)
	case "random":
		rng := rand.New(rand.NewPCG(*seed, 17))
		mustAll(eng, workload.GNP(rng, *n, 3/float64(*n))...)
		es := eng.Graph().Edges()
		if len(es) == 0 {
			fmt.Fprintln(os.Stderr, "random graph has no edges; raise -n")
			os.Exit(1)
		}
		e := es[rng.IntN(len(es))]
		change = graph.EdgeChange(graph.EdgeDeleteGraceful, e[0], e[1])
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	// Print the stable configuration, then trace the recovery.
	fmt.Printf("graph:    %v, MIS=%v\n", eng.Graph(), eng.MIS())
	stable := protocol.TraceRound{States: map[graph.NodeID]protocol.State{}}
	for _, v := range eng.Graph().Nodes() {
		st := protocol.StateOut
		if eng.InMIS(v) {
			st = protocol.StateIn
		}
		stable.States[v] = st
	}
	fmt.Printf("stable:   %s\n", stable.StatesLine())
	fmt.Printf("change:   %s\n", change)

	first := -1
	eng.SetTracer(func(tr protocol.TraceRound) {
		if first < 0 {
			first = tr.Round
		}
		fmt.Printf("round %2d: %s\n", tr.Round-first+1, tr.StatesLine())
	})
	rep, err := eng.Apply(change)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eng.SetTracer(nil)

	fmt.Printf("\nrecovered: MIS=%v\n", eng.MIS())
	fmt.Printf("cost: adjustments=%d |S|=%d rounds=%d broadcasts=%d bits=%d\n",
		rep.Adjustments, rep.SSize, rep.Rounds, rep.Broadcasts, rep.Bits)
	if err := eng.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: %v\n", err)
		os.Exit(1)
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		viz.MISDot(f, eng.Graph(), eng.State(), fmt.Sprintf("after %s", change))
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *dot)
	}
}

// replayTrace streams a recorded change trace through a protocol-backed
// maintainer and prints the membership event feed it produces — the
// push-side view of the same recovery the round tracer shows.
func replayTrace(path string, seed uint64, maxEvents int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	m := dynmis.MustNew(dynmis.WithSeed(seed))
	printed := 0
	m.Subscribe(func(ev dynmis.Event) {
		if maxEvents > 0 && printed == maxEvents {
			fmt.Println("... (further events elided; raise -events)")
		}
		printed++
		if maxEvents > 0 && printed > maxEvents {
			return
		}
		fmt.Printf("event %s\n", ev)
	})

	r := trace.NewReader(f)
	sum, err := m.Drive(context.Background(), r.All())
	if err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("\nreplayed %d changes: %d membership events, final |MIS|=%d, %v\n",
		sum.Changes, printed, len(m.MIS()), sum)
	if err := m.Verify(); err != nil {
		return fmt.Errorf("VERIFICATION FAILED: %w", err)
	}
	fmt.Println("invariants verified")
	return nil
}

func mustAll(eng *protocol.Engine, cs ...graph.Change) {
	if _, err := eng.ApplyAll(cs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
