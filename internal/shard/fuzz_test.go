package shard

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/trace"
	"dynmis/workload"
)

// fuzzMaxChanges bounds one fuzz execution so the engine comparisons
// stay fast enough for the mutator to explore broadly.
const fuzzMaxChanges = 2000

// decodeFuzzStream turns raw fuzz bytes into a change stream that is
// valid when applied in order from the empty graph. Bytes that parse as
// a JSONL trace (the seeded corpus, or any recorded trace dropped into
// testdata) are taken as-is; anything else goes through a byte-op
// decoder over a small ID space. Either way the stream is then filtered
// through a scratch sequential engine so only changes that stage cleanly
// survive — staging is identical across engines, so the surviving stream
// applies cleanly everywhere and the fuzz target compares behaviour, not
// error strings.
func decodeFuzzStream(data []byte) []graph.Change {
	cs, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil || len(cs) == 0 {
		cs = cs[:0]
		for i := 0; i+2 < len(data) && len(cs) < fuzzMaxChanges; i += 3 {
			u := graph.NodeID(data[i+1] % 48)
			v := graph.NodeID(data[i+2] % 48)
			switch data[i] % 8 {
			case 0:
				cs = append(cs, graph.NodeChange(graph.NodeInsert, u))
			case 1:
				cs = append(cs, graph.NodeChange(graph.NodeInsert, u, v))
			case 2:
				cs = append(cs, graph.NodeChange(graph.NodeDeleteAbrupt, u))
			case 3:
				cs = append(cs, graph.NodeChange(graph.NodeDeleteGraceful, u))
			case 4:
				cs = append(cs, graph.EdgeChange(graph.EdgeInsert, u, v))
			case 5:
				cs = append(cs, graph.EdgeChange(graph.EdgeDeleteAbrupt, u, v))
			case 6:
				cs = append(cs, graph.NodeChange(graph.NodeMute, u))
			case 7:
				cs = append(cs, graph.NodeChange(graph.NodeUnmute, u, v))
			}
		}
	}
	if len(cs) > fuzzMaxChanges {
		cs = cs[:fuzzMaxChanges]
	}
	scratch := core.NewTemplate(1)
	valid := cs[:0]
	for _, c := range cs {
		if _, err := scratch.Apply(c); err == nil {
			valid = append(valid, c)
		}
	}
	return valid
}

// FuzzShardedEquivalence fuzzes the core claim the sharded engine rests
// on: for any valid change stream, any shard count, any window size and
// any GOMAXPROCS, the final state and graph are identical to the
// per-change sequential Template (history independence), and the
// published event feed is byte-identical to the sequential engine
// applying the same windows — Seq, Node, From, To and Cause all equal.
func FuzzShardedEquivalence(f *testing.F) {
	// Corpus: real workload streams in trace encoding, so the mutator
	// starts from structurally meaningful inputs.
	seedStream := func(cs []graph.Change) []byte {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, slices.Values(cs)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := rand.New(rand.NewPCG(61, 67))
	gnp := workload.GNP(rng, 40, 0.1)
	churn := append(slices.Clone(gnp), workload.RandomChurn(rng, workload.BuildGraph(gnp), workload.DefaultChurn(300))...)
	f.Add(seedStream(gnp), uint64(42), uint8(4), uint8(16), uint8(2))
	f.Add(seedStream(churn), uint64(7), uint8(8), uint8(7), uint8(4))
	f.Add(seedStream(workload.Path(64)), uint64(3), uint8(3), uint8(64), uint8(1))
	f.Add([]byte{0, 1, 0, 0, 2, 0, 4, 1, 2, 1, 3, 1}, uint64(1), uint8(2), uint8(1), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, seed uint64, shardsB, windowB, procsB uint8) {
		cs := decodeFuzzStream(data)
		if len(cs) == 0 {
			t.Skip("no valid changes decoded")
		}
		shards := int(shardsB)%8 + 1
		window := int(windowB)%64 + 1
		procs := int(procsB)%4 + 1
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

		// Per-change sequential oracle for the final structure.
		ref := core.NewTemplate(seed)
		if _, err := ref.ApplyAll(cs); err != nil {
			t.Fatalf("sequential oracle rejected a sanitized stream: %v", err)
		}

		// Windowed sequential engine for the event-feed oracle: engines
		// publish per-window net deltas, so equal windows must yield the
		// identical event stream.
		wtpl := core.NewTemplate(seed)
		var wantEvents []core.Event
		wtpl.Subscribe(func(ev core.Event) { wantEvents = append(wantEvents, ev) })

		e := New(seed, shards)
		e.par.forceParallel = procs > 1
		var gotEvents []core.Event
		e.Subscribe(func(ev core.Event) { gotEvents = append(gotEvents, ev) })

		for lo := 0; lo < len(cs); lo += window {
			hi := min(lo+window, len(cs))
			if _, err := wtpl.ApplyBatch(cs[lo:hi]); err != nil {
				t.Fatalf("windowed template window at %d: %v", lo, err)
			}
			if _, err := e.ApplyBatch(cs[lo:hi]); err != nil {
				t.Fatalf("sharded window at %d: %v", lo, err)
			}
		}

		if err := e.Check(); err != nil {
			t.Fatalf("invariant violated (shards=%d window=%d procs=%d): %v", shards, window, procs, err)
		}
		if !core.EqualStates(ref.State(), e.State()) {
			t.Fatalf("final state diverged from sequential (shards=%d window=%d procs=%d)", shards, window, procs)
		}
		if !ref.Graph().Equal(e.Graph()) {
			t.Fatalf("graph diverged from sequential (shards=%d window=%d procs=%d)", shards, window, procs)
		}
		if !reflect.DeepEqual(wantEvents, gotEvents) {
			t.Fatalf("event feed diverged (shards=%d window=%d procs=%d):\n got %d events %v\nwant %d events %v",
				shards, window, procs, len(gotEvents), gotEvents, len(wantEvents), wantEvents)
		}
	})
}
