package core

import (
	"testing"

	"dynmis/internal/graph"
)

// FuzzTemplateChurn interprets fuzz bytes as a change program over a
// bounded node universe, applied per change or in ApplyBatch windows,
// and asserts the engine's safety properties after every Apply and every
// window: the MIS invariant holds, the state equals the greedy oracle,
// the Report's adjustments equal the state diff, and the published feed
// replays to the state. A rejected Apply must leave the engine unchanged;
// a rejected window keeps its recovered prefix. Run the seed corpus with
// `go test`; fuzz with `go test -fuzz FuzzTemplateChurn ./internal/core`.
func FuzzTemplateChurn(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0, 2, 1, 0x12, 4, 1})
	f.Add(uint64(2), []byte{0, 1, 0, 2, 0, 3, 1, 0x12, 1, 0x13, 1, 0x23, 3, 1, 5, 2})
	f.Add(uint64(3), []byte{0, 5, 0, 6, 1, 0x56, 2, 0x56, 0, 5})
	f.Add(uint64(4), []byte{0, 1, 0, 2, 0, 3, 6, 0x24, 1, 2, 3, 7, 3, 3, 1, 3, 2, 6, 0x11, 4, 2, 0, 4})
	f.Add(uint64(5), []byte{7, 7, 0, 1, 0, 2, 6, 0x33, 1, 2, 2, 5, 1, 3, 3, 6, 0x13, 1, 2, 3, 5, 9})

	f.Fuzz(func(t *testing.T, seed uint64, program []byte) {
		eng := NewTemplate(seed)
		var evs []Event
		eng.Subscribe(func(ev Event) { evs = append(evs, ev) })
		const universe = 16

		// run applies one Apply or window and checks it against the state
		// before it and the events it published.
		run := func(cs []graph.Change, batch bool) {
			before, published := eng.State(), len(evs)
			var rep Report
			var err error
			if batch {
				rep, err = eng.ApplyBatch(cs)
			} else {
				rep, err = eng.Apply(cs[0])
			}
			after := eng.State()
			if err != nil && !batch && !EqualStates(before, after) {
				t.Fatalf("rejected change %s mutated the engine", cs[0])
			}
			if err := eng.Check(); err != nil {
				t.Fatalf("after %v: %v", cs, err)
			}
			if !EqualStates(after, GreedyMIS(eng.Graph().Clone(), eng.Order())) {
				t.Fatalf("after %v: state diverged from the greedy oracle", cs)
			}
			if err == nil && rep.Adjustments != len(DiffStates(before, after)) {
				t.Fatalf("after %v: %d adjustments, state diff %v", cs, rep.Adjustments, DiffStates(before, after))
			}
			if !EqualStates(Replay(evs), after) {
				t.Fatalf("after %v: feed %v does not replay to the state", cs, evs[published:])
			}
		}

		var window []graph.Change
		open := 0 // changes still to collect into the open window
		for i := 0; i+1 < len(program); i += 2 {
			op := program[i] % 8
			arg := program[i+1]
			var c graph.Change
			switch op {
			case 0: // insert isolated node
				c = graph.NodeChange(graph.NodeInsert, graph.NodeID(arg%universe))
			case 1: // insert edge (arg encodes both endpoints)
				c = graph.EdgeChange(graph.EdgeInsert,
					graph.NodeID(arg>>4), graph.NodeID(arg&0x0f))
			case 2: // delete edge
				c = graph.EdgeChange(graph.EdgeDeleteAbrupt,
					graph.NodeID(arg>>4), graph.NodeID(arg&0x0f))
			case 3: // delete node
				c = graph.NodeChange(graph.NodeDeleteGraceful, graph.NodeID(arg%universe))
			case 4: // insert node attached to one neighbor
				c = graph.NodeChange(graph.NodeInsert,
					graph.NodeID(arg>>4), graph.NodeID(arg&0x0f))
			case 5: // abrupt node delete
				c = graph.NodeChange(graph.NodeDeleteAbrupt, graph.NodeID(arg%universe))
			case 6: // insert node arg&0x0f attached to the next (arg>>4)%4+1 bytes' nodes
				c = graph.NodeChange(graph.NodeInsert, graph.NodeID(arg&0x0f))
				for k := int(arg>>4)%4 + 1; k > 0 && i+2 < len(program); k-- {
					c.Edges = append(c.Edges, graph.NodeID(program[i+2]%universe))
					i++
				}
			default: // open an ApplyBatch window of the next arg%8+2 changes
				if len(window) > 0 {
					run(window, true)
				}
				window, open = window[:0], int(arg%8)+2
				continue
			}
			if open == 0 {
				run([]graph.Change{c}, false)
				continue
			}
			window = append(window, c)
			if open--; open == 0 {
				run(window, true)
				window = window[:0]
			}
		}
		if len(window) > 0 {
			run(window, true)
		}
	})
}
