package core_test // see batch_test.go for why these tests are external

import (
	. "dynmis/internal/core"

	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"dynmis/internal/graph"
	"dynmis/internal/shard"
	"dynmis/workload"
)

// snapshotEngine is an engine with the persistence capability.
type snapshotEngine interface {
	Engine
	Snapshotter
}

// TestImageWriteJSONMatchesSnapshot holds the streamed image to
// json.Marshal of the Snapshot taken at the same point, byte for byte, on
// the template and the sharded engine: an empty graph ("nodes":null), a
// graph drained back to empty, one node, and a churned big-geometric
// field with recycled slots and spill blocks. The image is frozen: the
// changes applied after Freeze must not reach it.
func TestImageWriteJSONMatchesSnapshot(t *testing.T) {
	sc, err := workload.BigScenarioByName("big-geometric")
	if err != nil {
		t.Fatal(err)
	}
	buildSeq, driveSeq := sc.Streams(workload.Rand(3), 2000, 9000)
	build := slices.Collect(buildSeq)
	drive := slices.Collect(driveSeq)
	// A path of fresh nodes: valid after every case below.
	path := make([]graph.Change, 50)
	for i := range path {
		v := graph.NodeID(1_000_000 + i)
		if i == 0 {
			path[i] = graph.NodeChange(graph.NodeInsert, v)
		} else {
			path[i] = graph.NodeChange(graph.NodeInsert, v, v-1)
		}
	}
	drained := []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1), graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeDeleteAbrupt, 1), graph.NodeChange(graph.NodeDeleteGraceful, 2),
	}
	cases := []struct {
		name          string
		before, after []graph.Change
		want          string // the exact document, where it is short
	}{
		{"empty", nil, path, `{"nodes":null,"edges":[]}`},
		{"drained", drained, path, `{"nodes":null,"edges":[]}`},
		{"one-node", []graph.Change{graph.NodeChange(graph.NodeInsert, 5)}, path, ""},
		{"big-geometric", slices.Concat(build, drive[:6000]), drive[6000:], ""},
	}
	engines := []struct {
		name string
		mk   func() snapshotEngine
	}{
		{"template", func() snapshotEngine { return NewTemplate(1) }},
		{"sharded", func() snapshotEngine { return shard.New(1, 2) }},
	}
	for _, ec := range engines {
		for _, tc := range cases {
			t.Run(ec.name+"/"+tc.name, func(t *testing.T) {
				e := ec.mk()
				if _, err := e.ApplyAll(tc.before); err != nil {
					t.Fatal(err)
				}
				img := e.Freeze()
				want, err := json.Marshal(e.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				state := e.State()
				if _, err := e.ApplyAll(tc.after); err != nil {
					t.Fatal(err)
				}

				var got bytes.Buffer
				if err := img.WriteJSON(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("streamed image differs from json.Marshal(Snapshot()):\n got %.300s\nwant %.300s", got.Bytes(), want)
				}
				if tc.want != "" && got.String() != tc.want {
					t.Fatalf("image %s, want %s", got.Bytes(), tc.want)
				}

				if img.NodeCount() != len(state) {
					t.Fatalf("image holds %d nodes, engine held %d", img.NodeCount(), len(state))
				}
				var prev graph.NodeID
				k := 0
				for v, m := range img.Nodes() {
					if k > 0 && v <= prev {
						t.Fatalf("Nodes out of order: %d after %d", v, prev)
					}
					if sm, ok := state[v]; !ok || sm != m {
						t.Fatalf("Nodes yields %d as %v, engine held %v (present %v)", v, m, sm, ok)
					}
					prev = v
					k++
				}
				if k != len(state) {
					t.Fatalf("Nodes yielded %d nodes, want %d", k, len(state))
				}
			})
		}
	}
}

// failWriter fails every write.
type failWriter struct{}

var errFail = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

// TestImageWriteJSONReportsWriteError: the writer's error is returned.
func TestImageWriteJSONReportsWriteError(t *testing.T) {
	e := NewTemplate(1)
	if _, err := e.Apply(graph.NodeChange(graph.NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Freeze().WriteJSON(failWriter{}); !errors.Is(err, errFail) {
		t.Fatalf("WriteJSON to a failing writer: err = %v, want %v", err, errFail)
	}
}
