package core

import (
	"cmp"
	"io"
	"iter"
	"slices"
	"strconv"

	"dynmis/internal/graph"
)

// Image is a frozen copy of a maintained structure: the graph, the
// priorities and the memberships as they stood when Freeze was called,
// still in the arena lanes they live in. Taking it copies slices and does
// nothing else, so it fits under a lock that must stay short. What a
// Snapshot costs beyond that — ordering the nodes by ID, sorting each
// neighbor list, encoding — is paid when the image is read, after the
// lock is released, while the engine keeps changing. History
// independence (Definition 14) is why the copy suffices: the structure is
// a function of the graph and π alone, so the image is a complete
// recovery point however late it is read.
type Image struct {
	g *graph.Frozen
}

// Freeze captures the engine's current stable state as an Image.
func (t *Template) Freeze() *Image { return &Image{g: t.g.Freeze()} }

// NodeCount returns the number of nodes in the image.
func (im *Image) NodeCount() int { return im.g.NodeCount() }

// Nodes iterates over the image's nodes in ascending ID order, with
// their memberships.
func (im *Image) Nodes() iter.Seq2[graph.NodeID, Membership] {
	return func(yield func(graph.NodeID, Membership) bool) {
		for _, i := range im.sorted() {
			if !yield(im.g.IDAt(int(i)), im.g.StateAt(int(i)) != 0) {
				return
			}
		}
	}
}

// sorted returns the occupied slots in ascending ID order.
func (im *Image) sorted() []int32 {
	out := make([]int32, 0, im.g.NodeCount())
	for i := range im.g.Slots() {
		if im.g.IDAt(i) != graph.None {
			out = append(out, int32(i))
		}
	}
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(im.g.IDAt(int(a)), im.g.IDAt(int(b))) })
	return out
}

// imageChunk is how many encoded bytes WriteJSON gathers per Write.
const imageChunk = 64 << 10

// WriteJSON writes the image as the JSON encoding of the Snapshot that
// Template.Snapshot returned when the image was taken, byte for byte,
// without building that Snapshot: the nodes in ID order, then every edge
// once as [u,v] with u < v, in lexicographic order — each node's
// larger-ID neighbors, sorted. It hands w chunks of about 64 KiB.
func (im *Image) WriteJSON(w io.Writer) error {
	g := im.g
	order := im.sorted()
	buf := make([]byte, 0, imageChunk+128)
	flush := func(at int) error {
		if len(buf) < at {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}

	if len(order) == 0 {
		buf = append(buf, `{"nodes":null`...) // Snapshot.Nodes stays nil
	} else {
		buf = append(buf, `{"nodes":[`...)
		for k, i := range order {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"id":`...)
			buf = strconv.AppendInt(buf, int64(g.IDAt(int(i))), 10)
			buf = append(buf, `,"priority":`...)
			buf = strconv.AppendUint(buf, g.PrioAt(int(i)), 10)
			buf = append(buf, `,"in_mis":`...)
			buf = strconv.AppendBool(buf, g.StateAt(int(i)) != 0)
			buf = append(buf, '}')
			if err := flush(imageChunk); err != nil {
				return err
			}
		}
		buf = append(buf, ']')
	}

	buf = append(buf, `,"edges":[`...)
	first := true
	var larger []graph.NodeID
	for _, i := range order {
		u := g.IDAt(int(i))
		larger = larger[:0]
		for _, j := range g.NeighborSlots(int(i)) {
			if v := g.IDAt(int(j)); v > u {
				larger = append(larger, v)
			}
		}
		slices.Sort(larger)
		for _, v := range larger {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ']')
		}
		if err := flush(imageChunk); err != nil {
			return err
		}
	}
	buf = append(buf, "]}"...)
	return flush(0)
}
