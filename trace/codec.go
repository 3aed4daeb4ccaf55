package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"dynmis/internal/graph"
)

// The change codec: every change that enters or leaves the package — a
// trace line, a WAL record, a dynmis/server request body — goes through
// the functions below. Canonical bytes (what AppendChange writes, for
// IDs of at most 18 digits) decode by hand; any other input falls back to
// encoding/json, so every spelling it accepts decodes to the same change
// and every record it refuses fails with the same error text.

// record is the encoding/json form of one change, the decoder of every
// non-canonical spelling. Kind strings are the canonical ChangeKind
// names; node/edge fields mirror graph.Change.
type record struct {
	Kind string         `json:"k"`
	U    *graph.NodeID  `json:"u,omitempty"`
	V    *graph.NodeID  `json:"v,omitempty"`
	Node *graph.NodeID  `json:"n,omitempty"`
	Eds  []graph.NodeID `json:"e,omitempty"`
}

// kindNames maps the wire strings back to change kinds; the forward
// direction is ChangeKind.String.
var kindNames = func() map[string]graph.ChangeKind {
	m := make(map[string]graph.ChangeKind)
	for _, k := range []graph.ChangeKind{
		graph.EdgeInsert, graph.EdgeDeleteGraceful, graph.EdgeDeleteAbrupt,
		graph.NodeInsert, graph.NodeDeleteGraceful, graph.NodeDeleteAbrupt,
		graph.NodeMute, graph.NodeUnmute,
	} {
		m[k.String()] = k
	}
	return m
}()

// decodeRecord converts a wire record back into a change.
func decodeRecord(rec record) (graph.Change, error) {
	kind, ok := kindNames[rec.Kind]
	if !ok {
		return graph.Change{}, fmt.Errorf("unknown change kind %q", rec.Kind)
	}
	if kind.IsEdge() {
		if rec.U == nil || rec.V == nil {
			return graph.Change{}, fmt.Errorf("%s without endpoints", rec.Kind)
		}
		return graph.EdgeChange(kind, *rec.U, *rec.V), nil
	}
	if rec.Node == nil {
		return graph.Change{}, fmt.Errorf("%s without node", rec.Kind)
	}
	return graph.NodeChange(kind, *rec.Node, rec.Eds...), nil
}

// AppendChange appends the canonical single-line JSON record of c to dst,
// without a trailing newline, and returns the extended slice: fixed key
// order, `u`/`v` for an edge change, `n` and a non-empty `e` for a node
// change. A kind name never needs JSON escaping, so these are the bytes
// encoding/json writes for the record.
func AppendChange(dst []byte, c graph.Change) []byte {
	dst = append(dst, `{"k":"`...)
	dst = append(dst, c.Kind.String()...)
	if c.Kind.IsEdge() {
		dst = append(dst, `","u":`...)
		dst = strconv.AppendInt(dst, int64(c.U), 10)
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(c.V), 10)
		return append(dst, '}')
	}
	dst = append(dst, `","n":`...)
	dst = strconv.AppendInt(dst, int64(c.Node), 10)
	if len(c.Edges) > 0 {
		dst = append(dst, `,"e":[`...)
		for i, e := range c.Edges {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(e), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// MarshalChange encodes one change as its canonical single-line JSON
// record, without a trailing newline — the same bytes a Writer emits for
// it. It is the wire form the dynmis/server ingestion endpoints accept,
// so "a line of a trace file" and "a change on the wire" are one format.
func MarshalChange(c graph.Change) ([]byte, error) {
	return AppendChange(nil, c), nil
}

// UnmarshalChange decodes one JSON change record (one trace line after
// the header).
func UnmarshalChange(data []byte) (graph.Change, error) {
	c, _, err := unmarshal(data)
	if err != nil {
		return graph.Change{}, fmt.Errorf("trace: decode change: %w", err)
	}
	return c, nil
}

// UnmarshalChanges decodes a request body of the wire format: one change
// record, or a JSON array of them. A canonical array — `[`, canonical
// records separated by `,`, `]`, nothing else — decodes in one pass; any
// other body is decoded in two, the array into raw records and then each
// record, so a body that is malformed anywhere is refused whole. Errors
// name where decoding failed as the dynmis/server endpoints report it:
// "decode array: …" for a body that is not a JSON array of values, and
// "change i: …" for the first element that is no valid change record.
func UnmarshalChanges(body []byte) ([]graph.Change, error) {
	if len(body) == 0 || body[0] != '[' {
		c, err := UnmarshalChange(body)
		if err != nil {
			return nil, fmt.Errorf("change 0: %w", err)
		}
		return []graph.Change{c}, nil
	}
	if cs, ok := decodeCanonicalArray(body); ok {
		return cs, nil
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		return nil, fmt.Errorf("decode array: %w", err)
	}
	cs := make([]graph.Change, 0, len(raws))
	for i, raw := range raws {
		c, err := UnmarshalChange(raw)
		if err != nil {
			return nil, fmt.Errorf("change %d: %w", i, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// unmarshal decodes one change record: canonical bytes by hand, anything
// else through encoding/json. jsonErr reports that err came from
// encoding/json — the bytes are no JSON record, as a torn line is not —
// rather than from a well-formed record that names no valid change.
func unmarshal(data []byte) (c graph.Change, jsonErr bool, err error) {
	if c, ok := decodeCanonical(data); ok {
		return c, false, nil
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return graph.Change{}, true, err
	}
	c, err = decodeRecord(rec)
	return c, false, err
}

// decodeCanonical decodes data if it is exactly one canonical record.
func decodeCanonical(data []byte) (graph.Change, bool) {
	p := canon{data: data, ok: true}
	c := p.change()
	return c, p.ok && p.i == len(data)
}

// decodeCanonicalArray decodes body if it is exactly a canonical array:
// `[`, canonical records separated by `,`, `]`.
func decodeCanonicalArray(body []byte) ([]graph.Change, bool) {
	p := canon{data: body, ok: true}
	p.lit(`[`)
	if !p.ok {
		return nil, false
	}
	cs := make([]graph.Change, 0, bytes.Count(body, []byte(`{"k":`)))
	if !p.next(']') {
		for p.ok {
			cs = append(cs, p.change())
			if !p.next(',') {
				break
			}
		}
		p.lit(`]`)
	}
	return cs, p.ok && p.i == len(body)
}

// canon is a cursor over canonical record bytes. ok turns false at the
// first byte outside the canonical grammar and stays false; every method
// is then a no-op, so a decoder reads as the grammar it accepts.
type canon struct {
	data []byte
	i    int
	ok   bool
}

// change decodes the record at the cursor: exactly what AppendChange
// writes for a change of a known kind — keys in order, no whitespace, a
// kind name without escapes, integers of at most 18 digits (so no int64
// overflow) and no empty `e` array.
func (p *canon) change() graph.Change {
	p.lit(`{"k":"`)
	kind := p.kind()
	if kind.IsEdge() {
		p.lit(`,"u":`)
		u := p.id()
		p.lit(`,"v":`)
		v := p.id()
		p.lit(`}`)
		return graph.EdgeChange(kind, u, v)
	}
	p.lit(`,"n":`)
	n := p.id()
	if p.next('}') {
		return graph.NodeChange(kind, n)
	}
	p.lit(`,"e":[`)
	if !p.ok {
		return graph.Change{}
	}
	// Size the slice by the commas before the next ']': exact for a
	// canonical array, and a wrong guess only when decoding fails anyway.
	size := 1
	for _, b := range p.data[p.i:] {
		if b == ']' {
			break
		}
		if b == ',' {
			size++
		}
	}
	edges := make([]graph.NodeID, 0, size)
	for p.ok {
		edges = append(edges, p.id())
		if !p.next(',') {
			break
		}
	}
	p.lit(`]}`)
	return graph.NodeChange(kind, n, edges...)
}

// lit consumes the literal s.
func (p *canon) lit(s string) {
	if p.ok && len(p.data)-p.i >= len(s) && string(p.data[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return
	}
	p.ok = false
}

// next consumes the byte b if it is next, and reports whether it was.
func (p *canon) next(b byte) bool {
	if p.ok && p.i < len(p.data) && p.data[p.i] == b {
		p.i++
		return true
	}
	return false
}

// kind consumes a known kind name and its closing quote.
func (p *canon) kind() graph.ChangeKind {
	if !p.ok {
		return 0
	}
	end := bytes.IndexByte(p.data[p.i:], '"')
	if end < 0 {
		p.ok = false
		return 0
	}
	kind, known := kindNames[string(p.data[p.i:p.i+end])]
	p.i += end + 1
	p.ok = known
	return kind
}

// id consumes an integer spelled canonically: -?(0|[1-9][0-9]*) with at
// most 18 digits, and not -0.
func (p *canon) id() graph.NodeID {
	if !p.ok {
		return 0
	}
	neg := p.next('-')
	start := p.i
	var v int64
	for p.i < len(p.data) && p.i-start < 19 && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		v = v*10 + int64(p.data[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > 18 || (p.data[start] == '0' && (digits > 1 || neg)) {
		p.ok = false
		return 0
	}
	if neg {
		v = -v
	}
	return graph.NodeID(v)
}
