package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	"dynmis/internal/graph"
	"dynmis/workload"
)

// encodeRecord builds the encoding/json form of one change: AppendChange
// must write exactly the bytes json.Marshal writes for it.
func encodeRecord(c graph.Change) record {
	rec := record{Kind: c.Kind.String()}
	if c.Kind.IsEdge() {
		u, v := c.U, c.V
		rec.U, rec.V = &u, &v
	} else {
		n := c.Node
		rec.Node = &n
		rec.Eds = c.Edges
	}
	return rec
}

// jsonUnmarshalChange is UnmarshalChange on encoding/json alone; jsonErr
// reports that json.Unmarshal itself failed.
func jsonUnmarshalChange(data []byte) (c graph.Change, jsonErr bool, err error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return graph.Change{}, true, fmt.Errorf("trace: decode change: %w", err)
	}
	if c, err = decodeRecord(rec); err != nil {
		return graph.Change{}, false, fmt.Errorf("trace: decode change: %w", err)
	}
	return c, false, nil
}

// jsonUnmarshalChanges is the two-pass body decode on encoding/json
// alone: the array into raw records, then each record.
func jsonUnmarshalChanges(body []byte) ([]graph.Change, error) {
	if len(body) == 0 || body[0] != '[' {
		c, _, err := jsonUnmarshalChange(body)
		if err != nil {
			return nil, fmt.Errorf("change 0: %v", err)
		}
		return []graph.Change{c}, nil
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		return nil, fmt.Errorf("decode array: %v", err)
	}
	cs := make([]graph.Change, 0, len(raws))
	for i, raw := range raws {
		c, _, err := jsonUnmarshalChange(raw)
		if err != nil {
			return nil, fmt.Errorf("change %d: %v", i, err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// canonicalBody renders cs as a canonical array body.
func canonicalBody(cs []graph.Change) []byte {
	body := []byte{'['}
	for i, c := range cs {
		if i > 0 {
			body = append(body, ',')
		}
		body = AppendChange(body, c)
	}
	return append(body, ']')
}

// fallbackRecords are spellings encoding/json accepts (or refuses) that
// the canonical fast path must leave to it.
var fallbackRecords = []string{
	`{"k": "node-insert","n":1}`,
	"{\"k\":\"node-insert\",\"n\":1}\n",
	`{"k":"node-insert","n":1,"x":2}`,
	`{"K":"node-insert","N":1}`,
	`{"k":"edge-insert","U":1,"v":2}`,
	`{"k":"node-insert","n":null}`,
	`null`,
	`{"k":"node\u002dinsert","n":1}`,
	`{"k":"node-insert","n":1,"e":[]}`,
	`{"k":"node-insert","n":1,"e":null}`,
	`{"k":"edge-insert","u":1.0,"v":2}`,
	`{"k":"edge-insert","u":1e3,"v":2}`,
	`{"k":"edge-insert","u":1234567890123456789,"v":2}`,
	`{"k":"edge-insert","u":9223372036854775808,"v":2}`,
	`{"k":"edge-insert","u":-0,"v":2}`,
	`{"k":"edge-insert","u":01,"v":2}`,
	`{"n":1,"k":"node-insert"}`,
	`{"k":"node-insert","n":1,"n":2}`,
	`{"k":"node-insert","n":1}x`,
	`{"k":"edge-insert","n":1}`,
	`{"k":"node-insert","u":1,"v":2}`,
	`{"k":"node-teleport","n":1}`,
	`{"k":"edge-insert","u":1,"v":2`,
	`{"k":"node-insert","n":"1"}`,
	`{"k":"node-insert","n":1,"e":[1,2,]}`,
	``,
	`[]`,
	`[ ]`,
	`[{"k":"node-insert","n":1}, {"k":"node-insert","n":2}]`,
	`[{"k":"node-insert","n":1},]`,
	`[{"k":"node-insert","n":1}`,
	`[1]`,
}

func TestAppendChangeMatchesEncodingJSON(t *testing.T) {
	cs := append(sample(),
		graph.EdgeChange(graph.EdgeInsert, -9223372036854775808, 9223372036854775807),
		graph.NodeChange(graph.NodeInsert, 0, -1, 0, 1<<62),
		graph.NodeChange(graph.NodeInsert, 5, []graph.NodeID{}...),
		graph.Change{Kind: 0, Node: 3},
		graph.Change{Kind: 200, U: 1, V: 2, Edges: []graph.NodeID{4}},
	)
	for _, c := range cs {
		want, err := json.Marshal(encodeRecord(c))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendChange(nil, c); !bytes.Equal(got, want) {
			t.Errorf("%v: AppendChange %s, encoding/json %s", c, got, want)
		}
		if got, _ := MarshalChange(c); !bytes.Equal(got, want) {
			t.Errorf("%v: MarshalChange %s, encoding/json %s", c, got, want)
		}
	}
	if want, _ := json.Marshal(header{Schema: Schema}); headerLine != string(want)+"\n" {
		t.Errorf("header line %q, encoding/json %q", headerLine, want)
	}
}

// TestCanonicalFastPath pins which inputs skip encoding/json: every record
// AppendChange writes (with integers of at most 18 digits) and canonical
// array bodies decode by hand; the fallback spellings do not.
func TestCanonicalFastPath(t *testing.T) {
	cs := append(sample(), graph.NodeChange(graph.NodeInsert, -1, 999999999999999999, -999999999999999999))
	for _, c := range cs {
		rec := AppendChange(nil, c)
		got, ok := decodeCanonical(rec)
		if !ok {
			t.Fatalf("%s: canonical record not decoded by the fast path", rec)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%s: fast path decoded %#v, want %#v", rec, got, c)
		}
	}
	if got, ok := decodeCanonicalArray(canonicalBody(cs)); !ok || !reflect.DeepEqual(got, cs) {
		t.Fatalf("canonical array body: ok=%v, %v", ok, got)
	}
	if _, ok := decodeCanonicalArray([]byte(`[]`)); !ok {
		t.Fatal("empty array body not decoded by the fast path")
	}
	for _, s := range fallbackRecords {
		if _, ok := decodeCanonical([]byte(s)); ok {
			t.Errorf("%q: decoded by the fast path", s)
		}
		if s != `[]` {
			if _, ok := decodeCanonicalArray([]byte(s)); ok {
				t.Errorf("%q: decoded as a canonical array", s)
			}
		}
	}
}

// FuzzChangeCodec is the codec's differential wall: on arbitrary bytes,
// the canonical fast path with its encoding/json fallback must accept and
// reject what encoding/json alone does, decode to reflect.DeepEqual
// changes with the same error text and the same torn-line class (a JSON
// error, which a torn WAL tail forgives, or a bad record, which it does
// not), and re-encode byte-stably to the bytes json.Marshal writes. The
// input also runs as request bodies — as is, and wrapped in one- and
// two-element arrays — against the two-pass decode of the array into raw
// records. Whatever the fast path accepts must be exactly canonical.
func FuzzChangeCodec(f *testing.F) {
	for _, c := range sample() {
		f.Add(AppendChange(nil, c))
	}
	f.Add(canonicalBody(sample()))
	for _, s := range fallbackRecords {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, jsonErr, err := unmarshal(data)
		want, wantJSONErr, werr := jsonUnmarshalChange(data)
		if (err == nil) != (werr == nil) || jsonErr != wantJSONErr {
			t.Fatalf("%q: codec err %v (json error %v), encoding/json err %v (json error %v)",
				data, err, jsonErr, werr, wantJSONErr)
		}
		if _, err := UnmarshalChange(data); fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%q: error text %q, want %q", data, fmt.Sprint(err), fmt.Sprint(werr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %#v, encoding/json %#v", data, got, want)
		}
		if c, ok := decodeCanonical(data); ok && !bytes.Equal(AppendChange(nil, c), data) {
			t.Fatalf("%q: fast path accepted a non-canonical record", data)
		}
		if err == nil {
			checkReencode(t, got)
		}

		for _, body := range [][]byte{
			data,
			fmt.Appendf(nil, "[%s]", data),
			fmt.Appendf(nil, "[%s,%s]", data, data),
		} {
			cs, err := UnmarshalChanges(body)
			wcs, werr := jsonUnmarshalChanges(body)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("body %q: error %q, two-pass decode %q", body, fmt.Sprint(err), fmt.Sprint(werr))
			}
			if !reflect.DeepEqual(cs, wcs) {
				t.Fatalf("body %q: decoded %#v, two-pass decode %#v", body, cs, wcs)
			}
			if fast, ok := decodeCanonicalArray(body); ok && !bytes.Equal(canonicalBody(fast), body) {
				t.Fatalf("body %q: fast path accepted a non-canonical array", body)
			}
			for _, c := range cs {
				checkReencode(t, c)
			}
		}
	})
}

// checkReencode asserts AppendChange(c) is what json.Marshal writes for
// c's record and survives decode and re-encode byte for byte.
func checkReencode(t *testing.T, c graph.Change) {
	t.Helper()
	enc := AppendChange(nil, c)
	ref, err := json.Marshal(encodeRecord(c))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("%#v: AppendChange %s, encoding/json %s", c, enc, ref)
	}
	back, err := UnmarshalChange(enc)
	if err != nil {
		t.Fatalf("%s: canonical record does not decode: %v", enc, err)
	}
	if again := AppendChange(nil, back); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not byte-stable: %s then %s", enc, again)
	}
}

// codecChanges is a warmed-up churn stream: node insertions with edges,
// node deletions and edge changes in workload proportions.
func codecChanges(n int) []graph.Change {
	rng := workload.Rand(3)
	build := workload.GNP(rng, 400, 0.02)
	drive := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(n))
	return append(build, drive...)[:n]
}

// BenchmarkWALAppend is a write-ahead-log append: Writer.Write of warmed
// canonical node and edge changes into a discarding writer. make
// bench-alloc gates it at 0 allocs/op.
func BenchmarkWALAppend(b *testing.B) {
	cs := codecChanges(1024)
	w := NewContinuation(io.Discard)
	for _, c := range cs {
		if err := w.Write(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(cs[i%len(cs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChangeCodec prices one change of a 1024-change request body
// through the codec and through encoding/json alone.
func BenchmarkChangeCodec(b *testing.B) {
	cs := codecChanges(1024)
	body := canonicalBody(cs)
	perChange := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cs)), "ns/change")
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalChanges(body); err != nil {
				b.Fatal(err)
			}
		}
		perChange(b)
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jsonUnmarshalChanges(body); err != nil {
				b.Fatal(err)
			}
		}
		perChange(b)
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, c := range cs {
				buf = AppendChange(buf, c)
			}
		}
		perChange(b)
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cs {
				if _, err := json.Marshal(encodeRecord(c)); err != nil {
					b.Fatal(err)
				}
			}
		}
		perChange(b)
	})
}
