package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"dynmis/internal/graph"
	"dynmis/workload"
)

// sample covers every change kind, including empty and multi-neighbor
// insertions.
func sample() []graph.Change {
	return []graph.Change{
		graph.NodeChange(graph.NodeInsert, 1),
		graph.NodeChange(graph.NodeInsert, 2, 1),
		graph.NodeChange(graph.NodeInsert, 3, 1, 2),
		graph.EdgeChange(graph.EdgeInsert, 1, 3),
		graph.EdgeChange(graph.EdgeDeleteGraceful, 1, 2),
		graph.EdgeChange(graph.EdgeDeleteAbrupt, 1, 3),
		graph.NodeChange(graph.NodeMute, 2),
		graph.NodeChange(graph.NodeUnmute, 2, 3),
		graph.NodeChange(graph.NodeDeleteGraceful, 3),
		graph.NodeChange(graph.NodeDeleteAbrupt, 2),
	}
}

func TestRoundTrip(t *testing.T) {
	cs := sample()
	var buf bytes.Buffer
	if err := WriteAll(&buf, slices.Values(cs)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !changesEqual(got, cs) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, cs)
	}

	// Re-encoding the decoded stream must reproduce the file byte for
	// byte: the encoding is canonical.
	var buf2 bytes.Buffer
	if err := WriteAll(&buf2, slices.Values(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoding is not byte-identical:\n%q\nvs\n%q", buf.Bytes(), buf2.Bytes())
	}
}

func TestRoundTripWorkload(t *testing.T) {
	// A generated workload — the artifact -record captures — survives the
	// round trip change for change.
	rng := workload.Rand(7)
	build := workload.GNP(rng, 60, 0.05)
	drive := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(500))
	cs := append(append([]graph.Change{}, build...), drive...)

	var buf bytes.Buffer
	if err := WriteAll(&buf, slices.Values(cs)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !changesEqual(got, cs) {
		t.Fatalf("workload round trip mismatch: %d vs %d changes", len(got), len(cs))
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), Schema) {
		t.Fatalf("empty trace missing header: %q", buf.String())
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: got %v, %v", got, err)
	}
}

func TestSchemaRejection(t *testing.T) {
	for name, input := range map[string]string{
		"empty":      "",
		"wrongVer":   `{"schema":"dynmis-trace/v999"}` + "\n",
		"noSchema":   `{"k":"node-insert","n":1}` + "\n",
		"notJSON":    "plain text\n",
		"otherField": `{"hello":"world"}` + "\n",
	} {
		if _, err := ReadAll(strings.NewReader(input)); !errors.Is(err, ErrSchema) {
			t.Errorf("%s: want ErrSchema, got %v", name, err)
		}
	}
}

func TestMalformedRecords(t *testing.T) {
	head := `{"schema":"dynmis-trace/v1"}` + "\n"
	for name, line := range map[string]string{
		"unknownKind": `{"k":"node-teleport","n":1}`,
		"edgeNoEnds":  `{"k":"edge-insert"}`,
		"nodeNoNode":  `{"k":"node-insert"}`,
		"garbage":     `{{{`,
	} {
		_, err := ReadAll(strings.NewReader(head + line + "\n"))
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: want decode error, got %v", name, err)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader(strings.NewReader(`{"schema":"dynmis-trace/v1"}` + "\n" + `{"k":"bogus","n":1}` + "\n"))
	if _, err := r.Read(); err == nil {
		t.Fatal("want error")
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("error must be sticky")
	}
	if r.Err() == nil {
		t.Fatal("Err must report the sticky error")
	}
}

func TestAllStopsCleanlyAtEOF(t *testing.T) {
	cs := sample()
	var buf bytes.Buffer
	if err := WriteAll(&buf, slices.Values(cs)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got []graph.Change
	for c := range r.All() {
		got = append(got, c)
	}
	if r.Err() != nil {
		t.Fatalf("clean trace left Err = %v", r.Err())
	}
	if !changesEqual(got, cs) {
		t.Fatal("All mismatch")
	}
}

func TestTee(t *testing.T) {
	cs := sample()
	var rec bytes.Buffer
	w := NewWriter(&rec)

	var passed []graph.Change
	for c := range Tee(slices.Values(cs), w) {
		passed = append(passed, c)
	}
	if !changesEqual(passed, cs) {
		t.Fatal("Tee altered the stream")
	}
	got, err := ReadAll(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !changesEqual(got, cs) {
		t.Fatal("Tee recording mismatch")
	}
}

func TestTeeFlushesOnEarlyStop(t *testing.T) {
	cs := sample()
	var rec bytes.Buffer
	w := NewWriter(&rec)
	n := 0
	for range Tee(slices.Values(cs), w) {
		n++
		if n == 3 {
			break
		}
	}
	got, err := ReadAll(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !changesEqual(got, cs[:3]) {
		t.Fatalf("early stop recorded %d changes, want 3", len(got))
	}
}

// tornEncode encodes cs and truncates the output mid-way through the
// final record, simulating a crash during an append.
func tornEncode(t *testing.T, cs []graph.Change, cut int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, slices.Values(cs)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Cut inside the last line: drop the trailing newline plus cut bytes.
	if cut >= 0 && len(data) > cut+1 {
		data = data[:len(data)-1-cut]
	}
	return data
}

func TestTornTailTolerated(t *testing.T) {
	cs := sample()
	for _, cut := range []int{1, 3, 7} {
		data := tornEncode(t, cs, cut)
		// Default reader: the torn line is a sticky decode error.
		if _, err := ReadAll(bytes.NewReader(data)); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("cut=%d: default reader must fail on a torn tail", cut)
		}
		// Tolerant reader: the torn record is dropped, the prefix survives.
		r := NewReader(bytes.NewReader(data), TolerateTornTail())
		var got []graph.Change
		for {
			c, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cut=%d: tolerant reader failed: %v", cut, err)
			}
			got = append(got, c)
		}
		if !r.TornTail() {
			t.Fatalf("cut=%d: TornTail not reported", cut)
		}
		if !changesEqual(got, cs[:len(cs)-1]) {
			t.Fatalf("cut=%d: want the %d-change prefix, got %d changes", cut, len(cs)-1, len(got))
		}
	}
}

func TestTornTailOnlyForgivesTheFinalLine(t *testing.T) {
	// A malformed line with complete lines after it is corruption, not a
	// torn tail: the tolerant reader must still fail.
	input := `{"schema":"dynmis-trace/v1"}` + "\n" +
		`{"k":"node-insert","n` + "\n" +
		`{"k":"node-insert","n":2}` + "\n"
	r := NewReader(strings.NewReader(input), TolerateTornTail())
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("mid-trace corruption tolerated: %v", err)
	}
	if r.TornTail() {
		t.Fatal("mid-trace corruption misreported as a torn tail")
	}
}

func TestTornTailUnterminatedRecord(t *testing.T) {
	// A final record that parses but lacks its newline was cut off before
	// the append completed: the tolerant reader drops it as torn, the
	// default reader decodes it.
	cs := sample()
	data := tornEncode(t, cs, 0)
	if got, err := ReadAll(bytes.NewReader(data)); err != nil || !changesEqual(got, cs) {
		t.Fatalf("default reader: got %d changes, %v", len(got), err)
	}
	r := NewReader(bytes.NewReader(data), TolerateTornTail())
	var got []graph.Change
	for c := range r.All() {
		got = append(got, c)
	}
	if r.Err() != nil || !r.TornTail() {
		t.Fatalf("tolerant reader: err %v, TornTail %v", r.Err(), r.TornTail())
	}
	if !changesEqual(got, cs[:len(cs)-1]) {
		t.Fatalf("tolerant reader: want the %d-change prefix, got %d changes", len(cs)-1, len(got))
	}
	// The same holds for a header without its newline.
	r = NewReader(strings.NewReader(headerLine[:len(headerLine)-1]), TolerateTornTail())
	if _, err := r.Read(); err != io.EOF || !r.TornTail() {
		t.Fatalf("unterminated header: err %v, TornTail %v", err, r.TornTail())
	}
}

func TestTornHeaderTolerated(t *testing.T) {
	for name, input := range map[string]string{
		"empty":      "",
		"tornHeader": `{"schema":"dynmis-tr`,
	} {
		r := NewReader(strings.NewReader(input), TolerateTornTail())
		if _, err := r.Read(); err != io.EOF {
			t.Errorf("%s: want io.EOF, got %v", name, err)
		}
		if !r.TornTail() {
			t.Errorf("%s: TornTail not reported", name)
		}
	}
	// A complete header naming the wrong schema is never forgiven.
	r := NewReader(strings.NewReader(`{"schema":"dynmis-trace/v999"}`+"\n"), TolerateTornTail())
	if _, err := r.Read(); !errors.Is(err, ErrSchema) {
		t.Errorf("wrong schema: want ErrSchema, got %v", err)
	}
}

// syncRecorder counts Sync calls to prove Writer.Sync reaches the
// underlying writer's fsync hook.
type syncRecorder struct {
	bytes.Buffer
	syncs int
}

func (s *syncRecorder) Sync() error { s.syncs++; return nil }

func TestWriterSync(t *testing.T) {
	var rec syncRecorder
	w := NewWriter(&rec)
	if err := w.Write(graph.NodeChange(graph.NodeInsert, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if rec.syncs != 1 {
		t.Fatalf("want 1 fsync, got %d", rec.syncs)
	}
	// Sync flushes: the buffered record must be visible.
	got, err := ReadAll(bytes.NewReader(rec.Bytes()))
	if err != nil || len(got) != 1 {
		t.Fatalf("after Sync: got %v, %v", got, err)
	}
	// On a writer without an fsync notion, Sync degrades to Flush.
	var plain bytes.Buffer
	w2 := NewWriter(&plain)
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), Schema) {
		t.Fatal("Sync on an empty writer must still emit the header")
	}
}

func changesEqual(a, b []graph.Change) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].U != b[i].U || a[i].V != b[i].V || a[i].Node != b[i].Node {
			return false
		}
		if !slices.Equal(a[i].Edges, b[i].Edges) {
			return false
		}
	}
	return true
}
