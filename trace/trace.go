// Package trace records and replays change streams as versioned JSONL,
// so any run — a workload generator, a production ingest, a failing fuzz
// case — can be captured once and replayed bit-for-bit into any engine.
// A trace file is a header line naming the schema followed by one JSON
// object per change:
//
//	{"schema":"dynmis-trace/v1"}
//	{"k":"node-insert","n":1}
//	{"k":"node-insert","n":2,"e":[1]}
//	{"k":"edge-delete-graceful","u":1,"v":2}
//
// The encoding is canonical — field order is fixed and no optional
// fields are emitted when empty — so recording a replayed trace
// reproduces the input byte for byte, and traces diff cleanly under
// version control. One codec reads and writes every record, here and in
// the dynmis/server wire and write-ahead log: AppendChange encodes,
// canonical bytes decode by hand, and any other spelling encoding/json
// accepts falls back to it and decodes the same. Reader.All exposes a
// trace as an iterator assignable to dynmis.Source; Tee records a Source
// as it is consumed, which is how the cmd tools implement -record.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"

	"dynmis/internal/graph"
)

// Schema is the format identifier written on the header line. Readers
// reject files whose header names any other schema, so the format can
// evolve without silently misreading old captures.
const Schema = "dynmis-trace/v1"

// ErrSchema is returned (wrapped) for a missing or unsupported header.
var ErrSchema = errors.New("trace: unsupported schema")

// header is the first line of every trace file.
type header struct {
	Schema string `json:"schema"`
}

// headerLine is the header as a Writer writes it.
const headerLine = `{"schema":"` + Schema + `"}` + "\n"

// Writer encodes a change stream as JSONL. Writes are buffered; call
// Flush (or use WriteAll/Tee, which flush) before reading the output.
type Writer struct {
	dst    io.Writer
	bw     *bufio.Writer
	buf    []byte // one encoded record, reused by every Write
	opened bool
	err    error
}

// NewWriter returns a Writer over w. The schema header is written before
// the first change.
func NewWriter(w io.Writer) *Writer {
	return &Writer{dst: w, bw: bufio.NewWriter(w)}
}

// NewContinuation returns a Writer that appends records to a trace whose
// header already exists on w's destination — it never emits a header of
// its own. It is how a write-ahead log reopened after a restart keeps
// appending to the same file (see dynmis/server).
func NewContinuation(w io.Writer) *Writer {
	return &Writer{dst: w, bw: bufio.NewWriter(w), opened: true}
}

// Write appends one change: its AppendChange record and a newline,
// buffered together, so a Flush or Sync that writes the record through
// writes its newline too. The first Write emits the header line first.
// After an error every subsequent Write returns the same error.
func (w *Writer) Write(c graph.Change) error {
	if err := w.open(); err != nil {
		return err
	}
	w.buf = append(AppendChange(w.buf[:0], c), '\n')
	_, w.err = w.bw.Write(w.buf)
	return w.err
}

// open emits the header line unless it was written (or, for a
// continuation, exists) already, and reports the sticky error.
func (w *Writer) open() error {
	if w.err == nil && !w.opened {
		w.opened = true
		_, w.err = w.bw.WriteString(headerLine)
	}
	return w.err
}

// Flush writes buffered output through, emitting the header first if
// nothing was written yet — so an empty trace is still a valid file.
func (w *Writer) Flush() error {
	if err := w.open(); err != nil {
		return err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Sync flushes buffered output and, when the underlying writer supports
// it (an *os.File does), forces it to stable storage with fsync. It is
// the durability hook of the write-ahead-log use: a change whose Sync
// returned nil survives a crash of the process and the machine. On
// writers without an fsync notion Sync is exactly Flush.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if s, ok := w.dst.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Reader decodes a JSONL trace.
type Reader struct {
	sc           *bufio.Scanner
	opened       bool
	line         int
	err          error
	tolerateTorn bool
	torn         bool
	unterminated bool // the scanner returned a final line without its '\n'
}

// ReaderOption configures NewReader.
type ReaderOption func(*Reader)

// TolerateTornTail makes the Reader treat a torn final line — a last
// record left truncated by a crash mid-write — as a clean end of trace
// instead of a decode error; TornTail reports whether one was seen. A
// final line is torn when it is not valid JSON, and also when it lacks
// its '\n' even if it parses: a Flush or Sync that wrote a record through
// wrote its newline too (see Writer.Write), so a record without one was
// never acknowledged, and appending after it would glue the next record
// onto its line. Only the *final* line is forgiven: a malformed line with
// further lines after it is corruption, not a torn tail, and still fails.
// Write-ahead-log recovery reads with this option, because a WAL's last
// record is torn precisely when the crash interrupted an unacknowledged
// append.
func TolerateTornTail() ReaderOption {
	return func(r *Reader) { r.tolerateTorn = true }
}

// NewReader returns a Reader over r. The header is validated on the
// first Read.
func NewReader(r io.Reader, opts ...ReaderOption) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	rd := &Reader{sc: sc}
	sc.Split(rd.scanLines)
	for _, o := range opts {
		o(rd)
	}
	return rd
}

// Read returns the next change, or io.EOF at the end of the trace. The
// first call validates the schema header; any format error is sticky.
func (r *Reader) Read() (graph.Change, error) {
	if r.err != nil {
		return graph.Change{}, r.err
	}
	if !r.opened {
		r.opened = true
		data, err := r.next()
		if err != nil {
			if err == io.EOF {
				if r.tolerateTorn {
					// A WAL that crashed before its first flush is an
					// empty file: no change in it was ever acknowledged.
					r.torn = true
					return graph.Change{}, io.EOF
				}
				err = fmt.Errorf("%w: empty input, want header %q", ErrSchema, Schema)
			}
			return graph.Change{}, r.fail(err)
		}
		var h header
		if err := json.Unmarshal(data, &h); err != nil {
			return graph.Change{}, r.tornOrFail(fmt.Errorf("%w: bad header line: %v", ErrSchema, err))
		}
		if h.Schema != Schema {
			return graph.Change{}, r.fail(fmt.Errorf("%w: have %q, want %q", ErrSchema, h.Schema, Schema))
		}
	}
	data, err := r.next()
	if err != nil {
		return graph.Change{}, r.fail(err)
	}
	c, jsonErr, err := unmarshal(data)
	if err != nil {
		err = fmt.Errorf("trace: line %d: %v", r.line, err)
		if jsonErr {
			// Not JSON: torn if this is the final line.
			return graph.Change{}, r.tornOrFail(err)
		}
		// Well-formed, but no valid change: corruption wherever it is.
		return graph.Change{}, r.fail(err)
	}
	return c, nil
}

// scanLines is bufio.ScanLines noting when it returns the input's final
// line without its '\n'.
func (r *Reader) scanLines(data []byte, atEOF bool) (int, []byte, error) {
	n, line, err := bufio.ScanLines(data, atEOF)
	if n > 0 && data[n-1] != '\n' {
		r.unterminated = true
	}
	return n, line, err
}

// next returns the next non-empty line, or io.EOF. Under TolerateTornTail
// a final line without its '\n' is torn: next reports io.EOF instead.
func (r *Reader) next() ([]byte, error) {
	for r.sc.Scan() {
		r.line++
		if len(r.sc.Bytes()) > 0 {
			if r.tolerateTorn && r.unterminated {
				r.torn = true
				return nil, io.EOF
			}
			return r.sc.Bytes(), nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// fail records a sticky error; io.EOF is terminal but not an error state.
func (r *Reader) fail(err error) error {
	if err != io.EOF {
		r.err = err
	}
	return err
}

// tornOrFail resolves a decode failure on the line just read: under
// TolerateTornTail, a failure on the final line of the input is a torn
// tail and reads as a clean io.EOF; anywhere else (or without the option)
// it is the sticky error err.
func (r *Reader) tornOrFail(err error) error {
	if r.tolerateTorn && !r.more() {
		r.torn = true
		return io.EOF
	}
	return r.fail(err)
}

// more reports whether any non-empty line remains, consuming input to
// find out — it is only called on the way to a terminal state.
func (r *Reader) more() bool {
	for r.sc.Scan() {
		r.line++
		if len(r.sc.Bytes()) > 0 {
			return true
		}
	}
	return false
}

// TornTail reports whether the reader forgave a truncated final line (or
// a truncated/absent header) under TolerateTornTail.
func (r *Reader) TornTail() bool { return r.torn }

// All exposes the remaining trace as a change iterator — assignable to
// dynmis.Source — stopping at the end of the trace or at the first
// malformed line. Check Err after consuming to distinguish the two.
func (r *Reader) All() iter.Seq[graph.Change] {
	return func(yield func(graph.Change) bool) {
		for {
			c, err := r.Read()
			if err != nil || !yield(c) {
				return
			}
		}
	}
}

// Err reports the sticky decode error, nil after a clean end of trace.
func (r *Reader) Err() error { return r.err }

// ReadAll decodes an entire trace.
func ReadAll(r io.Reader) ([]graph.Change, error) {
	tr := NewReader(r)
	var cs []graph.Change
	for {
		c, err := tr.Read()
		if err == io.EOF {
			return cs, nil
		}
		if err != nil {
			return cs, err
		}
		cs = append(cs, c)
	}
}

// WriteAll encodes an entire change stream to w and flushes.
func WriteAll(w io.Writer, src iter.Seq[graph.Change]) error {
	tw := NewWriter(w)
	for c := range src {
		if err := tw.Write(c); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Tee records src as it is consumed: every change that passes through the
// returned source is also written to w, and w is flushed when the source
// is exhausted or abandoned. A recording error stops the stream early;
// check w's next Flush for it. Tee is how -record flags capture exactly
// the changes an engine actually ingested.
func Tee(src iter.Seq[graph.Change], w *Writer) iter.Seq[graph.Change] {
	return func(yield func(graph.Change) bool) {
		defer w.Flush()
		for c := range src {
			if w.Write(c) != nil {
				return
			}
			if !yield(c) {
				return
			}
		}
	}
}
