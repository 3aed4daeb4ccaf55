package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// from outside the layer. ID is the chunk (engine) or request (serve)
// index, shared by every rung that replays the same input, so a layer's
// self time is its rung minus the rung below it for the same IDs. Parent
// names the span of the same ID that contains this one (the WAL commit
// inside the wal rung's request); a rung's own spans have none.
//
// A ladder is climbed several times (Rep), interleaving the rungs, so a
// slow spell of the machine lands on every rung alike; a rung's cost is
// its median over the repetitions.
type span struct {
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	ID      int    `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Changes int    `json:"changes"`
}

// recorder keeps spans in memory; they are written out as JSONL once
// the run ends, so recording costs an append, never I/O. A nil
// recorder records nothing: the untraced path shares the traced code.
type recorder struct {
	t0    time.Time
	rep   int // repetition the next spans belong to
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, parent string, id, changes int, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, Rep: r.rep, ID: id, Parent: parent, Changes: changes,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
}

// total is the median over repetitions of the summed duration of the
// spans named name, with the changes one repetition covered.
func (r *recorder) total(name string) (time.Duration, int) {
	sums := make(map[int]float64)
	changes := make(map[int]int)
	for _, s := range r.spans {
		if s.Name == name {
			sums[s.Rep] += float64(s.EndNS - s.StartNS)
			changes[s.Rep] += s.Changes
		}
	}
	var ds []float64
	n := 0
	for rep, d := range sums {
		ds = append(ds, d)
		n = changes[rep]
	}
	return time.Duration(median(ds)), n
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one row of a peel ladder: a stack of public entry points, the
// rung it extends (its self time is the difference), and what it cost
// over the shared inputs.
type rung struct {
	name, below string
	total       time.Duration
	changes     int
}

// printLadder renders the per-layer self-time table.
func printLadder(w io.Writer, workload string, rows []rung) {
	fmt.Fprintf(w, "peel ladder (%s): rung, total, per change, self = rung - below\n", workload)
	byName := make(map[string]rung, len(rows))
	for _, r := range rows {
		byName[r.name] = r
	}
	for _, r := range rows {
		per := perChangeNS(r.total, r.changes)
		self := "-"
		if b, ok := byName[r.below]; ok {
			self = fmt.Sprintf("%+9.0f ns/change vs %s", per-perChangeNS(b.total, b.changes), r.below)
		}
		fmt.Fprintf(w, "  %-14s %10.1f ms  %9.0f ns/change  %s\n", r.name, ms(r.total), per, self)
	}
}

func perChangeNS(d time.Duration, changes int) float64 {
	if changes == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(changes)
}
