package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"dynmis"
	"dynmis/trace"
)

// StateNode is one row of the /v1/state document.
type StateNode struct {
	Node  dynmis.NodeID `json:"node"`
	InMIS bool          `json:"in_mis"`
}

// StateDoc is the /v1/state response: the full membership configuration,
// consistent with the logical watermark Seq — subscribe with from=Seq to
// continue exactly where this snapshot leaves off.
type StateDoc struct {
	Schema string      `json:"schema"`
	Role   string      `json:"role"`
	Seq    uint64      `json:"seq"`
	Nodes  []StateNode `json:"nodes"`
}

// StateSchema identifies the /v1/state document format.
const StateSchema = "dynmis-state/v1"

// MISDoc is the /v1/mis response.
type MISDoc struct {
	Seq uint64          `json:"seq"`
	MIS []dynmis.NodeID `json:"mis"`
}

// StreamEnd is the terminal record of an event stream: End marks a
// graceful daemon shutdown after the full backlog was delivered; Error
// ("lagged") tells the subscriber it fell behind retention and must
// resync from /v1/state.
type StreamEnd struct {
	End   bool   `json:"end,omitempty"`
	Error string `json:"error,omitempty"`
	Seq   uint64 `json:"seq"`
}

// errorDoc is the JSON error body used by every non-2xx response.
type errorDoc struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
	Floor  uint64 `json:"floor,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
}

// routes is the wire surface shared by the leader and the replica: each
// role plugs in its own snapshot accessors; a nil ingest means read-only
// (the replica redirects writers to its leader).
type routes struct {
	role     string
	leader   string // leader URL, for the replica's 403s
	hub      *hub
	state    func() ([]StateNode, uint64)
	mis      func() ([]dynmis.NodeID, uint64)
	metricsz func() Metricsz
	ingest   func([]dynmis.Change) (IngestResult, error)
}

// mux wires the endpoints of docs/WIRE.md.
func (rt *routes) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/changes", rt.handleChanges)
	mux.HandleFunc("POST /v1/stream", rt.handleStream)
	mux.HandleFunc("GET /v1/events", rt.handleEvents)
	mux.HandleFunc("GET /v1/state", rt.handleState)
	mux.HandleFunc("GET /v1/mis", rt.handleMIS)
	mux.HandleFunc("GET /metricsz", rt.handleMetricsz)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// ingestError maps an ingest failure to a status: 503 while shutting
// down or after a WAL failure — the client should not retry here.
func ingestStatus(err error) int {
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// rejectReadOnly answers ingestion on a replica.
func (rt *routes) rejectReadOnly(w http.ResponseWriter) bool {
	if rt.ingest != nil {
		return false
	}
	writeJSON(w, http.StatusForbidden, errorDoc{Error: "read replica: ingest at the leader", Leader: rt.leader})
	return true
}

// handleChanges ingests one JSON body: either a single change record or an
// array of records, in the trace wire format, decoded by
// trace.UnmarshalChanges — a body that is malformed anywhere is refused
// whole, before any change is applied. The whole body is one ingest batch
// (one durability point); the acknowledgment reports per-change
// accept/reject counts.
func (rt *routes) handleChanges(w http.ResponseWriter, r *http.Request) {
	if rt.rejectReadOnly(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "read body: " + err.Error()})
		return
	}
	cs, err := trace.UnmarshalChanges(bytes.TrimSpace(body))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	res, err := rt.ingest(cs)
	if err != nil {
		writeJSON(w, ingestStatus(err), errorDoc{Error: err.Error(), Seq: res.Seq})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// streamChunk bounds how many NDJSON changes are ingested per durability
// point while streaming.
const streamChunk = 256

// handleStream ingests an NDJSON body: one trace change record per line,
// applied in chunks so a long-running stream acknowledges (and under
// FsyncAlways, fsyncs) incrementally rather than buffering the whole
// request. The response is the aggregate acknowledgment.
func (rt *routes) handleStream(w http.ResponseWriter, r *http.Request) {
	if rt.rejectReadOnly(w) {
		return
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var (
		total IngestResult
		chunk []dynmis.Change
		line  int
	)
	flush := func() (error, int) {
		if len(chunk) == 0 {
			return nil, 0
		}
		res, err := rt.ingest(chunk)
		total.Accepted += res.Accepted
		total.Rejected += res.Rejected
		total.Seq = res.Seq
		for _, e := range res.Errors {
			if len(total.Errors) < maxIngestErrors {
				total.Errors = append(total.Errors, e)
			}
		}
		chunk = chunk[:0]
		if err != nil {
			return err, ingestStatus(err)
		}
		return nil, 0
	}
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		c, err := trace.UnmarshalChange(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: fmt.Sprintf("line %d: %v", line, err), Seq: total.Seq})
			return
		}
		chunk = append(chunk, c)
		if len(chunk) >= streamChunk {
			if err, status := flush(); err != nil {
				writeJSON(w, status, errorDoc{Error: err.Error(), Seq: total.Seq})
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorDoc{Error: "read stream: " + err.Error(), Seq: total.Seq})
		return
	}
	if err, status := flush(); err != nil {
		writeJSON(w, status, errorDoc{Error: err.Error(), Seq: total.Seq})
		return
	}
	writeJSON(w, http.StatusOK, total)
}

// handleEvents is the subscription endpoint: it streams every membership
// event with seq > from, gap-free and in order, as NDJSON (default) or SSE
// (Accept: text/event-stream or ?format=sse). A resume position below the
// retained history is answered with 409 and the retention floor — the
// client resyncs from /v1/state and subscribes from its seq. The stream
// ends with a terminal record: {"end":true} on graceful shutdown,
// {"error":"lagged"} when the subscriber fell behind retention.
func (rt *routes) handleEvents(w http.ResponseWriter, r *http.Request) {
	from := uint64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorDoc{Error: "bad from: " + err.Error()})
			return
		}
		from = v
	}
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		// SSE reconnects resume automatically via Last-Event-ID.
		if s := r.Header.Get("Last-Event-ID"); s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				from = v
			}
		}
	}

	flusher, _ := w.(http.Flusher)
	var (
		bw      = bufio.NewWriter(w)
		started bool
		sendErr error
	)
	start := func() {
		if started {
			return
		}
		started = true
		if sse {
			w.Header().Set("Content-Type", "text/event-stream")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
	}
	send := func(evs []WireEvent) error {
		start()
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if sse {
				fmt.Fprintf(bw, "id: %d\nevent: change\ndata: %s\n\n", ev.Seq, data)
			} else {
				bw.Write(data)
				bw.WriteByte('\n')
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	terminal := func(end StreamEnd) {
		start()
		data, _ := json.Marshal(end)
		if sse {
			kind := "end"
			if end.Error != "" {
				kind = "error"
			}
			fmt.Fprintf(bw, "event: %s\ndata: %s\n\n", kind, data)
		} else {
			bw.Write(data)
			bw.WriteByte('\n')
		}
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}

	err := rt.hub.stream(r.Context(), from, 0, func(evs []WireEvent) error {
		sendErr = send(evs)
		return sendErr
	})
	switch {
	case errors.Is(err, errTruncated) && !started:
		floor, seq := rt.hub.bounds()
		writeJSON(w, http.StatusConflict, errorDoc{
			Error: errTruncated.Error(), Floor: floor, Seq: seq,
		})
	case errors.Is(err, errLagged):
		terminal(StreamEnd{Error: "lagged", Seq: rt.hub.watermark()})
	case errors.Is(err, errHubClosed):
		terminal(StreamEnd{End: true, Seq: rt.hub.watermark()})
	case sendErr != nil || r.Context().Err() != nil:
		// The client went away; nothing left to tell it.
	}
}

func (rt *routes) handleState(w http.ResponseWriter, r *http.Request) {
	nodes, seq := rt.state()
	writeJSON(w, http.StatusOK, StateDoc{Schema: StateSchema, Role: rt.role, Seq: seq, Nodes: nodes})
}

func (rt *routes) handleMIS(w http.ResponseWriter, r *http.Request) {
	mis, seq := rt.mis()
	if mis == nil {
		mis = []dynmis.NodeID{}
	}
	writeJSON(w, http.StatusOK, MISDoc{Seq: seq, MIS: mis})
}

func (rt *routes) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.metricsz())
}

func (rt *routes) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": rt.role, "seq": rt.hub.watermark()})
}
