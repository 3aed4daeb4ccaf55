package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dynmis"
	"dynmis/trace"
	"dynmis/workload"
)

// churnChanges instantiates the canonical churn scenario.
func churnChanges(t *testing.T, seed uint64, n, steps int) []dynmis.Change {
	t.Helper()
	sc, ok := workload.ScenarioByName("churn")
	if !ok {
		t.Fatal("churn scenario missing")
	}
	inst := sc.Instantiate(seed, n, steps)
	return slices.Concat(inst.Build, inst.Drive)
}

// mustIngest applies changes directly, failing the test on any rejection.
func mustIngest(t *testing.T, s *Server, cs []dynmis.Change) IngestResult {
	t.Helper()
	res, err := s.Ingest(cs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("%d changes rejected: %v", res.Rejected, res.Errors)
	}
	return res
}

// crash simulates a kill -9: the WAL file descriptor is closed without
// flushing the userspace buffer, the fsync loop is stopped, and nothing
// else is cleaned up — an in-flight snapshot write is not waited for.
func (s *Server) crash() {
	s.mu.Lock()
	s.closed = true
	if s.wal != nil {
		if s.wal.stop != nil {
			close(s.wal.stop)
			<-s.wal.stopped
		}
		s.wal.cf.f.Close()
		s.wal = nil
	}
	s.mu.Unlock()
	s.hub.close()
}

// awaitSnapshot waits until no snapshot write is in flight.
func (s *Server) awaitSnapshot() { s.snapDone.Wait() }

// referenceRun replays the changes into a fresh maintainer and returns
// its state plus the number of events it published — the uninterrupted
// run every recovery is measured against.
func referenceRun(t *testing.T, seed uint64, cs []dynmis.Change) (map[dynmis.NodeID]dynmis.Membership, uint64) {
	t.Helper()
	m, err := dynmis.New(dynmis.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	m.Subscribe(func(dynmis.Event) { events++ })
	for _, c := range cs {
		if _, err := m.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
	return m.State(), events
}

func serverState(t *testing.T, s *Server) map[dynmis.NodeID]dynmis.Membership {
	t.Helper()
	nodes, _ := s.stateSnapshot()
	state := make(map[dynmis.NodeID]dynmis.Membership, len(nodes))
	for _, n := range nodes {
		m := dynmis.Out
		if n.InMIS {
			m = dynmis.In
		}
		state[n.Node] = m
	}
	return state
}

// TestCrashRecoveryMatchesUninterruptedReplay is the acceptance-criteria
// test: drive a workload, crash (no flush, no snapshot finalization),
// reopen from snapshot + WAL tail, and the recovered State and event Seq
// watermark equal the uninterrupted replay's exactly. Then keep driving
// and the continued event stream is identical too.
func TestCrashRecoveryMatchesUninterruptedReplay(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.jsonl")
	cs := churnChanges(t, seed, 120, 3000)
	cut := 2 * len(cs) / 3

	cfg := Config{Seed: seed, WALPath: walPath, SnapEvery: 400, Fsync: FsyncAlways}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s1, cs[:cut])
	s1.awaitSnapshot()
	preSeq := s1.Seq()
	s1.crash()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.FromSnapshot {
		t.Fatalf("expected snapshot recovery, got %+v", rec)
	}
	if got := s2.Seq(); got != preSeq {
		t.Fatalf("recovered watermark %d, pre-crash %d", got, preSeq)
	}

	refState, refEvents := referenceRun(t, seed, cs[:cut])
	if refEvents != preSeq {
		t.Fatalf("reference run published %d events, daemon watermark %d", refEvents, preSeq)
	}
	if got := serverState(t, s2); !maps.Equal(got, refState) {
		t.Fatalf("recovered state diverged from uninterrupted replay:\n got %v\nwant %v", got, refState)
	}

	// The recovered daemon continues the identical run: drive the rest and
	// compare against the full-reference replay.
	mustIngest(t, s2, cs[cut:])
	fullState, fullEvents := referenceRun(t, seed, cs)
	if got := s2.Seq(); got != fullEvents {
		t.Fatalf("continued watermark %d, full replay %d", got, fullEvents)
	}
	if got := serverState(t, s2); !maps.Equal(got, fullState) {
		t.Fatal("continued state diverged from uninterrupted replay")
	}
}

// TestCrashRecoveryTornTail: a crash mid-append leaves a torn final line;
// recovery truncates it and the daemon comes up at the last complete
// record, appends on a clean line, and boots again from that WAL.
func TestCrashRecoveryTornTail(t *testing.T) {
	const seed = 11
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.jsonl")
	cs := churnChanges(t, seed, 60, 800)

	cfg := Config{Seed: seed, WALPath: walPath, Fsync: FsyncAlways}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s1, cs)
	preSeq := s1.Seq()
	s1.crash()

	// A torn append: half a record, no trailing newline.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"edge-insert","e":[[1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Recovery().TornTail {
		t.Fatal("torn tail not detected")
	}
	if got := s2.Seq(); got != preSeq {
		t.Fatalf("recovered watermark %d, want %d", got, preSeq)
	}
	refState, _ := referenceRun(t, seed, cs)
	if got := serverState(t, s2); !maps.Equal(got, refState) {
		t.Fatal("recovered state diverged after torn-tail truncation")
	}
	// The truncated WAL accepts appends again, on a line of their own.
	extra := dynmis.NodeChange(dynmis.NodeInsert, 100000)
	mustIngest(t, s2, []dynmis.Change{extra})
	s2.crash()
	reopenMatches(t, cfg, append(cs, extra))
}

// reopenMatches boots a server on cfg's WAL and checks that it recovers
// without a torn tail to the state and watermark of an uninterrupted run
// of cs.
func reopenMatches(t *testing.T, cfg Config, cs []dynmis.Change) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Recovery().TornTail {
		t.Fatal("a WAL of acknowledged appends recovered with a torn tail")
	}
	refState, refEvents := referenceRun(t, cfg.Seed, cs)
	if got := s.Seq(); got != refEvents {
		t.Fatalf("recovered watermark %d, uninterrupted run %d", got, refEvents)
	}
	if got := serverState(t, s); !maps.Equal(got, refState) {
		t.Fatal("recovered state diverged from the uninterrupted run")
	}
}

// TestCrashRecoveryUnterminatedFinalRecord: a crash can leave the WAL's
// last record complete but without its newline (a buffer flush that
// stopped just short of it). That record was never acknowledged, so
// recovery treats it as torn even though it parses: it is truncated and
// reported, and the acknowledged appends that follow start on a clean
// line. Accepting it instead glued the next append onto its line, so a
// second crash lost the next acknowledged change (one more ingest) or
// refused to boot (two or more).
func TestCrashRecoveryUnterminatedFinalRecord(t *testing.T) {
	const seed = 13
	cs := churnChanges(t, seed, 60, 800)
	for _, ingests := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("ingests=%d", ingests), func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "wal.jsonl")
			cfg := Config{Seed: seed, WALPath: walPath, Fsync: FsyncAlways}
			s1, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustIngest(t, s1, cs)
			s1.crash()

			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, bytes.TrimSuffix(data, []byte("\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			kept := cs[:len(cs)-1]

			s2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !s2.Recovery().TornTail {
				t.Fatal("unterminated final record not reported as a torn tail")
			}
			if got := s2.Recovery().WALChanges; got != uint64(len(kept)) {
				t.Fatalf("recovered %d WAL changes, want %d", got, len(kept))
			}
			refState, _ := referenceRun(t, seed, kept)
			if got := serverState(t, s2); !maps.Equal(got, refState) {
				t.Fatal("recovered state includes the unacknowledged record")
			}
			acked := slices.Clone(kept)
			for i := range ingests {
				c := dynmis.NodeChange(dynmis.NodeInsert, dynmis.NodeID(100000+i))
				mustIngest(t, s2, []dynmis.Change{c})
				acked = append(acked, c)
			}
			s2.crash()
			reopenMatches(t, cfg, acked)
		})
	}
}

// TestSeedMismatchRefused: restarting a durable daemon under a different
// seed must fail loudly, not silently maintain a different structure.
func TestSeedMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 3, WALPath: filepath.Join(dir, "wal.jsonl"), SnapEvery: 10, Fsync: FsyncAlways}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s1, churnChanges(t, 3, 30, 100))
	s1.Close()
	cfg.Seed = 4
	if _, err := Open(cfg); err == nil {
		t.Fatal("snapshot under seed 3 accepted by a daemon with seed 4")
	}
}

// readEvents reads NDJSON events from an open subscription until n events
// arrived or a terminal record ends the stream; it returns the events and
// the terminal record (zero if the count was reached first).
func readEvents(t *testing.T, body io.Reader, n int) ([]WireEvent, StreamEnd) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var evs []WireEvent
	for len(evs) < n && sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec struct {
			WireEvent
			End   bool   `json:"end"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("bad stream record %q: %v", raw, err)
		}
		if rec.Cause == "" {
			return evs, StreamEnd{End: rec.End, Error: rec.Error, Seq: rec.Seq}
		}
		evs = append(evs, rec.WireEvent)
	}
	return evs, StreamEnd{}
}

// subscribeFrom opens /v1/events?from=N and returns the response.
func subscribeFrom(t *testing.T, ctx context.Context, base string, from uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/events?from=%d", base, from), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// checkContiguous asserts evs covers exactly (from, to] with no gaps or
// duplicates.
func checkContiguous(t *testing.T, evs []WireEvent, from, to uint64) {
	t.Helper()
	if uint64(len(evs)) != to-from {
		t.Fatalf("got %d events, want %d (seq %d..%d]", len(evs), to-from, from, to)
	}
	for i, ev := range evs {
		if want := from + uint64(i) + 1; ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestResumeFromSeqHandoff is the satellite (d) test: a subscriber
// disconnects mid-stream and reconnects with its last seq; the
// concatenation of both connections is the identical gap-free,
// duplicate-free sequence a never-disconnected subscriber observes.
func TestResumeFromSeqHandoff(t *testing.T) {
	const seed = 5
	s, err := Open(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	cs := churnChanges(t, seed, 80, 1200)
	mustIngest(t, s, cs[:len(cs)/2])

	// Witness: one subscription held open across the whole run.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	witness := subscribeFrom(t, wctx, ts.URL, 0)
	defer witness.Body.Close()

	// Leg 1: read part of the backlog, then drop the connection.
	half := int(s.Seq() / 2)
	ctx1, cancel1 := context.WithCancel(context.Background())
	resp1 := subscribeFrom(t, ctx1, ts.URL, 0)
	leg1, _ := readEvents(t, resp1.Body, half)
	cancel1()
	resp1.Body.Close()
	checkContiguous(t, leg1, 0, uint64(half))

	// More traffic while disconnected.
	mustIngest(t, s, cs[len(cs)/2:])
	final := s.Seq()

	// Leg 2: resume from the last delivered seq.
	last := leg1[len(leg1)-1].Seq
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	resp2 := subscribeFrom(t, ctx2, ts.URL, last)
	leg2, _ := readEvents(t, resp2.Body, int(final-last))
	cancel2()
	resp2.Body.Close()
	checkContiguous(t, leg2, last, final)

	joined := append(slices.Clone(leg1), leg2...)
	checkContiguous(t, joined, 0, final)

	want, _ := readEvents(t, witness.Body, int(final))
	checkContiguous(t, want, 0, final)
	for i := range want {
		if joined[i] != want[i] {
			t.Fatalf("resumed stream diverged at %d: %+v vs %+v", i, joined[i], want[i])
		}
	}
}

// TestResumeBelowRetentionIs409: a resume position older than the
// retained history is refused with 409 so the client knows to resync
// from /v1/state instead of silently missing events.
func TestResumeBelowRetentionIs409(t *testing.T) {
	const seed = 6
	s, err := Open(Config{Seed: seed, Retain: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustIngest(t, s, churnChanges(t, seed, 50, 500))

	resp := subscribeFrom(t, context.Background(), ts.URL, 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume from 0 with retain=16: got %s, want 409", resp.Status)
	}
	var doc struct {
		Floor uint64 `json:"floor"`
		Seq   uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Floor == 0 || doc.Seq != s.Seq() {
		t.Fatalf("409 body floor=%d seq=%d, want floor>0 seq=%d", doc.Floor, doc.Seq, s.Seq())
	}

	// Resuming exactly at the floor works and is gap-free to the tip.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp2 := subscribeFrom(t, ctx, ts.URL, doc.Floor)
	defer resp2.Body.Close()
	evs, _ := readEvents(t, resp2.Body, int(doc.Seq-doc.Floor))
	checkContiguous(t, evs, doc.Floor, doc.Seq)
}

// TestGracefulShutdown is the satellite (c) test: Close drains the
// backlog to connected subscribers and ends their streams with a
// terminal record; ingestion after Close is refused as 503.
func TestGracefulShutdown(t *testing.T) {
	const seed = 8
	s, err := Open(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustIngest(t, s, churnChanges(t, seed, 60, 600))
	final := s.Seq()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := subscribeFrom(t, ctx, ts.URL, 0)
	defer resp.Body.Close()

	done := make(chan struct{})
	var evs []WireEvent
	var end StreamEnd
	go func() {
		defer close(done)
		evs, end = readEvents(t, resp.Body, int(final)+1)
	}()
	// Give the subscriber a beat to connect, then shut down.
	time.Sleep(50 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	checkContiguous(t, evs, 0, final)
	if !end.End || end.Seq != final {
		t.Fatalf("terminal record %+v, want end=true seq=%d", end, final)
	}

	if _, err := s.Ingest([]dynmis.Change{dynmis.NodeChange(dynmis.NodeInsert, 1<<20)}); err != ErrClosed {
		t.Fatalf("ingest after Close: err=%v, want ErrClosed", err)
	}
	line, err := trace.MarshalChange(dynmis.NodeChange(dynmis.NodeInsert, 1<<21))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/changes", "application/json", bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after Close: %s, want 503", hr.Status)
	}
}

// TestManySubscribersGapFree fans one live run out to 64 concurrent
// HTTP subscribers while ingestion is running; every subscriber must
// observe the complete, gap-free, duplicate-free sequence. Run with
// -race this is the fan-out data-race test. (The acceptance-scale
// variant — 64 subscribers over 50k+ wire-driven updates — runs in
// make serve-smoke via cmd/dynmisload.)
func TestManySubscribersGapFree(t *testing.T) {
	const (
		seed = 9
		nsub = 64
	)
	s, err := Open(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	cs := churnChanges(t, seed, 100, 2500)
	// The reference replay tells each subscriber how many events the run
	// will produce, so it can read exactly that many and hang up.
	refState, refEvents := referenceRun(t, seed, cs)

	// A few events exist before the subscribers arrive, the rest race in
	// live.
	mustIngest(t, s, cs[:50])

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nsub}}

	errs := make(chan error, nsub)
	streams := make([][]WireEvent, nsub)
	var wg sync.WaitGroup
	for i := range nsub {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events?from=0", nil)
			if err != nil {
				errs <- err
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
			var cursor uint64
			for cursor < refEvents && sc.Scan() {
				if len(sc.Bytes()) == 0 {
					continue
				}
				var ev WireEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					errs <- err
					return
				}
				if ev.Cause == "" {
					errs <- fmt.Errorf("subscriber %d: unexpected terminal record", i)
					return
				}
				if ev.Seq != cursor+1 {
					errs <- fmt.Errorf("subscriber %d: gap at %d -> %d", i, cursor, ev.Seq)
					return
				}
				cursor = ev.Seq
				streams[i] = append(streams[i], ev)
			}
			if cursor < refEvents {
				errs <- fmt.Errorf("subscriber %d: stream ended early at %d/%d", i, cursor, refEvents)
			}
		}()
	}

	for off := 50; off < len(cs); off += 100 {
		mustIngest(t, s, cs[off:min(len(cs), off+100)])
	}
	final := s.Seq()
	if final != refEvents {
		t.Fatalf("daemon watermark %d, reference replay %d", final, refEvents)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range nsub {
		checkContiguous(t, streams[i], 0, final)
		if !slices.Equal(streams[i], streams[0]) {
			t.Fatalf("subscriber %d observed a different stream", i)
		}
	}
	// And the stream they all observed folds to the exact State.
	evs := make([]dynmis.Event, len(streams[0]))
	for i, w := range streams[0] {
		evs[i] = wireToEvent(t, w)
	}
	if got := dynmis.ReplayEvents(evs); !maps.Equal(got, refState) {
		t.Fatal("folded subscriber stream diverged from the reference state")
	}
}

// wireToEvent inverts toWire for test folding.
func wireToEvent(t *testing.T, w WireEvent) dynmis.Event {
	t.Helper()
	mem := func(s string) dynmis.Membership {
		if s == "in" {
			return dynmis.In
		}
		return dynmis.Out
	}
	var cause dynmis.EventCause
	switch w.Cause {
	case "join":
		cause = dynmis.CauseJoin
	case "leave":
		cause = dynmis.CauseLeave
	case "flip":
		cause = dynmis.CauseFlip
	default:
		t.Fatalf("unknown cause %q", w.Cause)
	}
	return dynmis.Event{Seq: w.Seq, Node: w.Node, From: mem(w.From), To: mem(w.To), Cause: cause}
}

// TestMetricszShape pins the wire names of /metricsz: the server
// counters and the embedded metrics.Counters/PerUpdate serialize under
// stable snake_case keys — dashboards key on these.
func TestMetricszShape(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Seed: 1, WALPath: filepath.Join(dir, "wal.jsonl"), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustIngest(t, s, churnChanges(t, 1, 50, 200))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metricsz: %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"role", "seq", "changes_accepted", "changes_rejected",
		"wal_bytes", "wal_fsyncs", "snapshots", "snapshot_errors",
		"events_published", "events_evicted",
		"subscribers", "subscribers_total", "subscribers_dropped",
		"engine", "engine_per_update", "memory",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metricsz missing key %q", key)
		}
	}
	var mem map[string]json.RawMessage
	if err := json.Unmarshal(doc["memory"], &mem); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"nodes", "slots", "edges", "arena_bytes", "index_bytes",
		"spill_slab_bytes", "spill_live_bytes", "aux_bytes",
		"total_bytes", "bytes_per_node", "spill_utilization",
	} {
		if _, ok := mem[key]; !ok {
			t.Errorf("/metricsz memory missing key %q", key)
		}
	}
	var totalBytes int64
	if err := json.Unmarshal(mem["total_bytes"], &totalBytes); err != nil {
		t.Fatal(err)
	}
	if totalBytes <= 0 {
		t.Errorf("/metricsz memory total_bytes = %d, want > 0", totalBytes)
	}
	var engine map[string]json.RawMessage
	if err := json.Unmarshal(doc["engine"], &engine); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"updates", "adjustments", "flips", "cascade_steps", "touched_slots"} {
		if _, ok := engine[key]; !ok {
			t.Errorf("/metricsz engine missing key %q", key)
		}
	}
	var per map[string]float64
	if err := json.Unmarshal(doc["engine_per_update"], &per); err != nil {
		t.Fatal(err)
	}
	if _, ok := per["adjustments"]; !ok {
		t.Error("/metricsz engine_per_update missing key \"adjustments\"")
	}
	var updates uint64
	if err := json.Unmarshal(engine["updates"], &updates); err != nil {
		t.Fatal(err)
	}
	if updates == 0 {
		t.Error("engine counters not accumulating: updates == 0 after ingest")
	}
}
