package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynmis"
	"dynmis/trace"
)

// holdWriter passes the first after bytes of a snapshot file through,
// then reports on held and blocks until release delivers an error: nil
// finishes the write, non-nil fails it. The file on disk meanwhile holds
// exactly after bytes.
type holdWriter struct {
	w       io.Writer
	after   int
	n       int
	held    chan struct{}
	release chan error
}

func newHold(after int) *holdWriter {
	return &holdWriter{after: after, held: make(chan struct{}), release: make(chan error, 1)}
}

func (h *holdWriter) Write(p []byte) (int, error) {
	if h.n <= h.after && h.n+len(p) > h.after {
		k := h.after - h.n
		if _, err := h.w.Write(p[:k]); err != nil {
			return 0, err
		}
		h.n += k
		close(h.held)
		if err := <-h.release; err != nil {
			return k, err
		}
		n, err := h.w.Write(p[k:])
		h.n += n
		return k + n, err
	}
	n, err := h.w.Write(p)
	h.n += n
	return n, err
}

// await waits until the held write reached h, failing the test if no
// snapshot write gets there.
func (h *holdWriter) await(t *testing.T) {
	t.Helper()
	select {
	case <-h.held:
	case <-time.After(20 * time.Second):
		t.Fatal("no snapshot write reached the hold")
	}
}

// holdWrite makes s's nth snapshot write (counting from 1) block in h.
func holdWrite(s *Server, nth int, h *holdWriter) {
	calls := 0
	s.snapWrap = func(w io.Writer) io.Writer {
		calls++
		if calls != nth {
			return w
		}
		h.w = w
		return h
	}
}

// within runs fn and fails the test if fn fails or does not return in
// time — the sign of a call blocked behind the snapshot writer.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("%s blocked while a snapshot write was held open", what)
	}
}

// wantSnapshotFile is the parent format's snapshot file for a run of cs:
// json.Marshal of the envelope around the engine's Snapshot, at the
// run's watermark, WAL position and priority-draw count.
func wantSnapshotFile(t *testing.T, seed uint64, cs []dynmis.Change) []byte {
	t.Helper()
	m, err := dynmis.New(dynmis.WithSeed(seed), dynmis.WithEngine(dynmis.EngineTemplate))
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
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snapFile{Schema: SnapshotSchema, Seed: seed, Seq: events,
		Applied: uint64(len(cs)), Draws: m.PriorityDraws(), Snapshot: img})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// get serves one GET through s's handler.
func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestSnapshotWriteOffLock holds a snapshot write open: ingestion,
// /v1/state and /metricsz go on completing meanwhile, the trigger that
// finds the write in flight is taken by the first batch after it lands,
// and the file that lands is the parent format's file byte for byte at
// its own capture's seq, applied and draws — not at the live cursors,
// which moved on while it was written.
func TestSnapshotWriteOffLock(t *testing.T) {
	const seed = 21
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "wal.jsonl.snap")
	s, err := Open(Config{Seed: seed, WALPath: filepath.Join(dir, "wal.jsonl"), SnapEvery: 500, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hold := newHold(256)
	holdWrite(s, 1, hold)
	defer func() { hold.release <- nil }() // never leave the writer blocked

	cs := churnChanges(t, seed, 100, 2000)
	first, during := cs[:600], cs[600:1800]
	mustIngest(t, s, first) // crosses SnapEvery: the write starts, and blocks
	hold.await(t)

	within(t, "Ingest", func() error {
		res, err := s.Ingest(during)
		if err == nil && res.Accepted != len(during) {
			err = fmt.Errorf("accepted %d of %d: %v", res.Accepted, len(during), res.Errors)
		}
		return err
	})
	refState, refEvents := referenceRun(t, seed, cs[:1800])
	within(t, "/v1/state", func() error {
		var doc StateDoc
		if err := json.Unmarshal(get(s, "/v1/state").Body.Bytes(), &doc); err != nil {
			return err
		}
		if doc.Seq != refEvents || len(doc.Nodes) != len(refState) {
			return fmt.Errorf("seq %d with %d nodes, want seq %d with %d", doc.Seq, len(doc.Nodes), refEvents, len(refState))
		}
		return nil
	})
	within(t, "/metricsz", func() error {
		var mz Metricsz
		if err := json.Unmarshal(get(s, "/metricsz").Body.Bytes(), &mz); err != nil {
			return err
		}
		if mz.Snapshots != 0 || mz.SnapshotErrors != 0 {
			return fmt.Errorf("mid-write: snapshots %d, errors %d; want 0, 0", mz.Snapshots, mz.SnapshotErrors)
		}
		return nil
	})
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot file exists before its write finished (stat err %v)", err)
	}
	if tmp, err := os.ReadFile(snapPath + ".tmp"); err != nil || len(tmp) != 256 {
		t.Fatalf("in-flight tmp file: %d bytes, err %v; want 256 bytes", len(tmp), err)
	}

	hold.release <- nil
	s.awaitSnapshot()
	got, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantSnapshotFile(t, seed, first); !bytes.Equal(got, want) {
		t.Fatalf("landed snapshot differs from its capture's image:\n got %.200s\nwant %.200s", got, want)
	}

	// The trigger deferred while the write was in flight is taken by the
	// next batch.
	mustIngest(t, s, cs[1800:])
	s.awaitSnapshot()
	got, err = os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantSnapshotFile(t, seed, cs); !bytes.Equal(got, want) {
		t.Fatal("the deferred snapshot differs from the image at its capture")
	}
	if mz := s.Metricsz(); mz.Snapshots != 2 || mz.SnapshotErrors != 0 {
		t.Fatalf("snapshots %d, errors %d; want 2, 0", mz.Snapshots, mz.SnapshotErrors)
	}
}

// TestSnapshotCrashMidWrite: a kill -9 while a snapshot write is in flight
// leaves a partial tmp file beside the older snapshot. The restarted
// daemon recovers from the older snapshot plus the WAL tail to the state
// and watermark of the uninterrupted replay, and continues it.
func TestSnapshotCrashMidWrite(t *testing.T) {
	const seed = 23
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "wal.jsonl.snap")
	cfg := Config{Seed: seed, WALPath: filepath.Join(dir, "wal.jsonl"), SnapEvery: 400, Fsync: FsyncAlways}
	cs := churnChanges(t, seed, 80, 1600)
	const cut = 1400

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hold := newHold(256)
	holdWrite(s1, 2, hold)
	crashed := errors.New("killed mid-write")
	defer func() {
		hold.release <- crashed // the killed process's writer never finishes
		s1.awaitSnapshot()
	}()

	mustIngest(t, s1, cs[:500])
	s1.awaitSnapshot()
	older, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	olderSeq := s1.Seq()
	mustIngest(t, s1, cs[500:1000])
	hold.await(t)
	mustIngest(t, s1, cs[1000:cut])
	preSeq := s1.Seq()
	s1.crash()

	if tmp, err := os.ReadFile(snapPath + ".tmp"); err != nil || len(tmp) != 256 || json.Valid(tmp) {
		t.Fatalf("want a partial 256-byte tmp file on disk, got %d bytes (err %v)", len(tmp), err)
	}
	if cur, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(cur, older) {
		t.Fatalf("the older snapshot did not survive the crash (err %v)", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.FromSnapshot || rec.SnapshotSeq != olderSeq || rec.TailReplayed != uint64(cut-500) {
		t.Fatalf("recovery %+v, want the older snapshot (seq %d) and a %d-change tail", rec, olderSeq, cut-500)
	}
	refState, refEvents := referenceRun(t, seed, cs[:cut])
	if got := s2.Seq(); got != preSeq || got != refEvents {
		t.Fatalf("recovered watermark %d, pre-crash %d, uninterrupted replay %d", got, preSeq, refEvents)
	}
	if got := serverState(t, s2); !maps.Equal(got, refState) {
		t.Fatal("recovered state diverged from the uninterrupted replay")
	}
	mustIngest(t, s2, cs[cut:])
	fullState, fullEvents := referenceRun(t, seed, cs)
	if got := s2.Seq(); got != fullEvents {
		t.Fatalf("continued watermark %d, full replay %d", got, fullEvents)
	}
	if got := serverState(t, s2); !maps.Equal(got, fullState) {
		t.Fatal("continued state diverged from the uninterrupted replay")
	}
}

// TestSnapshotFailureKeepsAcks: a snapshot that cannot be written never
// turns an accepted, durable batch into an error. Each failure is counted
// as snapshot_errors and retried at the next trigger; Close reports the
// final snapshot's failure; the WAL alone recovers every accepted change.
func TestSnapshotFailureKeepsAcks(t *testing.T) {
	const seed = 4
	dir := t.TempDir()
	cfg := Config{Seed: seed, WALPath: filepath.Join(dir, "wal.jsonl"),
		SnapPath: filepath.Join(dir, "missing", "snap"), SnapEvery: 1, Fsync: FsyncAlways}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	cs := churnChanges(t, seed, 30, 60)
	third := len(cs) / 3
	for i := range 3 {
		chunk := cs[i*third : (i+1)*third]
		body := []byte{'['}
		for k, c := range chunk {
			if k > 0 {
				body = append(body, ',')
			}
			body = trace.AppendChange(body, c)
		}
		body = append(body, ']')
		resp, err := http.Post(ts.URL+"/v1/changes", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res IngestResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || res.Accepted != len(chunk) {
			t.Fatalf("ingest %d with an unwritable snapshot: %s, %+v (decode err %v); want 200 accepting %d",
				i, resp.Status, res, err, len(chunk))
		}
		s.awaitSnapshot()
	}
	mz := s.Metricsz()
	if mz.SnapshotErrors != 3 || mz.Snapshots != 0 || mz.ChangesAccepted != uint64(3*third) {
		t.Fatalf("snapshot_errors %d, snapshots %d, accepted %d; want 3, 0, %d",
			mz.SnapshotErrors, mz.Snapshots, mz.ChangesAccepted, 3*third)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil although its final snapshot could not be written")
	}
	reopenMatches(t, cfg, cs[:3*third])
}

// TestSnapshotOnCloseWithoutPeriodic: with SnapEvery 0, Close still
// writes a final snapshot when changes were accepted, so the next boot
// restores it instead of replaying the WAL. A boot followed by a stop
// writes nothing: the WAL tail replayed at boot does not count.
func TestSnapshotOnCloseWithoutPeriodic(t *testing.T) {
	const seed = 19
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "wal.jsonl.snap")
	cfg := Config{Seed: seed, WALPath: filepath.Join(dir, "wal.jsonl"), Fsync: FsyncAlways}
	cs := churnChanges(t, seed, 50, 250)[:250]

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("Close with no accepted change wrote a snapshot (stat err %v)", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s2, cs)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("Close after %d accepted changes wrote no snapshot: %v", len(cs), err)
	}

	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := s3.Recovery(); !rec.FromSnapshot || rec.TailReplayed != 0 {
		t.Fatalf("reopen after Close: %+v, want FromSnapshot with no tail", rec)
	}
	refState, _ := referenceRun(t, seed, cs)
	if got := serverState(t, s3); !maps.Equal(got, refState) {
		t.Fatal("state restored from the shutdown snapshot diverged")
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(again, written) {
		t.Fatalf("a boot and a stop rewrote the snapshot (err %v)", err)
	}
}

// TestStateDocsWithoutSnapshotCapability: an engine without the
// Snapshotter capability has no frozen image, so /v1/state and /v1/mis
// render from its membership map instead; the documents equal the
// template's byte for byte (the sequential engine is π-equivalent).
func TestStateDocsWithoutSnapshotCapability(t *testing.T) {
	const seed = 17
	cs := churnChanges(t, seed, 60, 400)
	docs := func(engine dynmis.Engine) (state, mis string) {
		s, err := Open(Config{Engine: engine, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		mustIngest(t, s, cs)
		return get(s, "/v1/state").Body.String(), get(s, "/v1/mis").Body.String()
	}
	m, err := dynmis.New(dynmis.WithEngine(dynmis.EngineSequential))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Freeze(); !errors.Is(err, dynmis.ErrSnapshotUnsupported) {
		t.Fatalf("the sequential engine froze an image (err %v): this test needs an engine without one", err)
	}
	wantState, wantMIS := docs(dynmis.EngineTemplate)
	gotState, gotMIS := docs(dynmis.EngineSequential)
	if gotState != wantState || gotMIS != wantMIS {
		t.Fatalf("documents rendered from the membership map differ from the frozen image's:\n%.200s\n%.200s", gotState, wantState)
	}
}
