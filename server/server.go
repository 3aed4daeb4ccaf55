// Package server is the network-facing layer of the dynmis reproduction:
// a stdlib-only daemon core that ingests topology changes over HTTP,
// pushes the resulting membership events to any number of concurrent
// subscribers, and makes the maintained structure durable with a
// write-ahead log plus periodic snapshots.
//
// The design follows the paper's point. Because a change adjusts a single
// node in expectation (Theorem 1), clients should never re-poll MIS() —
// the daemon streams them exactly the adjusted nodes as dynmis Events,
// with a logical sequence number that survives crashes, so a client (or a
// read replica) that folds the stream with ReplayEvents always holds the
// exact State.
//
// Durability composes three existing properties instead of inventing a
// storage engine: the dynmis/trace format is byte-canonical JSONL, so the
// WAL is just a trace file any tool can replay; history independence
// means replaying the WAL from the empty graph reproduces the structure
// exactly; and dynmis.RestoreAt repositions the priority stream, so
// snapshot + WAL-tail replay is bit-identical to an uninterrupted run.
// Recovery tolerates a torn final WAL line (a crash mid-append, or a
// final record left without its newline) by truncating it — under
// FsyncAlways that record was never acknowledged.
//
// A Server is the leader role; a Replica follows a leader's event stream
// and serves the same read surface with exact State equality. Both expose
// the wire protocol documented in docs/WIRE.md.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"maps"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynmis"
	"dynmis/metrics"
)

// SnapshotSchema identifies the snapshot-file format: snapshot metadata
// (logical seq watermark, WAL position, priority-stream position) around
// a core engine snapshot.
const SnapshotSchema = "dynmis-snap/v1"

// ErrClosed is returned by ingestion once shutdown has begun.
var ErrClosed = errors.New("server: shutting down")

// Config configures Open.
type Config struct {
	// Engine selects the backing engine; it must support snapshots when a
	// WAL is configured. Zero selects dynmis.EngineTemplate, the fastest
	// per-change path.
	Engine dynmis.Engine
	// Shards is the shard count for dynmis.EngineSharded.
	Shards int
	// Seed is the engine seed. Restarting a durable daemon requires the
	// same seed — replaying the WAL under a different priority stream
	// would maintain a different (if equally valid) structure, and the
	// snapshot loader rejects the mismatch.
	Seed uint64
	// WALPath is the write-ahead log file; empty runs the daemon
	// in-memory (no durability, no recovery).
	WALPath string
	// SnapPath is the snapshot file; empty defaults to WALPath + ".snap".
	SnapPath string
	// SnapEvery takes a snapshot after this many accepted changes
	// (0 disables periodic snapshots). Close writes a final one whenever
	// changes were accepted since the last snapshot on disk.
	SnapEvery int
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval ticker period.
	FsyncInterval time.Duration
	// Retain bounds the in-memory event log serving resume-from-Seq; 0
	// keeps everything since startup. A subscriber that falls more than
	// Retain events behind is disconnected (the slow-consumer policy) and
	// must resync from /v1/state.
	Retain int
	// Now overrides the event-timestamp clock (tests); nil means time.Now.
	Now func() time.Time
}

// engineOptions renders the config's engine choice as facade options.
func (c Config) engineOptions() []dynmis.Option {
	opts := []dynmis.Option{dynmis.WithInstrumentation()}
	switch c.Engine {
	case 0, dynmis.EngineTemplate:
		opts = append(opts, dynmis.WithEngine(dynmis.EngineTemplate))
	case dynmis.EngineSharded:
		opts = append(opts, dynmis.WithEngine(dynmis.EngineSharded))
		if c.Shards > 0 {
			opts = append(opts, dynmis.WithShards(c.Shards))
		}
	default:
		opts = append(opts, dynmis.WithEngine(c.Engine))
	}
	return opts
}

// snapFile is the on-disk snapshot: metadata locating the snapshot in the
// logical history plus the engine image itself.
type snapFile struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
	// Seq is the logical event watermark at the moment of the snapshot.
	Seq uint64 `json:"seq"`
	// Applied is how many WAL changes the snapshot already includes; the
	// WAL tail from this position replays the rest.
	Applied uint64 `json:"applied"`
	// Draws is the priority-stream position for dynmis.RestoreAt.
	Draws    uint64           `json:"draws"`
	Snapshot *dynmis.Snapshot `json:"snapshot"`
}

// RecoveryInfo says how a durable server came up.
type RecoveryInfo struct {
	FromSnapshot bool   `json:"from_snapshot"`
	SnapshotSeq  uint64 `json:"snapshot_seq"`
	WALChanges   uint64 `json:"wal_changes"`
	TailReplayed uint64 `json:"tail_replayed"`
	TornTail     bool   `json:"torn_tail"`
}

// Server is the leader daemon core: engine + WAL + snapshots + event hub,
// exposed as an http.Handler (see routes in handlers.go). All engine
// access is serialized by mu; the event fan-out, the snapshot writer and
// the rendering of /v1/state and /v1/mis run outside it, on copies taken
// under it.
type Server struct {
	cfg      Config
	hub      *hub
	handler  http.Handler
	now      func() time.Time
	recovery RecoveryInfo

	mu      sync.Mutex
	m       *dynmis.Maintainer
	wal     *wal
	baseSeq uint64 // logical seq of the restored snapshot (rebase offset)
	applied uint64 // total changes in the WAL (== accepted since birth)
	// WAL positions of the newest snapshot capture and of the newest
	// snapshot on disk. Both start at the boot position: the tail replayed
	// at boot is already in the WAL, so a boot and a stop write nothing.
	captured, saved uint64
	writing         bool // a snapshot write is in flight (at most one)
	closed          bool
	broken          error // a WAL write failure poisons the server

	// snapDone tracks the in-flight snapshot write. snapWrap, set only by
	// tests, wraps the snapshot file the writer streams into.
	snapDone sync.WaitGroup
	snapWrap func(io.Writer) io.Writer

	accepted   atomic.Uint64
	rejected   atomic.Uint64
	snapshots  atomic.Uint64
	snapErrors atomic.Uint64
}

// Open builds a Server, recovering from the configured WAL and snapshot
// if they exist: the snapshot (when present) restores the engine and the
// priority-stream position, the WAL tail replays through the normal Drive
// path (republishing its events into the hub with rebased sequence
// numbers), and the WAL is reopened for appending — with a torn final
// line truncated first.
func Open(cfg Config) (*Server, error) {
	if cfg.SnapPath == "" && cfg.WALPath != "" {
		cfg.SnapPath = cfg.WALPath + ".snap"
	}
	s := &Server{cfg: cfg, now: cfg.Now}
	if s.now == nil {
		s.now = time.Now
	}

	var (
		walChanges []dynmis.Change
		snap       *snapFile
		err        error
	)
	if cfg.WALPath != "" {
		snap, err = loadSnapshot(cfg.SnapPath, cfg.Seed)
		if err != nil {
			return nil, err
		}
		walChanges, s.recovery.TornTail, err = recoverWAL(cfg.WALPath)
		if err != nil {
			return nil, err
		}
		s.recovery.WALChanges = uint64(len(walChanges))
	}

	tail := walChanges
	if snap != nil {
		if snap.Applied > uint64(len(walChanges)) {
			return nil, fmt.Errorf("server: snapshot is ahead of the wal (%d > %d changes): wal truncated externally?",
				snap.Applied, len(walChanges))
		}
		s.m, err = dynmis.RestoreAt(snap.Snapshot, cfg.Seed, snap.Draws, cfg.engineOptions()...)
		if err != nil {
			return nil, fmt.Errorf("server: restore snapshot: %w", err)
		}
		s.baseSeq = snap.Seq
		tail = walChanges[snap.Applied:]
		s.recovery.FromSnapshot = true
		s.recovery.SnapshotSeq = snap.Seq
	} else {
		s.m, err = dynmis.New(append(cfg.engineOptions(), dynmis.WithSeed(cfg.Seed))...)
		if err != nil {
			return nil, err
		}
	}

	s.hub = newHub(s.baseSeq, cfg.Retain)
	// The one feed subscription: every engine event, rebased to the
	// logical sequence, is appended to the hub — during WAL-tail replay
	// just as during live ingest.
	s.m.Subscribe(func(ev dynmis.Event) {
		ev.Seq += s.baseSeq
		s.hub.append(toWire(ev, s.now().UnixNano()))
	})

	// Replay the tail change by change — the daemon's one application
	// granularity, so the event sequence is identical however the changes
	// originally arrived.
	for i, c := range tail {
		if _, err := s.m.Apply(c); err != nil {
			return nil, fmt.Errorf("server: wal replay: change %d: %w", int(snapApplied(snap))+i, err)
		}
	}
	s.recovery.TailReplayed = uint64(len(tail))
	s.applied = uint64(len(walChanges))
	s.captured, s.saved = s.applied, s.applied
	if err := s.m.Check(); err != nil {
		return nil, fmt.Errorf("server: recovered structure is invalid: %w", err)
	}

	if cfg.WALPath != "" {
		s.wal, err = openWAL(cfg.WALPath, cfg.Fsync, cfg.FsyncInterval)
		if err != nil {
			return nil, err
		}
	}

	s.handler = (&routes{
		role:     "leader",
		hub:      s.hub,
		state:    s.stateSnapshot,
		mis:      s.misSnapshot,
		metricsz: s.Metricsz,
		ingest:   s.Ingest,
	}).mux()
	return s, nil
}

// snapApplied is snap.Applied with nil meaning 0.
func snapApplied(snap *snapFile) uint64 {
	if snap == nil {
		return 0
	}
	return snap.Applied
}

// loadSnapshot reads and validates a snapshot file; a missing file is nil.
func loadSnapshot(path string, seed uint64) (*snapFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: read snapshot: %w", err)
	}
	var snap snapFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("server: snapshot %s is corrupt: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("server: snapshot %s: unsupported schema %q, want %q", path, snap.Schema, SnapshotSchema)
	}
	if snap.Seed != seed {
		return nil, fmt.Errorf("server: snapshot %s was taken under seed %d, daemon started with %d: refusing to diverge",
			path, snap.Seed, seed)
	}
	if snap.Snapshot == nil {
		return nil, fmt.Errorf("server: snapshot %s carries no engine image", path)
	}
	return &snap, nil
}

// ServeHTTP serves the wire protocol of docs/WIRE.md.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Seq returns the logical event watermark.
func (s *Server) Seq() uint64 { return s.hub.watermark() }

// Recovery reports how this server instance came up.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// IngestResult is the acknowledgment of one ingest call: how many changes
// were accepted (applied, WAL-appended and — under FsyncAlways — fsynced)
// and rejected (invalid against the current topology), and the logical
// event watermark after the batch.
type IngestResult struct {
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
	Seq      uint64   `json:"seq"`
	Errors   []string `json:"errors,omitempty"`
}

// maxIngestErrors caps the per-request rejection detail.
const maxIngestErrors = 16

// Ingest applies a batch of changes: each change is validated and applied
// by the engine (publishing its events), appended to the WAL, and the
// batch is acknowledged after one durability point — so a batched request
// amortizes its fsync over all its changes. Invalid changes are rejected
// individually without poisoning the batch; rejected changes never reach
// the WAL, which keeps the log replayable end to end. A WAL write failure
// is fatal: the server refuses further ingestion rather than acknowledge
// what it cannot make durable. A batch that crosses the -snap-every
// boundary starts a snapshot, whose outcome never reaches the batch's
// acknowledgment (see startSnapshotLocked).
func (s *Server) Ingest(cs []dynmis.Change) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res IngestResult
	if s.closed {
		res.Seq = s.hub.watermark()
		return res, ErrClosed
	}
	if s.broken != nil {
		res.Seq = s.hub.watermark()
		return res, s.broken
	}
	for _, c := range cs {
		if _, err := s.m.Apply(c); err != nil {
			res.Rejected++
			if len(res.Errors) < maxIngestErrors {
				res.Errors = append(res.Errors, err.Error())
			}
			continue
		}
		if s.wal != nil {
			if err := s.wal.write(c); err != nil {
				// The engine applied the change but the log did not record
				// it: acknowledging anything further would break the
				// WAL-replay equivalence. Poison the server.
				s.broken = err
				res.Seq = s.hub.watermark()
				return res, err
			}
		}
		res.Accepted++
		s.applied++
	}
	if res.Accepted > 0 && s.wal != nil {
		if err := s.wal.commit(); err != nil {
			s.broken = err
			res.Seq = s.hub.watermark()
			return res, err
		}
	}
	s.accepted.Add(uint64(res.Accepted))
	s.rejected.Add(uint64(res.Rejected))
	res.Seq = s.hub.watermark()

	if s.wal != nil && s.cfg.SnapEvery > 0 && !s.writing &&
		s.applied-s.captured >= uint64(s.cfg.SnapEvery) {
		s.startSnapshotLocked()
	}
	return res, nil
}

// capture is a snapshot's content, taken under the ingest lock: its place
// in the logical history and a frozen copy of the engine's arena.
type capture struct {
	seq, applied, draws uint64
	img                 *dynmis.Image
}

// captureLocked is all of a snapshot that needs the ingest lock. The WAL
// is fsynced first, so the capture's Applied position is never ahead of
// the durable log; then the cursors are read and the arena lanes copied.
// Nothing is sorted or encoded here.
func (s *Server) captureLocked() (capture, error) {
	if err := s.wal.sync(); err != nil {
		s.broken = err
		return capture{}, err
	}
	img, err := s.m.Freeze()
	if err != nil {
		return capture{}, fmt.Errorf("server: snapshot: %w", err)
	}
	s.captured = s.applied
	return capture{seq: s.hub.watermark(), applied: s.applied, draws: s.m.PriorityDraws(), img: img}, nil
}

// startSnapshotLocked captures a snapshot and hands it to the writer,
// which streams it to disk without the ingest lock. At most one write is
// in flight, so at most one copy is alive, and captures are taken in
// order, so an older image never replaces a newer one. A trigger that
// finds a write in flight is taken by the first batch after it lands. A
// failed capture or write is counted on /metricsz (snapshot_errors), not
// returned to the batch that triggered it — that batch is applied and
// durable — and the next trigger retries.
func (s *Server) startSnapshotLocked() {
	c, err := s.captureLocked()
	if err != nil {
		s.snapErrors.Add(1)
		return
	}
	s.writing = true
	s.snapDone.Add(1)
	go func() {
		defer s.snapDone.Done()
		_ = s.writeSnapshot(c) // counted on /metricsz; the next trigger retries
	}()
}

// writeSnapshot is the snapshot writer: it streams a capture to disk
// without the ingest lock, then records the outcome — the WAL position
// now on disk, and the snapshots or snapshot_errors count.
func (s *Server) writeSnapshot(c capture) error {
	err := s.streamSnapshot(c)
	s.mu.Lock()
	s.writing = false
	if err == nil {
		s.saved = c.applied
	}
	s.mu.Unlock()
	if err != nil {
		s.snapErrors.Add(1)
		return err
	}
	s.snapshots.Add(1)
	return nil
}

// streamSnapshot writes a capture into the snapshot file's tmp sibling
// through a bufio.Writer — the envelope here, the engine image by
// Image.WriteJSON, so the file is json.Marshal of a snapFile byte for
// byte without that document ever being built — then fsyncs it and
// atomically renames it over the snapshot file.
func (s *Server) streamSnapshot(c capture) error {
	tmp := s.cfg.SnapPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	var w io.Writer = f
	if s.snapWrap != nil {
		w = s.snapWrap(f)
	}
	// A bufio.Writer's first error sticks: Flush reports it for every
	// write before it.
	bw := bufio.NewWriterSize(w, 64<<10)
	fmt.Fprintf(bw, `{"schema":%q,"seed":%d,"seq":%d,"applied":%d,"draws":%d,"snapshot":`,
		SnapshotSchema, s.cfg.Seed, c.seq, c.applied, c.draws)
	err = c.img.WriteJSON(bw)
	bw.WriteByte('}')
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.SnapPath); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	return nil
}

// members captures the membership configuration and the watermark it is
// consistent with under the ingest lock, and returns it for reading after
// the lock is released, in ascending node order: from a frozen image on
// the engines that have one, else from the engine's membership map, which
// is a copy already.
func (s *Server) members() (iter.Seq2[dynmis.NodeID, dynmis.Membership], int, uint64) {
	s.mu.Lock()
	seq := s.hub.watermark()
	img, err := s.m.Freeze()
	var state map[dynmis.NodeID]dynmis.Membership
	if err != nil {
		state = s.m.State()
	}
	s.mu.Unlock()
	if img != nil {
		return img.Nodes(), img.NodeCount(), seq
	}
	return func(yield func(dynmis.NodeID, dynmis.Membership) bool) {
		for _, v := range slices.Sorted(maps.Keys(state)) {
			if !yield(v, state[v]) {
				return
			}
		}
	}, len(state), seq
}

// stateSnapshot renders the full membership configuration with the
// watermark it is consistent with.
func (s *Server) stateSnapshot() ([]StateNode, uint64) {
	nodes, n, seq := s.members()
	out := make([]StateNode, 0, n)
	for v, m := range nodes {
		out = append(out, StateNode{Node: v, InMIS: m == dynmis.In})
	}
	return out, seq
}

// misSnapshot renders the sorted MIS with its watermark.
func (s *Server) misSnapshot() ([]dynmis.NodeID, uint64) {
	nodes, _, seq := s.members()
	mis := []dynmis.NodeID{}
	for v, m := range nodes {
		if m == dynmis.In {
			mis = append(mis, v)
		}
	}
	return mis, seq
}

// Metricsz is the /metricsz document: the daemon's serving counters
// around the engine's complexity account (dynmis/metrics).
type Metricsz struct {
	Role string `json:"role"`
	Seq  uint64 `json:"seq"`

	ChangesAccepted uint64 `json:"changes_accepted"`
	ChangesRejected uint64 `json:"changes_rejected"`
	WALBytes        int64  `json:"wal_bytes"`
	WALFsyncs       uint64 `json:"wal_fsyncs"`
	Snapshots       uint64 `json:"snapshots"`
	// SnapshotErrors counts snapshots that failed to reach the disk; the
	// next trigger retries.
	SnapshotErrors uint64 `json:"snapshot_errors"`

	EventsPublished    uint64 `json:"events_published"`
	EventsEvicted      uint64 `json:"events_evicted"`
	Subscribers        uint64 `json:"subscribers"`
	SubscribersTotal   uint64 `json:"subscribers_total"`
	SubscribersDropped uint64 `json:"subscribers_dropped"`
	LeaderResyncs      uint64 `json:"leader_resyncs,omitempty"`

	Engine          *metrics.Counters  `json:"engine,omitempty"`
	EnginePerUpdate *metrics.PerUpdate `json:"engine_per_update,omitempty"`
	// Memory is the engine's live retained-bytes account (bytes/node,
	// spill-pool utilization, …) when the engine implements the
	// memory-reporting capability; absent on replicas, whose state is a
	// plain membership map rather than an arena.
	Memory *metrics.Memory `json:"memory,omitempty"`
}

// Metricsz snapshots the serving counters and the engine's complexity
// counters (the same numbers cmd/validate tabulates, here live).
func (s *Server) Metricsz() Metricsz {
	published, evicted, subsNow, subsTotal, subsDropped := s.hub.snapshotCounters()
	mz := Metricsz{
		Role:               "leader",
		Seq:                s.hub.watermark(),
		ChangesAccepted:    s.accepted.Load(),
		ChangesRejected:    s.rejected.Load(),
		Snapshots:          s.snapshots.Load(),
		SnapshotErrors:     s.snapErrors.Load(),
		EventsPublished:    published,
		EventsEvicted:      evicted,
		Subscribers:        subsNow,
		SubscribersTotal:   subsTotal,
		SubscribersDropped: subsDropped,
	}
	s.mu.Lock()
	if s.wal != nil {
		mz.WALBytes = s.wal.bytes()
		mz.WALFsyncs = s.wal.fsyncs.Load()
	}
	if ctr, ok := s.m.Metrics(); ok {
		per := ctr.PerUpdate()
		mz.Engine, mz.EnginePerUpdate = &ctr, &per
	}
	if mem, ok := s.m.MemoryProfile(); ok {
		mz.Memory = &mem
	}
	s.mu.Unlock()
	return mz
}

// Close shuts the server down gracefully: further ingestion gets
// ErrClosed, the in-flight snapshot write (if any) lands, a final snapshot
// is written when changes were accepted since the last one on disk, the
// WAL is fsynced and closed, and every subscriber stream drains its
// backlog and ends with a terminal record. Close returns the final
// snapshot's error. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.snapDone.Wait()

	s.mu.Lock()
	var (
		final capture
		err   error
	)
	if s.wal != nil && s.broken == nil && s.applied > s.saved {
		final, err = s.captureLocked()
	}
	if s.wal != nil {
		if cerr := s.wal.close(); err == nil {
			err = cerr
		}
		s.wal = nil
	}
	s.mu.Unlock()
	if final.img != nil {
		if werr := s.writeSnapshot(final); err == nil {
			err = werr
		}
	}
	s.hub.close()
	return err
}
