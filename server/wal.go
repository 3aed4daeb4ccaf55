package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"dynmis"
	"dynmis/trace"
)

// FsyncPolicy says when an accepted change must reach stable storage
// relative to its acknowledgment.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the WAL before every acknowledgment: an acked
	// change survives a machine crash. Strongest and slowest; batched
	// ingestion amortizes the fsync over the whole request.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval flushes on every append and fsyncs on a background
	// ticker: a crash loses at most the last interval of acked changes.
	FsyncInterval
	// FsyncNever flushes on every append and leaves fsync to the OS (and
	// to graceful shutdown): a process crash loses nothing, a machine
	// crash may lose the OS-buffered tail.
	FsyncNever
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("server: unknown fsync policy %q (want always, interval or never)", s)
}

// countingFile wraps the WAL file to count bytes written and forward
// fsync, so trace.Writer.Sync reaches the file through the count.
type countingFile struct {
	f *os.File
	n atomic.Int64
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingFile) Sync() error { return c.f.Sync() }

// wal is the write-ahead log: the trace package writing to an append-only
// file. The server appends every accepted change *after* the engine
// applied it and acknowledges only after the policy's durability point, so
// the log is exactly the sequence of acknowledged-or-being-acknowledged
// changes — replaying it from the empty graph with the engine's seed
// reproduces the engine bit for bit (history independence plus the
// deterministic priority stream).
type wal struct {
	cf       *countingFile
	w        *trace.Writer
	policy   FsyncPolicy
	interval time.Duration
	fsyncs   atomic.Uint64
	stop     chan struct{}
	stopped  chan struct{}
}

// recoverWAL reads the WAL at path, tolerating (and physically truncating)
// a torn final line left by a crash mid-append — one that does not parse
// or lacks its newline — and returns the decoded changes plus whether a
// torn tail was repaired. A missing file returns no changes.
func recoverWAL(path string) (cs []dynmis.Change, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("server: read wal: %w", err)
	}
	r := trace.NewReader(bytes.NewReader(data), trace.TolerateTornTail())
	for {
		c, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("server: wal %s is corrupt: %w", path, err)
		}
		cs = append(cs, c)
	}
	if r.TornTail() {
		// Drop the torn bytes so appends continue on a clean line. The torn
		// record was never acknowledged under FsyncAlways; under the weaker
		// policies losing it is the documented trade.
		clean := 0
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			clean = i + 1
		}
		if err := os.Truncate(path, int64(clean)); err != nil {
			return nil, true, fmt.Errorf("server: truncate torn wal tail: %w", err)
		}
	}
	return cs, r.TornTail(), nil
}

// openWAL opens (creating if needed) the WAL for appending. On a fresh
// file the schema header is written and synced immediately, so even an
// empty WAL is a valid trace.
func openWAL(path string, policy FsyncPolicy, interval time.Duration) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: stat wal: %w", err)
	}
	cf := &countingFile{f: f}
	cf.n.Store(st.Size())
	w := &wal{cf: cf, policy: policy, interval: interval}
	if st.Size() == 0 {
		// Fresh file: materialize the header durably before any ack can
		// depend on it.
		tw := trace.NewWriter(cf)
		if err := tw.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("server: init wal: %w", err)
		}
		w.w = tw
		w.fsyncs.Add(1)
	} else {
		// Existing (recovered) file: the header is already on disk; a
		// fresh Writer must not emit a second one, so write through a
		// headerless continuation.
		w.w = trace.NewContinuation(cf)
	}
	if policy == FsyncInterval {
		if interval <= 0 {
			w.interval = 50 * time.Millisecond
		}
		w.stop = make(chan struct{})
		w.stopped = make(chan struct{})
		go w.fsyncLoop()
	}
	return w, nil
}

// fsyncLoop is the FsyncInterval background syncer.
func (w *wal) fsyncLoop() {
	defer close(w.stopped)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A concurrent append holds the server's ingest lock, not
			// ours; trace.Writer is not concurrency-safe, so interval
			// syncs go straight to the file (appends flush eagerly).
			if w.cf.Sync() == nil {
				w.fsyncs.Add(1)
			}
		case <-w.stop:
			return
		}
	}
}

// write appends one change without establishing durability; commit does
// that once per ingest batch. The caller holds the server's ingest lock.
func (w *wal) write(c dynmis.Change) error {
	if err := w.w.Write(c); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	return nil
}

// commit establishes the policy's durability point for everything written
// so far: fsync under FsyncAlways, flush-to-OS otherwise. The caller holds
// the server's ingest lock.
func (w *wal) commit() error {
	if w.policy == FsyncAlways {
		return w.sync()
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("server: wal flush: %w", err)
	}
	return nil
}

// sync flushes and fsyncs regardless of policy (snapshots and shutdown
// need a hard durability point).
func (w *wal) sync() error {
	if err := w.w.Sync(); err != nil {
		return fmt.Errorf("server: wal fsync: %w", err)
	}
	w.fsyncs.Add(1)
	return nil
}

// bytes reports the WAL size in bytes (preexisting plus appended).
func (w *wal) bytes() int64 { return w.cf.n.Load() }

// close flushes, fsyncs and closes the log.
func (w *wal) close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.stopped
	}
	err := w.sync()
	if cerr := w.cf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
