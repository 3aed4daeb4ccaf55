// Command dynmisd is the dynmis maintainer daemon: it keeps a maximal
// independent set under a live stream of topology changes and serves it
// over HTTP — ingest via POST /v1/changes (JSON) or POST /v1/stream
// (NDJSON), membership events via GET /v1/events (NDJSON or SSE, with
// resume-from-seq), full state via GET /v1/state, counters via /metricsz.
// The wire protocol is documented in docs/WIRE.md.
//
// With -wal the daemon is durable: every accepted change is appended to a
// write-ahead log (in the dynmis/trace format, so any trace tool can
// replay it) before acknowledgment, snapshots are taken every -snap-every
// changes (0: only at shutdown) and streamed to disk outside the ingest
// lock, and a restart — graceful or kill -9 — recovers the exact
// structure and continues the event sequence where it left off.
//
// With -follow the daemon is a read replica: it bootstraps from the
// leader's /v1/state, folds the leader's event stream, and serves the
// same read surface; ingestion endpoints answer 403 with the leader URL.
//
// Usage:
//
//	dynmisd [-addr 127.0.0.1:7070] [-addr-file path]
//	        [-wal path] [-snap path] [-snap-every 10000]
//	        [-fsync always|interval|never] [-fsync-interval 50ms]
//	        [-engine template|sharded] [-shards N] [-seed 1]
//	        [-retain 0] [-follow http://leader]
//
// -addr-file writes the actually-bound address (useful with :0) so
// scripts can find the daemon. SIGINT/SIGTERM shut down gracefully:
// in-flight batches drain, subscribers receive a terminal record, the
// WAL is fsynced, and a final snapshot is written when changes were
// accepted since the last one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynmis"
	"dynmis/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address (use :0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file once listening")
		walPath   = flag.String("wal", "", "write-ahead log path (empty: in-memory, no durability)")
		snapPath  = flag.String("snap", "", "snapshot path (default: <wal>.snap)")
		snapEvery = flag.Int("snap-every", 10000, "snapshot after this many accepted changes (0: only on shutdown, if any changes were accepted)")
		fsyncStr  = flag.String("fsync", "always", "WAL durability: always, interval or never")
		fsyncIv   = flag.Duration("fsync-interval", 50*time.Millisecond, "ticker period for -fsync interval")
		engineStr = flag.String("engine", "template", "engine: template or sharded")
		shards    = flag.Int("shards", 0, "shard count for -engine sharded (0: GOMAXPROCS)")
		seed      = flag.Uint64("seed", 1, "priority-stream seed (keep stable across restarts of a durable daemon)")
		retain    = flag.Int("retain", 0, "retained events for resume-from-seq (0: unlimited)")
		follow    = flag.String("follow", "", "run as a read replica of this leader URL")
	)
	flag.Parse()
	if err := run(*addr, *addrFile, *walPath, *snapPath, *snapEvery, *fsyncStr, *fsyncIv,
		*engineStr, *shards, *seed, *retain, *follow); err != nil {
		fmt.Fprintln(os.Stderr, "dynmisd:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile, walPath, snapPath string, snapEvery int, fsyncStr string,
	fsyncIv time.Duration, engineStr string, shards int, seed uint64, retain int, follow string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}

	if follow != "" {
		return runReplica(ctx, ln, bound, follow, retain)
	}
	return runLeader(ctx, ln, bound, walPath, snapPath, snapEvery, fsyncStr, fsyncIv,
		engineStr, shards, seed, retain)
}

func runLeader(ctx context.Context, ln net.Listener, bound, walPath, snapPath string,
	snapEvery int, fsyncStr string, fsyncIv time.Duration, engineStr string,
	shards int, seed uint64, retain int) error {
	fsync, err := server.ParseFsyncPolicy(fsyncStr)
	if err != nil {
		return err
	}
	var engine dynmis.Engine
	switch engineStr {
	case "template":
		engine = dynmis.EngineTemplate
	case "sharded":
		engine = dynmis.EngineSharded
	default:
		return fmt.Errorf("unknown engine %q (want template or sharded)", engineStr)
	}
	srv, err := server.Open(server.Config{
		Engine:        engine,
		Shards:        shards,
		Seed:          seed,
		WALPath:       walPath,
		SnapPath:      snapPath,
		SnapEvery:     snapEvery,
		Fsync:         fsync,
		FsyncInterval: fsyncIv,
		Retain:        retain,
	})
	if err != nil {
		return err
	}
	rec := srv.Recovery()
	mode := "in-memory"
	if walPath != "" {
		mode = fmt.Sprintf("wal=%s fsync=%s", walPath, fsync)
	}
	fmt.Printf("dynmisd: leader on %s (%s, engine=%s, seed=%d, seq=%d", bound, mode, engineStr, seed, srv.Seq())
	if rec.WALChanges > 0 || rec.FromSnapshot {
		fmt.Printf(", recovered: snapshot=%v wal_changes=%d tail_replayed=%d torn_tail=%v",
			rec.FromSnapshot, rec.WALChanges, rec.TailReplayed, rec.TornTail)
	}
	fmt.Println(")")

	return serveUntilDone(ctx, ln, srv, srv.Close)
}

func runReplica(ctx context.Context, ln net.Listener, bound, leader string, retain int) error {
	rep := server.OpenReplica(server.ReplicaConfig{Leader: leader, Retain: retain})
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(runCtx)
	}()
	fmt.Printf("dynmisd: replica on %s following %s\n", bound, leader)
	return serveUntilDone(ctx, ln, rep, func() error {
		cancel()
		<-done
		return nil
	})
}

// serveUntilDone serves handler on ln until ctx is cancelled, then shuts
// down in order: first close (which ends the never-ending event streams
// with a terminal record and, on a leader, fsyncs the WAL), then the HTTP
// server's graceful Shutdown, which waits for those handlers to finish
// writing.
func serveUntilDone(ctx context.Context, ln net.Listener, handler http.Handler, close func() error) error {
	httpSrv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("dynmisd: shutting down")
	err := close()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := httpSrv.Shutdown(sctx); serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		if err == nil {
			err = serr
		}
	}
	<-errc // http.ErrServerClosed
	return err
}
