package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dynmis"
	"dynmis/server"
	"dynmis/trace"
)

// serveWorkload is a daemon workload: a dynmisd child booted on a WAL
// the suite pre-wrote from a big-tier build, then fed pre-encoded
// POST /v1/changes requests over one connection while one NDJSON
// subscriber follows the event stream over a second.
type serveWorkload struct {
	scenario  string
	n         int
	batch     int     // changes per request
	rate      float64 // requests/s of the open loop; 0 = closed loop
	fsync     server.FsyncPolicy
	snapEvery int
	retain    int // hub retention (events); 0 keeps every event
}

func (w serveWorkload) flags() []string {
	return []string{"-fsync", w.fsync.String(), "-snap-every", fmt.Sprint(w.snapEvery), "-retain", fmt.Sprint(w.retain)}
}

// serverConfig is the daemon's configuration for the in-process rungs.
func (w serveWorkload) serverConfig(wal string) server.Config {
	return server.Config{Engine: dynmis.EngineTemplate, Seed: 1, WALPath: wal, SnapEvery: w.snapEvery, Fsync: w.fsync, Retain: w.retain}
}

func steadyWorkload(sz sizes) serveWorkload {
	return serveWorkload{scenario: "big-geometric", n: sz.steadyN, batch: sz.steadyBatch,
		rate: float64(sz.steadyRate), fsync: server.FsyncAlways, snapEvery: sz.snapEvery}
}

func bulkWorkload(sz sizes) serveWorkload {
	return serveWorkload{scenario: "big-power-law", n: sz.bulkN, batch: sz.bulkBatch, fsync: server.FsyncInterval, retain: sz.bulkRetain}
}

func runServeSteady(ctx context.Context, cfg config) (result, error) {
	if cfg.trace {
		return traceServe(ctx, cfg, steadyWorkload(cfg.sz))
	}
	return runServe(ctx, cfg, steadyWorkload(cfg.sz))
}

func runServeBulk(ctx context.Context, cfg config) (result, error) {
	if cfg.trace {
		return traceServe(ctx, cfg, bulkWorkload(cfg.sz))
	}
	return runServe(ctx, cfg, bulkWorkload(cfg.sz))
}

// serveInputs is a serve workload's materialized input: the WAL file
// holding the warm-up build, and the request bodies.
type serveInputs struct {
	dir    string
	wal    string
	bodies [][]byte
	counts []int // changes per body
}

// requests is how many requests a run of length d may send: the open
// loop's schedule, or as many as the closed loop could sustain at
// bulkRateCap changes/s.
func (w serveWorkload) requests(sz sizes, d time.Duration) int {
	if w.rate > 0 {
		return int(w.rate * d.Seconds())
	}
	return int(sz.bulkRateCap*d.Seconds())/w.batch + 1
}

// prepare writes the WAL and encodes the request bodies for a run of
// length d, all before anything is timed.
func (w serveWorkload) prepare(cfg config, d time.Duration) (*serveInputs, error) {
	dir, err := os.MkdirTemp(cfg.scratch, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	in, err := newInputs(cfg.seed, w.scenario, w.n)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer in.stop()
	si := &serveInputs{dir: dir, wal: filepath.Join(dir, "build.wal")}
	if err := writeWAL(si.wal, in.build); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	buf := make([]dynmis.Change, 0, w.batch)
	for range w.requests(cfg.sz, d) {
		buf = buf[:0]
		for len(buf) < w.batch {
			c, ok := in.next()
			if !ok {
				os.RemoveAll(dir)
				return nil, errors.New("drive stream exhausted")
			}
			buf = append(buf, c)
		}
		body, err := encodeBody(buf)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		si.bodies = append(si.bodies, body)
		si.counts = append(si.counts, len(buf))
	}
	return si, nil
}

// writeWAL writes changes as a trace file, durably.
func writeWAL(path string, cs []dynmis.Change) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := trace.NewWriter(f)
	for _, c := range cs {
		if err := tw.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := tw.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyFile copies the pre-written WAL so every boot starts from it.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// phase is one daemon run: set-ups, then the timed phase.
type phase struct {
	setups   []float64
	reqs     []request // warm-up requests first, then the timed ones
	warmN    int       // warm-up requests
	warmSeq  uint64    // event watermark after the warm-up
	sub      *subscriber
	subErr   error
	boot     server.Metricsz // after the last boot
	end      server.Metricsz // after the timed phase
	rssMB    float64
	cpuFrac  float64 // load generator CPU time / wall time
	elapsed  time.Duration
	state    server.StateDoc
	sendErr  error
	stopErr  error
	accepted int
}

// runDaemon boots a daemon on a fresh copy of the pre-written WAL boots
// times (keeping the last), then sends the first n bodies (all when n
// is 0) while following the event stream: an untimed warm-up of length
// warm, then the timed phase of length budget. rec, if set, gets one
// span per request: send → ack.
func (w serveWorkload) runDaemon(ctx context.Context, cfg config, si *serveInputs, boots, n int, warm, budget time.Duration, rec *recorder) (*phase, error) {
	dir, err := os.MkdirTemp(si.dir, "daemon-")
	if err != nil {
		return nil, err
	}
	wal := filepath.Join(dir, "wal.jsonl")
	if err := copyFile(wal, si.wal); err != nil {
		return nil, err
	}
	ph := &phase{}
	var d *daemon
	for i := range boots {
		dd, setup, err := startDaemon(ctx, cfg.dynmisd, dir, wal, w.flags())
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, setup.Seconds())
		if i < boots-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("stop dynmisd after boot %d: %w", i, err)
			}
			continue
		}
		d = dd
	}
	defer func() {
		if err := d.stop(); err != nil && ph.stopErr == nil {
			ph.stopErr = err
		}
	}()

	// The load generator: one process thread, at most two connections.
	runtime.GOMAXPROCS(1)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}}
	defer client.CloseIdleConnections()
	if ph.boot, err = d.metricsz(ctx, client); err != nil {
		return nil, err
	}
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	t0 := time.Now()
	ph.sub = subscribe(subCtx, client, d.base, ph.boot.Seq, t0)
	bodies, counts := si.bodies, si.counts
	if n > 0 {
		bodies, counts = bodies[:n], counts[:n]
	}
	var onAck func(int, request)
	if rec != nil {
		onAck = func(i int, r request) {
			rec.add("http", "", i, r.changes, t0.Add(r.sent), t0.Add(r.acked))
		}
	}
	cpu0 := cpuTime()
	ph.reqs, ph.sendErr = sendAll(ctx, client, d.base+"/v1/changes", bodies, counts, w.rate, warm+budget, t0, onAck)
	ph.elapsed = time.Since(t0) - warm
	ph.cpuFrac = (cpuTime() - cpu0).Seconds() / time.Since(t0).Seconds()
	if ph.sendErr != nil {
		cancelSub()
		<-ph.sub.done
		return ph, nil
	}
	final := ph.boot.Seq
	ph.warmSeq = ph.boot.Seq
	for i, r := range ph.reqs {
		final = max(final, r.seq)
		ph.accepted += r.accepted
		if r.due < warm {
			ph.warmN, ph.warmSeq = i+1, r.seq
		}
	}
	ph.subErr = ph.sub.await(final, cancelSub, 60*time.Second)
	if ph.end, err = d.metricsz(ctx, client); err != nil {
		return nil, err
	}
	if ph.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if err := getJSON(ctx, client, d.base+"/v1/state", &ph.state); err != nil {
		return nil, err
	}
	return ph, nil
}

// verifyState replays the warm-up build and the first accepted drive
// changes into a local EngineTemplate at the daemon's seed and compares
// the daemon's /v1/state node for node. The final structure does not
// depend on how the changes were grouped, so the replay is windowed.
func (w serveWorkload) verifyState(ctx context.Context, seed uint64, accepted int, doc server.StateDoc) error {
	in, err := newInputs(seed, w.scenario, w.n)
	if err != nil {
		return err
	}
	defer in.stop()
	m, err := dynmis.New(dynmis.WithEngine(dynmis.EngineTemplate), dynmis.WithSeed(1))
	if err != nil {
		return err
	}
	m.Grow(w.n)
	drive := func(yield func(dynmis.Change) bool) {
		for i := 0; i < accepted; i++ {
			c, ok := in.next()
			if !ok || !yield(c) {
				return
			}
		}
	}
	if _, err := m.Drive(ctx, slices.Values(in.build), dynmis.DriveWindow(4096)); err != nil {
		return fmt.Errorf("local replay: %w", err)
	}
	if _, err := m.Drive(ctx, drive, dynmis.DriveWindow(4096)); err != nil {
		return fmt.Errorf("local replay: %w", err)
	}
	local := m.State()
	if len(doc.Nodes) != len(local) {
		return fmt.Errorf("daemon has %d nodes, local replay %d", len(doc.Nodes), len(local))
	}
	for _, nd := range doc.Nodes {
		mem, ok := local[nd.Node]
		if !ok {
			return fmt.Errorf("daemon has node %d, local replay does not", nd.Node)
		}
		if (mem == dynmis.In) != nd.InMIS {
			return fmt.Errorf("node %d: daemon in_mis=%v, local replay %v", nd.Node, nd.InMIS, mem == dynmis.In)
		}
	}
	return nil
}

// check runs the daemon-side output checks of a phase: every request
// acknowledged in full (none rejected or failed), a gap-free event
// stream up to the final watermark, and /v1/state equal to a local
// template replay.
func (w serveWorkload) check(ctx context.Context, cfg config, ph *phase) (failed int, err error) {
	for _, r := range ph.reqs {
		if !r.ok() {
			failed += r.changes - r.accepted
		}
	}
	report := func(what string, e error) {
		reportCheck(cfg.log, what, e)
		if e != nil && err == nil {
			err = e
		}
	}
	var ackErr error
	if ph.sendErr != nil {
		ackErr = ph.sendErr
	} else if failed > 0 {
		ackErr = fmt.Errorf("%d changes not acknowledged", failed)
	}
	report("every change acknowledged, none rejected", ackErr)
	report("subscriber stream gap-free to the final watermark", ph.subErr)
	if ph.sendErr == nil {
		report("/v1/state equals the local template replay", w.verifyState(ctx, cfg.seed, ph.accepted, ph.state))
	}
	report("dynmisd shut down cleanly", ph.stopErr)
	return failed, err
}

// runServe is the end-to-end measurement of a serve workload.
func runServe(ctx context.Context, cfg config, w serveWorkload) (result, error) {
	si, err := w.prepare(cfg, cfg.sz.warmup+cfg.seconds)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(si.dir)
	runtime.GC()
	ph, err := w.runDaemon(ctx, cfg, si, cfg.sz.setups, 0, cfg.sz.warmup, cfg.seconds, nil)
	if err != nil {
		return result{}, err
	}
	si.bodies = nil
	failed, checkErr := w.check(ctx, cfg, ph)

	timed := ph.reqs[ph.warmN:]
	acks := make([]time.Duration, len(timed))
	attempted, timedChanges := 0, 0
	for _, r := range ph.reqs {
		attempted += r.changes
	}
	for i, r := range timed {
		acks[i] = r.acked - r.due
		timedChanges += r.changes
	}
	evLat, evReq := eventLatencies(timed, ph.sub.events, ph.warmSeq)
	windows := ackWindows(timed, evReq, cfg.sz.warmup, cfg.sz.interval)
	// The open loop's rate is its schedule, so interference shows only in
	// its latencies: it is measured over every window.
	measured := windows
	if w.rate == 0 {
		measured = fasterHalf(windows)
	}
	rate, acks, events := summarize(measured, acks, evLat)
	fmt.Fprintf(cfg.log, "  %d requests (%d changes) in %.1fs, overall %.0f changes/s; windows %s; measured over %d: %d ack and %d event samples; generator cpu %.2f\n",
		len(timed), timedChanges, ph.elapsed.Seconds(), float64(timedChanges)/ph.elapsed.Seconds(), formatRates(windows),
		len(measured), len(acks), len(events), ph.cpuFrac)
	if ph.boot.Memory == nil {
		return result{}, errors.New("/metricsz carries no memory account")
	}
	return result{
		correct:   checkErr == nil,
		attempted: attempted,
		failed:    failed,
		metrics: map[string]float64{
			"setup_s":        median(ph.setups),
			"changes_per_s":  rate,
			"ack_p50_ms":     ms(quantile(acks, 0.50)),
			"ack_p99_ms":     ms(quantile(acks, 0.99)),
			"event_p50_ms":   ms(quantile(events, 0.50)),
			"event_p99_ms":   ms(quantile(events, 0.99)),
			"bytes_per_node": ph.boot.Memory.BytesPerNode,
			"rss_mb":         ph.rssMB,
		},
	}, nil
}
