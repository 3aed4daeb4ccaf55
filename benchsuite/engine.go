package main

import (
	"context"
	"fmt"
	"io"
	"iter"
	"math"
	"runtime"
	"slices"
	"time"

	"dynmis"
	"dynmis/internal/graph"
	"dynmis/workload"
)

// engineWorkload is an in-process engine workload: a big-tier scenario
// driven through the facade, unit changes per engine call.
type engineWorkload struct {
	scenario string
	n        int
	unit     int // changes per engine call: 1 (Apply) or a window (ApplyBatch)
	procs    int
	sharded  bool
}

func runEngineGeo(ctx context.Context, cfg config) (result, error) {
	w := engineWorkload{scenario: "big-geometric", n: cfg.sz.geoN, unit: 1, procs: 1}
	if cfg.trace {
		return traceEngine(ctx, cfg, w)
	}
	return runEngine(ctx, cfg, w)
}

func runEngineHubs(ctx context.Context, cfg config) (result, error) {
	w := engineWorkload{scenario: "big-power-law", n: cfg.sz.hubN, unit: cfg.sz.window, procs: 2, sharded: true}
	if cfg.trace {
		return traceEngine(ctx, cfg, w)
	}
	return runEngine(ctx, cfg, w)
}

// inputs is one generated copy of a workload's input: the warm-up
// build, materialized, and the drive stream, pulled a chunk at a time
// outside the timed calls. Equal seeds give equal inputs, so every rung
// of a ladder regenerates the identical stream.
type inputs struct {
	build []dynmis.Change
	next  func() (dynmis.Change, bool)
	stop  func()
}

func newInputs(seed uint64, scenario string, n int) (*inputs, error) {
	sc, err := workload.BigScenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	build, drive := sc.Streams(workload.Rand(seed), n, math.MaxInt32)
	in := &inputs{build: slices.Collect(build)}
	in.next, in.stop = iter.Pull(drive)
	return in, nil
}

// subject is the stack of entry points one rung times.
type subject interface {
	apply(cs []dynmis.Change) (dynmis.Report, error)
}

// graphSubject is the bottom rung: the slot arena alone.
type graphSubject struct{ g *graph.Graph }

func (s graphSubject) apply(cs []dynmis.Change) (dynmis.Report, error) {
	for _, c := range cs {
		if err := c.Apply(s.g); err != nil {
			return dynmis.Report{}, err
		}
	}
	return dynmis.Report{}, nil
}

// maintSubject is a facade maintainer, one Apply per change or one
// ApplyBatch per window.
type maintSubject struct{ m *dynmis.Maintainer }

func (s maintSubject) apply(cs []dynmis.Change) (dynmis.Report, error) {
	if len(cs) == 1 {
		return s.m.Apply(cs[0])
	}
	return s.m.ApplyBatch(cs)
}

// feedProbe is the counting subscriber. It also timestamps the first
// event of each engine call: the subscriber-visible event latency.
type feedProbe struct {
	events    int
	pending   bool
	callStart time.Time
	lat       []time.Duration
}

func (p *feedProbe) onEvent(dynmis.Event) {
	p.events++
	if p.pending {
		p.lat = append(p.lat, time.Since(p.callStart))
		p.pending = false
	}
}

// stack says which entry points a maintainer rung stacks up.
type stack struct {
	template   bool // EngineTemplate even on a sharded workload
	subscribe  bool
	instrument bool
}

// newMaintainer builds the workload's engine (seed 1) and drives the
// warm-up build into it, windowed like the timed phase.
func (w engineWorkload) newMaintainer(ctx context.Context, build []dynmis.Change, st stack) (*dynmis.Maintainer, *feedProbe, error) {
	opts := []dynmis.Option{dynmis.WithSeed(1), dynmis.WithEngine(dynmis.EngineTemplate)}
	if w.sharded && !st.template {
		opts = []dynmis.Option{dynmis.WithSeed(1), dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(2)}
	}
	if st.instrument {
		opts = append(opts, dynmis.WithInstrumentation())
	}
	m, err := dynmis.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	var probe *feedProbe
	if st.subscribe {
		probe = &feedProbe{}
		m.Subscribe(probe.onEvent)
	}
	m.Grow(w.n)
	if _, err := m.Drive(ctx, slices.Values(build), dynmis.DriveWindow(w.unit)); err != nil {
		return nil, nil, fmt.Errorf("warm-up build: %w", err)
	}
	return m, probe, nil
}

func (w engineWorkload) newGraph(build []dynmis.Change) (*graph.Graph, error) {
	g := graph.New()
	g.Grow(w.n)
	for i, c := range build {
		if err := c.Apply(g); err != nil {
			return nil, fmt.Errorf("warm-up build: change %d: %w", i, err)
		}
	}
	return g, nil
}

// replayStats accumulates one replay of the drive stream.
type replayStats struct {
	calls   []time.Duration // one per engine call
	meter   rateMeter
	total   dynmis.Report
	changes int
	chunks  int
	failed  int
	err     error         // first failed call
	cpu     time.Duration // process CPU time inside the timed calls (trackCPU)
}

// replay pulls the drive stream in chunks (untimed) and times the
// engine calls over each chunk, until the time budget is spent or, when
// maxChunks > 0, exactly maxChunks chunks were applied. A failed call
// stops the replay and is counted, never retried.
func replay(ctx context.Context, in *inputs, subj subject, unit, chunk int, probe *feedProbe,
	budget time.Duration, maxChunks int, rec *recorder, name string, trackCPU bool, st *replayStats) error {
	buf := make([]dynmis.Change, 0, chunk)
	for id := 0; ; id++ {
		if maxChunks > 0 && id >= maxChunks || maxChunks == 0 && st.meter.elapsed >= budget {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		buf = buf[:0]
		for len(buf) < chunk {
			c, ok := in.next()
			if !ok {
				return fmt.Errorf("%s: drive stream exhausted", name)
			}
			buf = append(buf, c)
		}
		var cpu0 time.Duration
		if trackCPU {
			cpu0 = cpuTime()
		}
		start := time.Now()
		for off := 0; off < len(buf); off += unit {
			cs := buf[off:min(off+unit, len(buf))]
			t := time.Now()
			if probe != nil {
				probe.callStart, probe.pending = t, true
			}
			rep, err := subj.apply(cs)
			st.calls = append(st.calls, time.Since(t))
			if err != nil {
				st.failed += len(cs)
				st.err = err
				return nil
			}
			st.total.Add(rep)
		}
		end := time.Now()
		if trackCPU {
			st.cpu += cpuTime() - cpu0
		}
		events := 0
		if probe != nil {
			events = len(probe.lat)
		}
		st.meter.add(len(buf), end.Sub(start), len(st.calls), events)
		rec.add(name, "", id, len(buf), start, end)
		st.changes += len(buf)
		st.chunks++
	}
}

// runEngine is the end-to-end measurement: the workload's e2e stack
// (engine plus the counting subscriber), set up cfg.sz.setups times,
// then driven for cfg.seconds and verified against the greedy oracle.
func runEngine(ctx context.Context, cfg config, w engineWorkload) (result, error) {
	runtime.GOMAXPROCS(w.procs)
	in, err := newInputs(cfg.seed, w.scenario, w.n)
	if err != nil {
		return result{}, err
	}
	defer in.stop()

	var (
		m      *dynmis.Maintainer
		probe  *feedProbe
		setups []float64
	)
	for range cfg.sz.setups {
		m, probe = nil, nil
		runtime.GC()
		start := time.Now()
		if m, probe, err = w.newMaintainer(ctx, in.build, stack{subscribe: true}); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Retained bytes of the built working set: deterministic per seed,
	// and unlike an end-of-run reading independent of how far the
	// time-bounded drive got.
	mem, _ := m.MemoryProfile()
	// Peak RSS is read here too: during the drive the process grows by the
	// input generator's shadow state, which is not under test and grows
	// with how far the drive got.
	rss, err := peakRSSMB("self")
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	probe.lat = make([]time.Duration, 0, 1<<16)

	// An untimed warm-up drive lets the heap, the arena's spill pool and
	// the parallel engine's queues reach their steady size first.
	warm := replayStats{meter: rateMeter{interval: cfg.sz.interval}}
	if err := replay(ctx, in, maintSubject{m}, w.unit, cfg.sz.window, nil, cfg.sz.warmup, 0, nil, "warm-up", false, &warm); err != nil {
		return result{}, err
	}
	st := replayStats{meter: rateMeter{interval: cfg.sz.interval}}
	if err := replay(ctx, in, maintSubject{m}, w.unit, cfg.sz.window, probe, cfg.seconds, 0, nil, "e2e", false, &st); err != nil {
		return result{}, err
	}
	verr := m.Verify()
	measured := st.meter.measured()
	rate, calls, events := summarize(measured, st.calls, probe.lat)
	res := result{
		correct:   verr == nil && warm.failed == 0 && st.failed == 0 && probe.events > 0,
		attempted: warm.changes + warm.failed + st.changes + st.failed,
		failed:    warm.failed + st.failed,
		metrics: map[string]float64{
			"setup_s":        median(setups),
			"changes_per_s":  rate,
			"ack_p50_ms":     ms(quantile(calls, 0.50)),
			"ack_p99_ms":     ms(quantile(calls, 0.99)),
			"event_p50_ms":   ms(quantile(events, 0.50)),
			"event_p99_ms":   ms(quantile(events, 0.99)),
			"bytes_per_node": mem.BytesPerNode,
			"rss_mb":         rss,
		},
	}
	fmt.Fprintf(cfg.log, "  %d changes in %d calls over %.1fs, overall %.0f changes/s; windows %s; measured over the faster %d: %d call and %d event samples; %d nodes %d edges\n",
		st.changes, len(st.calls), st.meter.elapsed.Seconds(), st.meter.overall(), formatRates(st.meter.windows),
		len(measured), len(calls), len(events), m.NodeCount(), m.EdgeCount())
	reportCheck(cfg.log, "engine Verify (greedy oracle)", verr)
	if st.err == nil {
		st.err = warm.err
	}
	reportCheck(cfg.log, "every engine call succeeded", st.err)
	return res, nil
}

// reportCheck prints one output check.
func reportCheck(w io.Writer, what string, err error) {
	if err != nil {
		fmt.Fprintf(w, "  check FAILED: %s: %v\n", what, err)
		return
	}
	fmt.Fprintf(w, "  check ok: %s\n", what)
}
