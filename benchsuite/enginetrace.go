package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dynmis"
	"dynmis/internal/graph"
)

// engineRung is one rung of the engine peel ladder.
type engineRung struct {
	name, below string
	procs       int
	bare        bool // the graph arena alone, no engine
	st          stack
}

// e2eRung is the rung that runs the end-to-end configuration.
const e2eRung = "feed"

// traceReps is how many times a traced run climbs its ladder.
const traceReps = 3

// engineLadder lists the rungs for w: the arena, the engine, plus the
// counting subscriber (the e2e stack), plus instrumentation, and on the
// sharded workload the single-threaded batch and sharded-at-p=1 rungs
// that isolate the parallel engine.
func engineLadder(w engineWorkload) []engineRung {
	rungs := []engineRung{
		{name: "graph", procs: w.procs, bare: true},
		{name: "core", below: "graph", procs: w.procs},
		{name: e2eRung, below: "core", procs: w.procs, st: stack{subscribe: true}},
		{name: "metrics", below: e2eRung, procs: w.procs, st: stack{subscribe: true, instrument: true}},
	}
	if w.sharded {
		rungs = append(rungs,
			engineRung{name: "batch@p1", procs: 1, st: stack{template: true, subscribe: true}},
			engineRung{name: "sharded@p1", below: "batch@p1", procs: 1, st: stack{subscribe: true}},
		)
	}
	return rungs
}

// rungRun is what one rung measured.
type rungRun struct {
	st     replayStats
	events int
	mem    float64 // spill utilization
	nodes  int
	edges  int
	mis    []dynmis.NodeID
	verr   error // Verify on the traced e2e rung
}

// traceEngine runs the engine peel ladder: an untraced pass of the e2e
// stack sizes the replay (K chunks), then every rung replays exactly
// those K chunks from freshly generated identical inputs, each chunk a
// span. Self time of a layer is its rung minus the rung below.
func traceEngine(ctx context.Context, cfg config, w engineWorkload) (result, error) {
	ladder := engineLadder(w)
	e2e := ladder[slices.IndexFunc(ladder, func(r engineRung) bool { return r.name == e2eRung })]
	// The timed replays of all climbs together last about cfg.seconds.
	budget := cfg.seconds / time.Duration((len(ladder)+1)*traceReps)

	rec := newRecorder()
	runs := make(map[string]*rungRun, len(ladder))
	res := result{correct: true}
	var (
		checkErr      error
		k             int
		untracedRates []float64
	)
	for rep := range traceReps {
		rec.rep = rep
		// The untraced e2e stack: on the first climb it sizes the
		// replay at K chunks; every later replay applies exactly K.
		u, err := runRung(ctx, cfg, w, e2e, budget, k, nil, false)
		if err != nil {
			return result{}, err
		}
		k = u.st.chunks
		untracedRates = append(untracedRates, u.st.meter.overall())
		for _, r := range ladder {
			rr, err := runRung(ctx, cfg, w, r, 0, k, rec, rep == traceReps-1 && r.name == e2eRung)
			if err != nil {
				return result{}, err
			}
			runs[r.name] = rr
			res.attempted += rr.st.changes + rr.st.failed
			res.failed += rr.st.failed
			if rr.st.err != nil && checkErr == nil {
				checkErr = fmt.Errorf("rung %s: %w", r.name, rr.st.err)
			}
		}
	}
	rows := make([]rung, 0, len(ladder))
	for _, r := range ladder {
		total, changes := rec.total(r.name)
		rows = append(rows, rung{name: r.name, below: r.below, total: total, changes: changes})
	}
	// Every rung applied the same changes: equal graphs, and every
	// engine rung (all π-equivalent at seed 1) the same MIS.
	ref := runs[e2eRung]
	for _, r := range ladder {
		rr := runs[r.name]
		if rr.nodes != ref.nodes || rr.edges != ref.edges {
			checkErr = fmt.Errorf("rung %s ends with %d nodes %d edges, %s with %d/%d", r.name, rr.nodes, rr.edges, e2eRung, ref.nodes, ref.edges)
		}
		if !r.bare && !slices.Equal(rr.mis, ref.mis) {
			checkErr = fmt.Errorf("rung %s MIS differs from rung %s", r.name, e2eRung)
		}
	}
	reportCheck(cfg.log, "every rung applied the same changes to the same structure", checkErr)
	res.correct = checkErr == nil && ref.verr == nil && res.failed == 0

	printLadder(cfg.log, cfg.workload, rows)
	top, topChanges := rec.total(e2eRung)
	tracedRate, untracedRate := float64(topChanges)/top.Seconds(), median(untracedRates)
	fmt.Fprintf(cfg.log, "tracing overhead (%s): traced %s rung %.0f changes/s vs untraced %.0f changes/s (%+.1f%%)\n",
		cfg.workload, e2eRung, tracedRate, untracedRate, 100*(untracedRate/tracedRate-1))

	per := func(name string) float64 {
		d, n := rec.total(name)
		return perChangeNS(d, n)
	}
	core := runs["core"]
	chg := float64(core.st.changes)
	res.metrics = map[string]float64{
		"graph.apply_ns":              per("graph"),
		"graph.spill_utilization":     ref.mem,
		"core.recover_ns":             per("core") - per("graph"),
		"core.adjustments_per_change": float64(core.st.total.Adjustments) / chg,
		"core.s_size_per_change":      float64(core.st.total.SSize) / chg,
		"core.flips_per_change":       float64(core.st.total.Flips) / chg,
		"core.useful_ratio":           float64(core.st.total.Adjustments) / float64(max(core.st.total.Flips, 1)),
		"feed.publish_ns":             per(e2eRung) - per("core"),
		"feed.events_per_change":      float64(ref.events) / float64(ref.st.changes),
		"metrics.instrument_ns":       per("metrics") - per(e2eRung),
	}
	if w.sharded {
		windows := float64(len(ref.st.calls))
		batch, _ := rec.total("batch@p1")
		sh1, _ := rec.total("sharded@p1")
		sh2, _ := rec.total(e2eRung)
		res.metrics["core.batch_us"] = float64(batch.Microseconds()) / windows
		res.metrics["shard.overhead_us"] = float64((sh1 - batch).Microseconds()) / windows
		res.metrics["shard.parallel_gain"] = sh1.Seconds() / sh2.Seconds()
		res.metrics["shard.cores_busy"] = ref.st.cpu.Seconds() / ref.st.meter.elapsed.Seconds()
		res.metrics["shard.cross_shard_per_change"] = float64(ref.st.total.CrossShard) / float64(ref.st.changes)
		res.metrics["shard.steals_per_window"] = float64(ref.st.total.Steals) / windows
	}
	if err := rec.writeJSONL(cfg.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "  %d spans written to %s\n", len(rec.spans), cfg.spans)
	return res, nil
}

// runRung builds rung r from freshly generated inputs (untimed) and
// replays the drive stream through it: for budget when maxChunks is 0,
// else exactly maxChunks chunks. verify runs the greedy oracle after.
func runRung(ctx context.Context, cfg config, w engineWorkload, r engineRung, budget time.Duration, maxChunks int, rec *recorder, verify bool) (*rungRun, error) {
	runtime.GOMAXPROCS(r.procs)
	in, err := newInputs(cfg.seed, w.scenario, w.n)
	if err != nil {
		return nil, err
	}
	defer in.stop()

	rr := &rungRun{st: replayStats{meter: rateMeter{interval: cfg.sz.interval}}}
	var (
		subj  subject
		g     *graph.Graph
		m     *dynmis.Maintainer
		probe *feedProbe
	)
	if r.bare {
		if g, err = w.newGraph(in.build); err != nil {
			return nil, err
		}
		subj = graphSubject{g}
	} else {
		if m, probe, err = w.newMaintainer(ctx, in.build, r.st); err != nil {
			return nil, err
		}
		subj = maintSubject{m}
	}
	in.build = nil
	runtime.GC()
	if probe != nil {
		probe.events = 0
	}
	err = replay(ctx, in, subj, w.unit, cfg.sz.window, probe, budget, maxChunks, rec, r.name, r.name == e2eRung, &rr.st)
	if err != nil {
		return nil, err
	}
	if g != nil {
		rr.nodes, rr.edges = g.NodeCount(), g.EdgeCount()
		return rr, nil
	}
	rr.nodes, rr.edges, rr.mis = m.NodeCount(), m.EdgeCount(), m.MIS()
	if mem, ok := m.MemoryProfile(); ok {
		rr.mem = mem.SpillUtilization
	}
	if probe != nil {
		rr.events = probe.events
	}
	if verify {
		rr.verr = m.Verify()
		reportCheck(cfg.log, "engine Verify (greedy oracle) on the "+e2eRung+" rung", rr.verr)
	}
	return rr, nil
}
