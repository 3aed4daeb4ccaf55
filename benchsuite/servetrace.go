package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dynmis"
	"dynmis/internal/graph"
	"dynmis/server"
	"dynmis/trace"
)

// decodeBody decodes a POST /v1/changes array body the way the daemon's
// handler does: the array into raw records, then each record with
// trace.UnmarshalChange.
func decodeBody(body []byte) ([]dynmis.Change, error) {
	var raws []json.RawMessage
	if err := json.Unmarshal(body, &raws); err != nil {
		return nil, err
	}
	cs := make([]dynmis.Change, len(raws))
	for i, raw := range raws {
		c, err := trace.UnmarshalChange(raw)
		if err != nil {
			return nil, err
		}
		cs[i] = c
	}
	return cs, nil
}

// serveRung is one in-process rung of the serve ladder. Each rung
// includes every layer below it.
type serveRung struct {
	name, below string
}

// serveLadder is the in-process part of the serve ladder, bottom up:
// the arena; the engine; plus the counting subscriber; plus
// instrumentation (the engine as the server configures it); plus body
// decoding; plus the WAL append and commit; then the whole
// server.Ingest path. The real HTTP request to the child daemon ("http")
// and delivery to the subscriber sit on top.
var serveLadder = []serveRung{
	{"graph", ""},
	{"core", "graph"},
	{"feed", "core"},
	{"metrics", "feed"},
	{"decode", "metrics"},
	{"wal", "decode"},
	{"server", "wal"},
}

func rungIndex(name string) int {
	return slices.IndexFunc(serveLadder, func(r serveRung) bool { return r.name == name })
}

// serveRungRun is what one in-process rung measured.
type serveRungRun struct {
	total      dynmis.Report
	changes    int
	failed     int
	err        error
	events     int
	walBytes   int64
	walDecode  time.Duration // reading and decoding the pre-written WAL
	replay     time.Duration // applying it change by change (recovery)
	spillUtil  float64
	nodes      int
	mis        []dynmis.NodeID
	ingestDurs []time.Duration // server rung: one per request
}

// runServeRung builds rung r's state from the pre-written WAL (untimed)
// and replays the first k request bodies through it, one span per
// request.
func runServeRung(ctx context.Context, w serveWorkload, si *serveInputs, r serveRung, k int, rec *recorder) (*serveRungRun, error) {
	level := rungIndex(r.name)
	rr := &serveRungRun{}
	dir, err := os.MkdirTemp(si.dir, r.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	f, err := os.Open(si.wal)
	if err != nil {
		return nil, err
	}
	build, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("read wal: %w", err)
	}
	rr.walDecode = time.Since(start)

	var (
		g     *graph.Graph
		m     *dynmis.Maintainer
		probe *feedProbe
		srv   *server.Server
		walF  *os.File
		tw    *trace.Writer
	)
	switch {
	case level == 0:
		g = graph.New()
		g.Grow(w.n)
		for _, c := range build {
			if err := c.Apply(g); err != nil {
				return nil, err
			}
		}
	case r.name == "server":
		wal := filepath.Join(dir, "wal.jsonl")
		if err := copyFile(wal, si.wal); err != nil {
			return nil, err
		}
		if srv, err = server.Open(w.serverConfig(wal)); err != nil {
			return nil, err
		}
		defer srv.Close()
	default:
		opts := []dynmis.Option{dynmis.WithEngine(dynmis.EngineTemplate), dynmis.WithSeed(1)}
		if level >= rungIndex("metrics") {
			opts = append(opts, dynmis.WithInstrumentation())
		}
		if m, err = dynmis.New(opts...); err != nil {
			return nil, err
		}
		if level >= rungIndex("feed") {
			probe = &feedProbe{}
			m.Subscribe(probe.onEvent)
		}
		m.Grow(w.n)
		start := time.Now()
		for _, c := range build {
			if _, err := m.Apply(c); err != nil {
				return nil, err
			}
		}
		rr.replay = time.Since(start)
		if r.name == "wal" {
			if walF, err = os.Create(filepath.Join(dir, "wal.jsonl")); err != nil {
				return nil, err
			}
			defer walF.Close()
			tw = trace.NewWriter(walF)
			if err := tw.Sync(); err != nil {
				return nil, err
			}
		}
	}
	build = nil
	runtime.GC()
	if probe != nil {
		probe.events = 0
	}
	var walStart int64
	if walF != nil {
		st, err := walF.Stat()
		if err != nil {
			return nil, err
		}
		walStart = st.Size()
	}

	decodeTimed := level >= rungIndex("decode")
	for i, body := range si.bodies[:k] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cs []dynmis.Change
		if !decodeTimed {
			if cs, err = decodeBody(body); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if decodeTimed {
			if cs, err = decodeBody(body); err != nil {
				return nil, err
			}
		}
		switch {
		case g != nil:
			for _, c := range cs {
				if err := c.Apply(g); err != nil {
					rr.failed++
					rr.err = err
				}
			}
		case srv != nil:
			res, err := srv.Ingest(cs)
			if err != nil || res.Rejected > 0 {
				rr.failed += len(cs) - res.Accepted
				rr.err = fmt.Errorf("ingest: %v, %d rejected", err, res.Rejected)
			}
		default:
			for _, c := range cs {
				rep, err := m.Apply(c)
				if err != nil {
					rr.failed++
					rr.err = err
					continue
				}
				rr.total.Add(rep)
				if tw != nil {
					if err := tw.Write(c); err != nil {
						return nil, err
					}
				}
			}
			if tw != nil {
				cstart := time.Now()
				commit := tw.Flush
				if w.fsync == server.FsyncAlways {
					commit = tw.Sync
				}
				if err := commit(); err != nil {
					return nil, err
				}
				rec.add("wal.commit", "wal", i, len(cs), cstart, time.Now())
			}
		}
		end := time.Now()
		rec.add(r.name, "", i, len(cs), start, end)
		if srv != nil {
			rr.ingestDurs = append(rr.ingestDurs, end.Sub(start))
		}
		rr.changes += len(cs)
	}

	switch {
	case g != nil:
		rr.nodes = g.NodeCount()
	case srv != nil:
		if mz := srv.Metricsz(); mz.Memory != nil {
			rr.nodes = int(mz.Memory.Nodes)
		}
		if rr.mis, err = serverMIS(srv); err != nil {
			return nil, err
		}
	default:
		rr.nodes, rr.mis = m.NodeCount(), m.MIS()
		if mem, ok := m.MemoryProfile(); ok {
			rr.spillUtil = mem.SpillUtilization
		}
		if probe != nil {
			rr.events = probe.events
		}
	}
	if walF != nil {
		st, err := walF.Stat()
		if err != nil {
			return nil, err
		}
		rr.walBytes = st.Size() - walStart
	}
	return rr, nil
}

// serverMIS reads the MIS through the server's own /v1/mis handler.
func serverMIS(srv *server.Server) ([]dynmis.NodeID, error) {
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/mis", nil))
	var doc server.MISDoc
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("in-process /v1/mis: %w", err)
	}
	return doc.MIS, nil
}

// serveTraceReps is how many times a traced serve run climbs the
// in-process part of its ladder: each rung recovers its state from the
// pre-written WAL first, which makes a climb costly.
const serveTraceReps = 2

// traceServe runs the serve peel ladder. An untraced daemon phase of a
// fifth of the run sizes it at K requests; a traced daemon phase sends
// the same K requests (the "http" rung, send → ack per request, plus
// delivery to the subscriber); then the in-process rungs replay the
// same K request bodies, climbing the ladder serveTraceReps times.
func traceServe(ctx context.Context, cfg config, w serveWorkload) (result, error) {
	phaseLen := cfg.seconds / 5
	si, err := w.prepare(cfg, phaseLen)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(si.dir)
	res := result{}
	var checkErr error
	keep := func(err error) {
		if err != nil && checkErr == nil {
			checkErr = err
		}
	}

	// Untraced and traced daemon phases alternate, twice, so daemon-run
	// noise does not pose as tracing overhead. The first untraced phase
	// is time-bounded and fixes K; the others send exactly K requests.
	rec := newRecorder()
	var (
		k                     int
		t                     *phase
		untracedSvc, traceSvc []float64
	)
	for rep := range 2 {
		rec.rep = rep
		for _, traced := range []bool{false, true} {
			var prec *recorder
			budget := time.Duration(math.MaxInt64 / 2)
			if traced {
				prec = rec
			} else if k == 0 {
				budget = phaseLen
			}
			runtime.GC()
			ph, err := w.runDaemon(ctx, cfg, si, 1, k, 0, budget, prec)
			if err != nil {
				return result{}, err
			}
			failed, err := w.check(ctx, cfg, ph)
			keep(err)
			res.failed += failed
			for _, r := range ph.reqs {
				res.attempted += r.changes
			}
			k = len(ph.reqs)
			if traced {
				t = ph
				traceSvc = append(traceSvc, serviceP50(ph.reqs, cfg.sz.interval))
			} else {
				untracedSvc = append(untracedSvc, serviceP50(ph.reqs, cfg.sz.interval))
			}
		}
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	runs := make(map[string]*serveRungRun, len(serveLadder))
	var walDecodes, replays []float64
	for rep := range serveTraceReps {
		rec.rep = rep
		for _, r := range serveLadder {
			rr, err := runServeRung(ctx, w, si, r, k, rec)
			if err != nil {
				return result{}, fmt.Errorf("rung %s: %w", r.name, err)
			}
			runs[r.name] = rr
			res.attempted += rr.changes
			res.failed += rr.failed
			if rr.err != nil {
				keep(fmt.Errorf("rung %s: %w", r.name, rr.err))
			}
			if r.name == "metrics" {
				walDecodes = append(walDecodes, rr.walDecode.Seconds())
				replays = append(replays, rr.replay.Seconds())
			}
		}
	}
	var ladderErr error
	ref := runs["server"]
	for _, r := range serveLadder {
		rr := runs[r.name]
		if rr.nodes != ref.nodes {
			ladderErr = fmt.Errorf("rung %s ends with %d nodes, server rung with %d", r.name, rr.nodes, ref.nodes)
		}
		if r.name != "graph" && !slices.Equal(rr.mis, ref.mis) {
			ladderErr = fmt.Errorf("rung %s MIS differs from the server rung", r.name)
		}
	}
	reportCheck(cfg.log, "every rung applied the same changes to the same structure", ladderErr)
	keep(ladderErr)
	res.correct = checkErr == nil && res.failed == 0

	rows := make([]rung, 0, len(serveLadder)+1)
	for _, r := range serveLadder {
		total, changes := rec.total(r.name)
		rows = append(rows, rung{name: r.name, below: r.below, total: total, changes: changes})
	}
	httpTotal, httpChanges := rec.total("http")
	rows = append(rows, rung{name: "http", below: "server", total: httpTotal, changes: httpChanges})
	printLadder(cfg.log, cfg.workload, rows)

	deliver := make([]time.Duration, len(t.sub.events))
	for i, ev := range t.sub.events {
		deliver[i] = ev.deliver
	}
	fmt.Fprintf(cfg.log, "  delivery to the subscriber (receipt - WireEvent.TS): p50 %.3f ms, p99 %.3f ms over %d events\n",
		ms(quantile(deliver, 0.5)), ms(quantile(deliver, 0.99)), len(deliver))
	tracedP50, untracedP50 := median(traceSvc), median(untracedSvc)
	fmt.Fprintf(cfg.log, "tracing overhead (%s): traced http rung p50 send->ack %.3f ms vs untraced %.3f ms (%+.1f%%)\n",
		cfg.workload, tracedP50, untracedP50, 100*(tracedP50/untracedP50-1))

	per := func(name string) float64 {
		d, n := rec.total(name)
		return perChangeNS(d, n)
	}
	perReq := func(name string) float64 { // µs per request
		d, _ := rec.total(name)
		return float64(d.Nanoseconds()) / 1e3 / float64(k)
	}
	core := runs["core"]
	chg := float64(core.changes)
	commit, _ := rec.total("wal.commit")
	lags := make([]time.Duration, len(t.reqs))
	bodyBytes := 0
	for i, r := range t.reqs {
		lags[i] = r.sent - r.due
		bodyBytes += len(si.bodies[i])
	}
	ingest := runs["server"].ingestDurs
	res.metrics = map[string]float64{
		"graph.apply_ns":              per("graph"),
		"graph.spill_utilization":     runs["metrics"].spillUtil,
		"core.recover_ns":             per("core") - per("graph"),
		"core.adjustments_per_change": float64(core.total.Adjustments) / chg,
		"core.s_size_per_change":      float64(core.total.SSize) / chg,
		"core.flips_per_change":       float64(core.total.Flips) / chg,
		"core.useful_ratio":           float64(core.total.Adjustments) / float64(max(core.total.Flips, 1)),
		"feed.publish_ns":             per("feed") - per("core"),
		"feed.events_per_change":      float64(runs["feed"].events) / chg,
		"metrics.instrument_ns":       per("metrics") - per("feed"),
		"trace.decode_ns":             per("decode") - per("metrics"),
		"trace.bytes_per_change":      float64(bodyBytes) / chg,
		"wal.append_ns":               per("wal") - per("decode") - perChangeNS(commit, core.changes),
		"wal.bytes_per_change":        float64(runs["wal"].walBytes) / chg,
		"wal.commit_us":               float64(commit.Nanoseconds()) / 1e3 / float64(k),
		"wal.fsyncs_per_request":      float64(t.end.WALFsyncs-t.boot.WALFsyncs) / float64(k),
		"http.request_self_us":        perReq("http") - perReq("server"),
		"server.ingest_self_us":       perReq("server") - perReq("wal"),
		"server.ingest_p99_us":        float64(quantile(ingest, 0.99).Nanoseconds()) / 1e3,
		"server.stall_max_ms":         ms(slices.Max(ingest)),
		"server.snapshots":            float64(t.end.Snapshots - t.boot.Snapshots),
		"hub.deliver_p50_ms":          ms(quantile(deliver, 0.5)),
		"hub.deliver_p99_ms":          ms(quantile(deliver, 0.99)),
		"hub.bytes_per_event":         float64(t.sub.bytes) / float64(max(len(t.sub.events), 1)),
		"trace.wal_decode_s":          median(walDecodes),
		"core.replay_s":               median(replays),
		"loadgen.send_lag_p99_ms":     ms(quantile(lags, 0.99)),
		"loadgen.cpu_frac":            t.cpuFrac,
	}
	if err := rec.writeJSONL(cfg.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "  %d spans written to %s\n", len(rec.spans), cfg.spans)
	return res, nil
}

// serviceP50 is the median send → ack time, in ms, of the requests in
// the faster half of a phase's windows, as the end-to-end figures are
// measured.
func serviceP50(reqs []request, interval time.Duration) float64 {
	svc := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		svc[i] = r.acked - r.sent
	}
	_, lat, _ := summarize(fasterHalf(ackWindows(reqs, nil, 0, interval)), svc, nil)
	return ms(quantile(lat, 0.5))
}
