package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"dynmis"
	"dynmis/server"
	"dynmis/trace"
	"dynmis/workload"
)

// serveResult is the "serve" section of BENCH_dynmis.json: the daemon
// benchmarked over real HTTP on a loopback listener — ingest throughput
// through POST /v1/stream and the subscriber-visible event latency
// (publication in the daemon to receipt in the subscriber, measured
// against WireEvent.TS) across all concurrent subscribers.
type serveResult struct {
	Scenario      string  `json:"scenario"`
	Updates       int     `json:"updates"`
	Subscribers   int     `json:"subscribers"`
	Fsync         string  `json:"fsync"`
	IngestSeconds float64 `json:"ingest_seconds"`
	IngestPerSec  float64 `json:"ingest_updates_per_sec"`
	Events        uint64  `json:"events"`
	// EventsDelivered is Events × Subscribers: every subscriber received
	// the full gap-free stream or the run failed.
	EventsDelivered uint64  `json:"events_delivered"`
	LatencyP50Ms    float64 `json:"subscriber_latency_p50_ms"`
	LatencyP99Ms    float64 `json:"subscriber_latency_p99_ms"`
	GapFree         bool    `json:"gap_free"`
}

// runServe boots an in-process dynmisd core on a real loopback listener,
// attaches subs concurrent NDJSON subscribers, drives the churn scenario
// at the requested size over POST /v1/stream, and reports ingest
// throughput plus subscriber latency percentiles. Every subscriber's
// stream is checked for gaps; any gap fails the benchmark.
func runServe(seed uint64, n, steps, subs int) (*serveResult, error) {
	dir, err := os.MkdirTemp("", "dynmis-bench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	srv, err := server.Open(server.Config{
		Seed:    seed,
		WALPath: filepath.Join(dir, "wal.jsonl"),
		Fsync:   server.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	sc, ok := workload.ScenarioByName("churn")
	if !ok {
		return nil, fmt.Errorf("churn scenario missing")
	}
	inst := sc.Instantiate(seed, n, steps)
	changes := slices.Concat(inst.Build, inst.Drive)

	// A local reference replay tells the subscribers how many events the
	// run produces, so each can read exactly that many and hang up. It
	// runs the server's engine, EngineTemplate.
	ref, err := dynmis.New(dynmis.WithSeed(seed), dynmis.WithEngine(dynmis.EngineTemplate))
	if err != nil {
		return nil, err
	}
	var want uint64
	ref.Subscribe(func(dynmis.Event) { want++ })
	for _, c := range changes {
		if _, err := ref.Apply(c); err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
	}

	// Subscribers attach before any traffic exists, so every latency
	// sample is a live measurement, not backlog replay.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: subs + 1}}
	type subOut struct {
		latencies []int64 // receipt - publication, nanoseconds
		err       error
	}
	outs := make([]subOut, subs)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = subscribeAndMeasure(client, base, want)
		}()
	}

	var buf bytes.Buffer
	for _, c := range changes {
		line, err := trace.MarshalChange(c)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/stream", "application/x-ndjson", &buf)
	if err != nil {
		return nil, err
	}
	var res server.IngestResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	ingestSeconds := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || res.Rejected > 0 {
		return nil, fmt.Errorf("serve bench ingest: status %s, %d rejected", resp.Status, res.Rejected)
	}

	wg.Wait()
	var all []int64
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("serve bench subscriber %d: %w", i, o.err)
		}
		all = append(all, o.latencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / 1e6
	}

	return &serveResult{
		Scenario:        "churn",
		Updates:         len(changes),
		Subscribers:     subs,
		Fsync:           server.FsyncInterval.String(),
		IngestSeconds:   ingestSeconds,
		IngestPerSec:    float64(len(changes)) / ingestSeconds,
		Events:          want,
		EventsDelivered: want * uint64(subs),
		LatencyP50Ms:    pct(0.50),
		LatencyP99Ms:    pct(0.99),
		GapFree:         true,
	}, nil
}

// subscribeAndMeasure holds one /v1/events subscription open from seq 0,
// verifying contiguity and timestamping each event's receipt, until
// `want` events have arrived.
func subscribeAndMeasure(client *http.Client, base string, want uint64) (out struct {
	latencies []int64
	err       error
}) {
	resp, err := client.Get(base + "/v1/events?from=0")
	if err != nil {
		out.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("GET /v1/events: %s", resp.Status)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	out.latencies = make([]int64, 0, want)
	var cursor uint64
	for cursor < want && sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		now := time.Now().UnixNano()
		var ev server.WireEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.err = err
			return
		}
		if ev.Cause == "" {
			out.err = fmt.Errorf("unexpected terminal record at seq %d", cursor)
			return
		}
		if ev.Seq != cursor+1 {
			out.err = fmt.Errorf("gap: have %d, got %d", cursor, ev.Seq)
			return
		}
		cursor = ev.Seq
		out.latencies = append(out.latencies, now-ev.TS)
	}
	if cursor < want {
		out.err = fmt.Errorf("stream ended early at %d/%d: %v", cursor, want, sc.Err())
	}
	return
}
