package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes runs every workload in about a second.
var tinySizes = sizes{
	geoN: 2000, hubN: 2000, steadyN: 500, bulkN: 2000,
	window:     64,
	steadyRate: 200, steadyBatch: 8,
	bulkBatch: 64, bulkRateCap: 400_000, bulkRetain: 1 << 12,
	snapEvery: 200,
	setups:    2,
	warmup:    100 * time.Millisecond,
	interval:  100 * time.Millisecond,
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileLint checks BENCHMARK.json against the suite: names,
// counts, units and bounds, the workload list, and that every layer
// metric's "moves"/"on" targets are real end-to-end metrics and
// workloads.
func TestBenchmarkFileLint(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(bf.Workloads))
	}
	var wnames []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		wnames = append(wnames, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if want := strings.Split(workloadNames(), ", "); !slices.Equal(wnames, want) {
		t.Errorf("workloads %v, suite runs %v", wnames, want)
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(bf.EndToEnd))
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Errorf("%d end-to-end metrics, suite reports %d", len(bf.EndToEnd), len(e2eMetrics))
	}
	e2e := make(map[string]bool)
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound", m.Name)
		}
		if i < len(e2eMetrics) && (m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit) {
			t.Errorf("end-to-end metric %d is %s [%s], suite reports %s [%s]", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(bf.PerLayer))
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, suite reports %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction", m.Name)
		}
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit) {
			t.Errorf("per-layer metric %d is %s [%s], suite reports %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	for _, l := range layerMetrics {
		if l.layer == "" || len(l.moves) == 0 || len(l.on) == 0 {
			t.Errorf("layer metric %s: no layer, moves or on", l.name)
		}
		for _, m := range l.moves {
			if !e2e[m] {
				t.Errorf("layer metric %s moves unknown end-to-end metric %q", l.name, m)
			}
		}
		for _, w := range l.on {
			if !slices.Contains(wnames, w) {
				t.Errorf("layer metric %s names unknown workload %q", l.name, w)
			}
		}
	}

	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchsuite" {
		t.Errorf("paths %v, want [benchsuite]", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(bf.Command))
	}
	for _, arg := range bf.Command[1:] {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchsuite/") {
			t.Errorf("command argument %q names a file outside the benchmark's paths", arg)
		}
	}
}

// TestOpenLoopChargesStallToQueuedRequests guards against coordinated
// omission: when one ack stalls, the requests due behind it are sent
// late, and their latency is counted from when they were due.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := n.Add(1)
		if i == 3 {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"accepted":1,"rejected":0,"seq":%d}`, 2*i)
	}))
	defer srv.Close()

	const rate = 100 // a request every 10ms
	bodies := make([][]byte, 12)
	counts := make([]int, len(bodies))
	for i := range bodies {
		bodies[i], counts[i] = []byte("[]"), 1
	}
	reqs, err := sendAll(context.Background(), srv.Client(), srv.URL, bodies, counts, rate, 0, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(bodies) {
		t.Fatalf("sent %d requests, want %d", len(reqs), len(bodies))
	}
	if lat := reqs[0].acked - reqs[0].due; lat > 100*time.Millisecond {
		t.Errorf("request 0 latency %v before any stall", lat)
	}
	// Request 2 is acked only after the stall; requests 3..8 were due
	// at 30ms..80ms, before that ack, so each waited for it and is
	// charged the wait on top of its own service time.
	stalledAck := reqs[2].acked
	if stalledAck < stall {
		t.Fatalf("stalled request acked at %v, before the %v stall", stalledAck, stall)
	}
	for i := 3; i <= 8; i++ {
		r := reqs[i]
		if due := time.Duration(i) * time.Second / rate; r.due != due {
			t.Errorf("request %d due at %v, want %v", i, r.due, due)
		}
		if r.sent < stalledAck {
			t.Errorf("request %d sent at %v, before the stalled ack at %v", i, r.sent, stalledAck)
		}
		if wait := (r.acked - r.due) - (r.acked - r.sent); wait < stalledAck-r.due {
			t.Errorf("request %d charged %v of waiting, want at least %v", i, wait, stalledAck-r.due)
		}
	}
}

// TestEventsMapToRequestsBySeqWatermark checks that each event is
// charged to the first request whose ack watermark covers its seq.
func TestEventsMapToRequestsBySeqWatermark(t *testing.T) {
	ms := time.Millisecond
	reqs := []request{
		{due: 0, seq: 2},
		{due: 10 * ms, seq: 2}, // caused no events
		{due: 20 * ms, seq: 5},
		{due: 30 * ms, seq: 9},
	}
	var events []received
	for seq := uint64(1); seq <= 10; seq++ {
		events = append(events, received{seq: seq, at: 100 * ms})
	}
	got, idx := eventLatencies(reqs, events, 0)
	want := []time.Duration{100 * ms, 100 * ms, 80 * ms, 80 * ms, 80 * ms, 70 * ms, 70 * ms, 70 * ms, 70 * ms}
	if !slices.Equal(got, want) {
		t.Errorf("event latencies %v, want %v (seq 10 is covered by no ack and dropped)", got, want)
	}
	if wantIdx := []int{0, 0, 2, 2, 2, 3, 3, 3, 3}; !slices.Equal(idx, wantIdx) {
		t.Errorf("event request indices %v, want %v", idx, wantIdx)
	}
}

// TestTinySuite runs every workload at tiny scale, untraced and traced,
// and checks that each prints every metric of BENCHMARK.json with its
// unit and that every output check passed.
func TestTinySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dynmisd and runs all workloads")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dynmisd")
	build := exec.Command("go", "build", "-o", bin, "dynmis/cmd/dynmisd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dynmisd: %v\n%s", err, out)
	}
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				var log bytes.Buffer
				cfg := config{
					workload: w.name, seed: 7, seconds: time.Second, trace: traced,
					dynmisd: bin, scratch: t.TempDir(), sz: tinySizes, log: &log,
				}
				cfg.spans = filepath.Join(cfg.scratch, "spans.jsonl")
				line, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
				}
				for _, line := range strings.Split(log.String(), "\n") {
					if strings.Contains(line, "check FAILED") {
						t.Errorf("%s", line)
					}
				}
				type named struct{ name, unit string }
				var want []named
				if traced {
					for _, m := range bf.PerLayer {
						want = append(want, named{m.Name, m.Unit})
					}
				} else {
					for _, m := range bf.EndToEnd {
						want = append(want, named{m.Name, m.Unit})
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.name, got.Value)
					}
					if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.name) + `\s+\S+ ` + regexp.QuoteMeta(m.unit) + `$`).MatchString(log.String()) {
						t.Errorf("metric %s is not printed with its unit %s", m.name, m.unit)
					}
				}
				if traced {
					if _, err := os.Stat(cfg.spans); err != nil {
						t.Errorf("no span file: %v", err)
					}
					if !strings.Contains(log.String(), "tracing overhead") || !strings.Contains(log.String(), "peel ladder") {
						t.Errorf("traced run printed no ladder or overhead line")
					}
				}
			})
		}
	}
}

// TestAckWindowsChargeStallsAndKeepFasterHalf checks the serve
// accounting: requests fall into windows by ack time, an interval
// without acks is charged to the next window, event samples follow
// their requests, and fasterHalf keeps the faster windows.
func TestAckWindowsChargeStallsAndKeepFasterHalf(t *testing.T) {
	ms := time.Millisecond
	reqs := []request{
		{acked: 10 * ms, accepted: 10}, {acked: 90 * ms, accepted: 10}, // window 1: 20 changes in 90ms
		// nothing acked in [100ms, 200ms): a stall
		{acked: 250 * ms, accepted: 10},                                  // window 3: 10 changes in 160ms
		{acked: 310 * ms, accepted: 10}, {acked: 390 * ms, accepted: 10}, // window 4: 20 in 140ms
		{acked: 405 * ms, accepted: 10}, // a partial interval: not counted
	}
	evReq := []int{0, 1, 1, 2, 4, 5}
	ws := ackWindows(reqs, evReq, 0, 100*ms)
	want := []window{
		{changes: 20, busy: 90 * ms, callLo: 0, callHi: 2, evLo: 0, evHi: 3},
		{changes: 10, busy: 160 * ms, callLo: 2, callHi: 3, evLo: 3, evHi: 4},
		{changes: 20, busy: 140 * ms, callLo: 3, callHi: 5, evLo: 4, evHi: 5},
	}
	if !slices.Equal(ws, want) {
		t.Fatalf("windows %+v, want %+v", ws, want)
	}
	fast := fasterHalf(ws)
	if len(fast) != 2 || fast[0] != want[0] || fast[1] != want[2] {
		t.Errorf("faster half %+v, want windows 1 and 4", fast)
	}
	calls := []time.Duration{1, 2, 3, 4, 5, 6}
	rate, callLat, evLat := summarize(fast, calls, []time.Duration{10, 11, 12, 13, 14, 15})
	if want := 40 / (230 * ms).Seconds(); rate != want {
		t.Errorf("rate %v, want %v", rate, want)
	}
	if !slices.Equal(callLat, []time.Duration{1, 2, 4, 5}) || !slices.Equal(evLat, []time.Duration{10, 11, 12, 14}) {
		t.Errorf("latency samples %v and %v, want those of windows 1 and 4", callLat, evLat)
	}
}
