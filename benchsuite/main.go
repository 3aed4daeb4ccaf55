package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// sizes fixes the input sizes and rates of the four workloads. The
// suite runs fullSizes; the tests run a tiny copy.
type sizes struct {
	geoN, hubN, steadyN, bulkN int
	window                     int           // engine-hubs ApplyBatch window (changes)
	steadyRate, steadyBatch    int           // serve-steady: requests/s, changes/request
	bulkBatch                  int           // serve-bulk: changes/request
	bulkRateCap                float64       // changes/s the pre-generated serve-bulk bodies can sustain
	bulkRetain                 int           // serve-bulk -retain (events)
	snapEvery                  int           // serve-steady -snap-every
	setups                     int           // set-ups per run; setup_s is their median
	warmup                     time.Duration // untimed drive before the timed phase
	interval                   time.Duration // throughput sampling interval
}

var fullSizes = sizes{
	geoN: 200_000, hubN: 200_000, steadyN: 50_000, bulkN: 200_000,
	window:     512,
	steadyRate: 500, steadyBatch: 16,
	bulkBatch: 1024, bulkRateCap: 180_000, bulkRetain: 1 << 16,
	snapEvery: 10_000,
	setups:    3,
	warmup:    2 * time.Second,
	interval:  500 * time.Millisecond,
}

// config is one invocation: a workload, its input seed, the length of
// the timed phase, and whether to run the traced peel ladder instead of
// the end-to-end measurement.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dynmisd  string // path of the built daemon binary
	scratch  string // directory for WALs and other run files
	spans    string // JSONL span output of a traced run
	sz       sizes
	log      io.Writer // human-readable report
}

// result is what a workload run reports; main renders it as the final
// JSON line.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// workloadDef names a workload and runs it. Why each exists is in the
// package doc and in BENCHMARK.json.
type workloadDef struct {
	name string
	run  func(context.Context, config) (result, error)
}

// workloads lists the suite in order.
var workloads = []workloadDef{
	{"engine-geo", runEngineGeo},
	{"engine-hubs", runEngineHubs},
	{"serve-steady", runServeSteady},
	{"serve-bulk", runServeBulk},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed (the engine and daemon seed is always 1)")
		seconds = flag.Float64("seconds", 15, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced peel ladder and reports per-layer metrics")
		dynmisd = flag.String("dynmisd", ".bench_build/dynmisd", "dynmisd binary for the serve workloads")
		scratch = flag.String("scratch", ".bench_build/run", "directory for run files (WALs, spans)")
		spans   = flag.String("spans", "", "span JSONL output of a traced run (default <scratch>/spans-<workload>.jsonl)")
	)
	flag.Parse()
	cfg := config{
		workload: *name, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		dynmisd: *dynmisd, scratch: *scratch, spans: *spans,
		sz: fullSizes, log: os.Stdout,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.scratch, "spans-"+cfg.workload+".jsonl")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	line, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run executes one workload and returns the final JSON result line.
// It prints every metric by name with its unit to cfg.log first. An
// output check that fails is not an error: it is reported as
// "correct": false.
func run(ctx context.Context, cfg config) (string, error) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == cfg.workload })
	if i < 0 {
		return "", fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return "", errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return "", err
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	res, err := workloads[i].run(ctx, cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = make([]metricDef, len(layerMetrics))
		for j, l := range layerMetrics {
			defs[j] = l.metricDef
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value, len(defs))}
	fmt.Fprintf(cfg.log, "%s (seed %d, %v timed):\n", cfg.workload, cfg.seed, cfg.seconds)
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(cfg.log, "  %-30s %16.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(cfg.log, "  correct=%v attempted=%d failed=%d\n", res.correct, res.attempted, res.failed)
	data, err := json.Marshal(out)
	return string(data), err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
