// Command validate is the paper-claims validation harness: it drives the
// workload scenarios across all eight engines with complexity
// instrumentation enabled (dynmis.WithInstrumentation) and emits
// docs/VALIDATION.md — tables of measured amortized adjustments,
// cascade lengths, rounds, broadcasts and message counts per update,
// set against the bounds the source paper proves (E[adjustments] ≤ 1
// per change, Theorem 1; O(1) rounds and broadcasts for Algorithm 2,
// Theorem 7), plus a head-to-head comparison against the competitor
// dynamic-MIS engines (Gupta–Khan, AOSS) and an MIS-quality section
// that measures every engine's set size against a greedy yardstick and
// the brute-force optimum on small instances. Every engine run is
// verified against the sequential greedy oracle before its numbers are
// reported — the competitors through their band-certificate order — so
// the tables can only ever describe correct executions.
//
// Four further sections (claims.go) cover the claims that no engine
// column shows, on the baseline engines directly, each run passing its
// engine's Check: Luby and Ghaffari recomputing per change against
// Algorithm 2 (§1), ID-ordered greedy against the random order on
// K_{k,k} (§1.1's lower bound), lazy priority revelation (§1.1's bit
// complexity), and the direct implementation's |S|² flips on a fan-path
// gadget (§4). -seed drives them too; -quick shrinks them.
//
// Usage:
//
//	validate [-sizes 100,200,400] [-steps 2000] [-seed 42] [-runs 3] [-shards 1]
//	         [-scenarios churn,sliding-window,single-node-churn,adversarial-deletion]
//	         [-out docs/VALIDATION.md] [-quick] [-check] [-timing]
//	         [-adaptive-smoke]
//
// Besides the oblivious scenario tables the document carries an
// adaptive-adversary matrix: every engine driven engine-in-the-loop
// (Maintainer.DriveInteractive) by the feed-observing policies of
// workload.AdaptiveSource, against an MIS-blind control of the same
// operation shape. -adaptive-smoke runs only that matrix at tiny sizes
// and exits without writing — the CI gate (make validate-adaptive-smoke).
//
// The emitted document starts with a machine-readable schema header;
// -check verifies that an existing document's header matches this
// binary's schema version and exits non-zero on drift, which is the CI
// docs-freshness gate (make validate-smoke). Runs are deterministic for
// a fixed flag set — the workloads come from the canonical seeded rng,
// every engine is deterministic for a fixed seed, and the sharded
// engine defaults to one shard here so its transient-flip counts do not
// depend on goroutine interleaving — so regenerating with unchanged
// flags reproduces the committed file byte for byte. The only
// machine-dependent quantities, wall-clock throughput and allocation
// volume in the head-to-head table, are gated behind -timing and render
// as "·" in the committed document.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dynmis"
	"dynmis/internal/core"
	"dynmis/internal/graph"
	"dynmis/internal/order"
	"dynmis/metrics"
	"dynmis/workload"
)

// schemaVersion names the layout of the emitted document. Bump it when
// the table columns or the header structure change, and regenerate
// docs/VALIDATION.md in the same commit: cmd/validate -check fails CI
// whenever the committed header and this constant drift apart. v3 added
// the deterministic B/node memory column to the head-to-head table; v4
// added the adaptive-adversary matrix (feed-observing policies driven
// engine-in-the-loop against every engine, vs an oblivious control); v5
// added the four baseline sections of claims.go (static recompute,
// deterministic lower bound, bit complexity, direct blow-up).
const schemaVersion = "dynmis-validate/v5"

// schemaMarker is the exact prefix of the machine-readable header line.
const schemaMarker = "<!-- schema: "

// engineSpec is one engine column of the validation matrix.
type engineSpec struct {
	engine dynmis.Engine
	name   string
	opts   func(shards int) []dynmis.Option
}

func engines() []engineSpec {
	specs := make([]engineSpec, 0, len(dynmis.Engines()))
	for _, e := range dynmis.Engines() {
		e := e
		opts := func(int) []dynmis.Option {
			return []dynmis.Option{dynmis.WithEngine(e)}
		}
		if e == dynmis.EngineSharded {
			opts = func(shards int) []dynmis.Option {
				return []dynmis.Option{dynmis.WithEngine(e), dynmis.WithShards(shards)}
			}
		}
		specs = append(specs, engineSpec{engine: e, name: e.String(), opts: opts})
	}
	return specs
}

// row is one (scenario, n, engine) measurement.
type row struct {
	engine  string
	n       int
	updates int
	meanAdj float64
	maxAdj  int
	work    float64 // adjacency entries examined per update (single-machine engines)
	quality float64 // final |MIS| / greedy-yardstick size, averaged over runs
	per     metrics.PerUpdate
}

// flatness pairs an engine's smallest-n and largest-n measurements of
// one scenario for the conformance summary's growth ratio.
type flatness struct {
	scenario, engine string
	first, last      row
}

func main() {
	var (
		sizesCSV = flag.String("sizes", "100,200,400", "comma-separated warm-up sizes n (scenarios may clamp)")
		steps    = flag.Int("steps", 2000, "measured update steps per engine run")
		scenCSV  = flag.String("scenarios", "churn,sliding-window,single-node-churn,adversarial-deletion", "comma-separated scenario names")
		seed     = flag.Uint64("seed", 42, "base random seed (engines and workload generation)")
		runs     = flag.Int("runs", 3, "independent seeded runs aggregated per table row (seeds seed..seed+runs-1)")
		shards   = flag.Int("shards", 1, "shard count for the sharded engine (1 keeps regeneration byte-stable)")
		out      = flag.String("out", "docs/VALIDATION.md", "output markdown path (and the file -check inspects)")
		quick    = flag.Bool("quick", false, "smoke sizes (sizes=60, steps=400) for CI")
		check    = flag.Bool("check", false, "verify -out's schema header matches this binary and exit (no measurement)")
		timing   = flag.Bool("timing", false, "fill the machine-dependent head-to-head columns (upd/s, B/upd); off for the committed byte-stable document")
		adaptive = flag.Bool("adaptive-smoke", false, "run only the adaptive-adversary matrix at smoke sizes, oracle-verified, and exit without writing (the CI gate)")
	)
	flag.Parse()
	if *check {
		if err := checkSchema(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: schema header matches %s\n", *out, schemaVersion)
		return
	}
	if *adaptive {
		runAdaptiveSmoke(*seed, *shards)
		return
	}
	if *quick {
		*sizesCSV, *steps = "60", 400
	}

	sizes, err := parseSizes(*sizesCSV)
	if err != nil {
		fatal(err)
	}
	var scenarios []workload.Scenario
	for _, name := range strings.Split(*scenCSV, ",") {
		sc, ok := workload.ScenarioByName(strings.TrimSpace(name))
		if !ok {
			fatal(fmt.Errorf("unknown scenario %q", name))
		}
		scenarios = append(scenarios, sc)
	}

	var doc strings.Builder
	writeHeader(&doc, *seed, *steps, *runs, sizes, *shards)

	var flat []flatness

	for _, sc := range scenarios {
		fmt.Printf("== %s\n", sc.Name)
		fmt.Fprintf(&doc, "## Scenario: %s\n\n%s.\n\n", sc.Name, sc.Description)
		doc.WriteString(tableHeader)

		// Scenarios with a warm-up cap (adversarial-deletion) clamp
		// large sizes to the same n; measuring the same point twice
		// would just duplicate rows.
		effective := dedupeClamped(sc, sizes)
		byEngine := make(map[string][]row)
		for _, n := range effective {
			for _, es := range engines() {
				r := measure(sc, n, *steps, *seed, *runs, es, *shards)
				byEngine[es.name] = append(byEngine[es.name], r)
				fmt.Printf("   %-14s n=%-5d adj/upd=%.3f max=%d\n", es.name, r.n, r.meanAdj, r.maxAdj)
			}
		}
		for _, es := range engines() {
			for _, r := range byEngine[es.name] {
				writeRow(&doc, r)
			}
			rows := byEngine[es.name]
			if len(rows) > 1 {
				flat = append(flat, flatness{sc.Name, es.name, rows[0], rows[len(rows)-1]})
			}
		}
		doc.WriteString("\n")
	}

	writeConformance(&doc, flat)
	writeHeadToHead(&doc, scenarios[0], sizes[len(sizes)-1], *steps, *seed, *shards, *timing)
	writeAdaptive(&doc, sizes[len(sizes)-1], *steps, *seed, *runs, *shards)
	writeQuality(&doc, *seed)
	writeStaticBaselines(&doc, *seed, *quick)
	writeLowerBound(&doc, *seed, *quick)
	writeBitComplexity(&doc, *seed, *quick)
	writeBlowup(&doc, *quick)
	writeReadingGuide(&doc)

	if err := os.WriteFile(*out, []byte(doc.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// measure aggregates one table row: `runs` independent seeded runs of
// one engine on one scenario at one size. Each run instantiates the
// workload and the engine at its own seed (seed+i), drives an untimed
// warm-up and then the instrumented measurement stream change by change
// (the paper's bounds are per update), and is verified against the
// greedy oracle before its counters are admitted.
//
// Aggregating across seeds matters for the adversarial scenarios: their
// per-update cost is a rare lottery win (probability ~1/n) paying ~n
// adjustments, so a single seed's rate has enormous variance — one
// unlucky leaf-priority minimum reads as a flat zero. Summing a few
// independent orders π is the estimator the "in expectation over π"
// theorems actually talk about.
func measure(sc workload.Scenario, n, steps int, baseSeed uint64, runs int, es engineSpec, shards int) row {
	if runs < 1 {
		runs = 1
	}
	r := row{engine: es.name}
	var agg metrics.Counters
	var totalWork int
	for i := 0; i < runs; i++ {
		seed := baseSeed + uint64(i)
		inst := sc.Instantiate(seed, n, steps)
		r.n = inst.Nodes
		opts := append(es.opts(shards), dynmis.WithSeed(seed), dynmis.WithInstrumentation())
		m, err := dynmis.New(opts...)
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		m.Grow(inst.Nodes)
		if _, err := m.Drive(ctx, slices.Values(inst.Build)); err != nil {
			fatal(fmt.Errorf("%s warm-up: %w", es.name, err))
		}
		// Materialize the measurement stream so the final graph (for the
		// MIS-quality yardstick) can be rebuilt from the change history.
		churn := slices.Collect(inst.Source())
		sum, err := m.Drive(ctx, slices.Values(churn))
		if err != nil {
			fatal(fmt.Errorf("%s drive: %w", es.name, err))
		}
		if err := m.Verify(); err != nil {
			fatal(fmt.Errorf("%s/%s n=%d seed=%d failed oracle verification: %w", sc.Name, es.name, inst.Nodes, seed, err))
		}
		if sum.Metrics == nil {
			fatal(fmt.Errorf("%s: Drive returned no metrics despite WithInstrumentation", es.name))
		}
		agg.Add(*sum.Metrics)
		totalWork += sum.Total.Work
		r.updates += sum.Changes
		r.maxAdj = max(r.maxAdj, sum.Max.Adjustments)
		final := workload.BuildGraph(slices.Concat(inst.Build, churn))
		r.quality += misQuality(len(m.MIS()), final, seed) / float64(runs)
	}
	if agg.Updates > 0 {
		r.meanAdj = float64(agg.Adjustments) / float64(agg.Updates)
		r.work = float64(totalWork) / float64(agg.Updates)
	}
	r.per = agg.PerUpdate()
	return r
}

// measureAdaptive aggregates one adaptive-matrix row: `runs` seeded
// engine-in-the-loop runs of one policy against one engine. Each run
// warms the engine up on the scenario's Build phase, hands the
// adversary the warmed-up graph and the engine's actual MIS, and drives
// it through DriveInteractive — the adversary sees this engine's
// membership feed, so unlike everywhere else in this harness, different
// engines legitimately receive different change streams here. Every run
// is verified against the greedy oracle before its counters are
// admitted.
func measureAdaptive(sc workload.Scenario, n, steps int, baseSeed uint64, runs int, es engineSpec, shards int) row {
	if runs < 1 {
		runs = 1
	}
	r := row{engine: es.name}
	var agg metrics.Counters
	for i := 0; i < runs; i++ {
		seed := baseSeed + uint64(i)
		n2 := sc.ClampNodes(n)
		r.n = n2
		rng := workload.Rand(seed)
		build := sc.Build(rng, n2)
		opts := append(es.opts(shards), dynmis.WithSeed(seed), dynmis.WithInstrumentation())
		m, err := dynmis.New(opts...)
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		m.Grow(n2)
		if _, err := m.Drive(ctx, slices.Values(build)); err != nil {
			fatal(fmt.Errorf("%s/%s warm-up: %w", sc.Name, es.name, err))
		}
		src := sc.NewAdaptive(rng, workload.BuildGraph(build), m.MIS(), steps)
		sum, err := m.DriveInteractive(ctx, src)
		if err != nil {
			fatal(fmt.Errorf("%s/%s drive: %w", sc.Name, es.name, err))
		}
		if err := m.Verify(); err != nil {
			fatal(fmt.Errorf("%s/%s n=%d seed=%d failed oracle verification: %w", sc.Name, es.name, n2, seed, err))
		}
		if sum.Metrics == nil {
			fatal(fmt.Errorf("%s: DriveInteractive returned no metrics despite WithInstrumentation", es.name))
		}
		agg.Add(*sum.Metrics)
		r.updates += sum.Changes
		r.maxAdj = max(r.maxAdj, sum.Max.Adjustments)
	}
	if agg.Updates > 0 {
		r.meanAdj = float64(agg.Adjustments) / float64(agg.Updates)
	}
	r.per = agg.PerUpdate()
	return r
}

// writeAdaptive renders the adaptive-adversary matrix: every engine
// driven by every adaptive policy, with the engine's own oblivious
// control and its same-run single-node-churn rate as the yardsticks.
func writeAdaptive(doc *strings.Builder, n, steps int, seed uint64, runs, shards int) {
	snc, ok := workload.ScenarioByName("single-node-churn")
	if !ok {
		fatal(fmt.Errorf("single-node-churn scenario missing"))
	}
	fmt.Fprintf(doc, `## Adaptive adversaries: engine-in-the-loop vs the oblivious assumption

Theorem 1's O(1) expected adjustments is proved against an *oblivious*
adversary (§1.1): the change sequence is fixed before the random order π
is drawn. This matrix drops that assumption. Each policy
(workload.AdaptiveSource) watches the engine's own membership feed
through Maintainer.DriveInteractive and picks every next change as a
function of the current MIS — deleting a uniform member (adaptive-mis),
the maximum-degree member (adaptive-hub), or farming Gupta–Khan's
deterministic evict-larger-ID rule with fattened hubs (adaptive-gk) —
while adaptive-oblivious is the MIS-blind control with the same
operation shape. Warm-up n=%d, %d adaptive steps per run, %d seeded
runs per row; every run is oracle-verified before its numbers are
admitted.

"×control" is the engine's adj/upd over its own adaptive-oblivious
rate; "×snc" is over the same engine's single-node-churn rate measured
in this same run — the committed worst-case yardstick of the scenario
tables above. Targeting MIS members costs more than blind churn on
*every* engine for a structural reason (each deleted member was a node
that joined and must be replaced, and its replacements' insertions
cascade), so the honest reading is the contrast between the columns:
the paper's engines redraw a fresh hidden priority on every
re-insertion, so no feed-observing strategy can predict the next
conflict's winner and their adaptive-gk rate stays at their control
rate — while Gupta–Khan's eviction rule is deterministic and fully
visible in its output, and adaptive-gk degrades it measurably. The
competitor's O(Δ)-amortized bound is honest about exactly this.

| engine | policy | updates | adj/upd | max adj | ×control | ×snc |
|---|---|---:|---:|---:|---:|---:|
`, snc.ClampNodes(n), steps, runs)
	fmt.Println("== adaptive adversaries")
	for _, es := range engines() {
		base := measure(snc, n, steps, seed, runs, es, shards)
		var control row
		for i, sc := range workload.AdaptiveScenarios() {
			r := measureAdaptive(sc, n, steps, seed, runs, es, shards)
			if i == 0 {
				control = r
			}
			ratio := func(d float64) string {
				if d == 0 {
					return "·"
				}
				return fmt.Sprintf("%.2f", r.meanAdj/d)
			}
			fmt.Fprintf(doc, "| %s | %s | %d | %.3f | %d | %s | %s |\n",
				es.name, sc.Name, r.updates, r.meanAdj, r.maxAdj,
				ratio(control.meanAdj), ratio(base.meanAdj))
			fmt.Printf("   %-14s %-18s adj/upd=%.3f max=%d\n", es.name, sc.Name, r.meanAdj, r.maxAdj)
		}
	}
	doc.WriteString("\n")
}

// runAdaptiveSmoke is the -adaptive-smoke mode: the full engine ×
// policy matrix at tiny sizes, every run oracle-verified
// (measureAdaptive exits nonzero on any failure), nothing written. It
// is the CI gate make validate-adaptive-smoke invokes.
func runAdaptiveSmoke(seed uint64, shards int) {
	const n, steps = 60, 300
	fmt.Printf("== adaptive smoke (n=%d, %d steps)\n", n, steps)
	for _, es := range engines() {
		for _, sc := range workload.AdaptiveScenarios() {
			r := measureAdaptive(sc, n, steps, seed, 1, es, shards)
			fmt.Printf("   %-14s %-18s adj/upd=%.3f max=%d verified\n", es.name, sc.Name, r.meanAdj, r.maxAdj)
		}
	}
	fmt.Println("adaptive smoke passed: every engine, every policy, oracle-verified")
}

// misQuality is the quality yardstick: the engine's final MIS size over
// the size of a sequential greedy MIS on the same final graph under a
// fresh random order (seeded, so regeneration is deterministic). Values
// near 1.0 mean the engine's set is as large as a typical random-greedy
// MIS; the paper's engines sit at exactly the yardstick's distribution,
// the competitors may differ (AOSS's low-degree preference tends to
// land above 1).
func misQuality(misSize int, g *graph.Graph, seed uint64) float64 {
	y := greedySize(g, seed)
	if y == 0 {
		return 1
	}
	return float64(misSize) / float64(y)
}

// greedySize is the size of the greedy MIS on g under a fresh order.
func greedySize(g *graph.Graph, seed uint64) int {
	state := core.GreedyMIS(g, order.New(seed^0x9e3779b97f4a7c15))
	size := 0
	for _, m := range state {
		if m == core.In {
			size++
		}
	}
	return size
}

const tableHeader = "| engine | n | updates | adj/upd | max adj | \\|S\\|/upd | flips/upd | casc-steps/upd | touched/upd | work/upd | rounds/upd | bcasts/upd | msgs/upd | bits/upd | \\|MIS\\|/greedy |\n" +
	"|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n"

// writeRow renders one measurement. Quantities an engine does not model
// at all (the template has no network, the message-passing engines no
// cascade scratch, the distributed engines no update-time work) render
// as "·" rather than a misleading 0.
func writeRow(doc *strings.Builder, r row) {
	dot := func(v float64) string {
		if v == 0 {
			return "·"
		}
		return fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(doc, "| %s | %d | %d | %.3f | %d | %.3f | %.3f | %s | %s | %s | %s | %s | %s | %s | %.3f |\n",
		r.engine, r.n, r.updates, r.meanAdj, r.maxAdj, r.per.Influence, r.per.Flips,
		dot(r.per.CascadeSteps), dot(r.per.TouchedSlots), dot(r.work), dot(r.per.Rounds),
		dot(r.per.Broadcasts), dot(r.per.MessagesSent), dot(r.per.Bits), r.quality)
}

func writeHeader(doc *strings.Builder, seed uint64, steps, runs int, sizes []int, shards int) {
	strs := make([]string, len(sizes))
	for i, n := range sizes {
		strs[i] = strconv.Itoa(n)
	}
	fmt.Fprintf(doc, `# VALIDATION — measured complexity vs. the paper's bounds

%s%s -->
<!-- Generated by cmd/validate. Regenerate with 'make validate'; CI verifies this header with 'go run ./cmd/validate -check'. -->

This document is the empirical check that the reproduction actually
exhibits the quantitative guarantees of *Optimal Dynamic Distributed
MIS* (Censor-Hillel, Haramaty, Karnin; PODC 2016). Every table below is
measured by the complexity-instrumentation subsystem (dynmis/metrics,
attached via the core.Instrument capability) while driving seeded
workload scenarios through all eight engines — the paper's six plus the
competitor dynamic-MIS algorithms (gupta-khan, arXiv:1804.01823; aoss,
arXiv:1806.10051) behind the same surface; every run is verified
against the sequential greedy oracle before its numbers are admitted
(the competitors through their two-band certificate order, under which
greedy reproduces their MIS exactly).

Parameters: base seed %d, %d measured updates per run, %d independent
seeded runs aggregated per row (the expectation in the theorems is over
the random order π, so each row sums a few independent orders), warm-up
sizes n ∈ {%s}, sharded engine at %d shard(s). All columns except
"updates", "max adj" and "n" are amortized per update. Regenerating
with the same parameters reproduces this file byte for byte.

The bounds under test, all *in expectation over the random order π, per
topology change*:

- **Adjustments ≤ 1** (Theorem 1): "adj/upd" must stay bounded by a
  small constant — and stay *flat as n grows* — on every engine;
  "max adj" may grow with n (a low-probability hub flip demotes a whole
  neighborhood), which is exactly the amortized-vs-worst-case contrast
  the theorem describes.
- **O(1) rounds and O(1) broadcasts** of O(log n) bits (Theorem 7,
  Algorithm 2 = the protocol engine): "rounds/upd" and "bcasts/upd"
  must stay bounded and flat for the protocol engine. The direct
  engines may spend up to |S|² broadcasts (§4) — they are the paper's
  motivation for Algorithm 2, and the tables let you watch the gap.
- **O(touched) accounting**: "touched/upd" is the number of arena slots
  the template/sharded cost accounting examined; bounded and flat means
  per-update work is independent of n.
- **O(Δ) expected update time, sequential** (§6, the sequential engine)
  and **O(Δ) amortized adjustments** (Gupta–Khan, Theorem 1 of
  arXiv:1804.01823): "work/upd" counts adjacency entries examined per
  update by the single-machine engines; on bounded-average-degree churn
  it must stay a small constant.

Four sections after the quality table measure the claims no engine
column can show, on the baseline engines directly, each run passing its
engine's own Check: §1's static recompute baselines, §1.1's
deterministic lower bound and bit complexity, and §4's |S|²
direct-implementation blow-up.

`, schemaMarker, schemaVersion, seed, steps, runs, strings.Join(strs, ", "), shards)
}

// writeConformance renders the flatness summary: for every
// (scenario, engine) measured at more than one size, the amortized
// adjustment rate at the smallest and largest n and its growth ratio.
func writeConformance(doc *strings.Builder, flat []flatness) {
	if len(flat) == 0 {
		return
	}
	doc.WriteString(`## Conformance summary: amortized adjustments stay flat

O(1) amortized means the per-update adjustment rate must not grow with
the graph: the "growth" column is adj/upd at the largest measured n
divided by adj/upd at the smallest. Values near 1.0 (or below) are the
paper's prediction; a rate growing with n would falsify the
reproduction.

| scenario | engine | adj/upd @ n=min | adj/upd @ n=max | growth |
|---|---|---:|---:|---:|
`)
	for _, f := range flat {
		growth := "·"
		if f.first.meanAdj > 0 {
			growth = fmt.Sprintf("%.2f", f.last.meanAdj/f.first.meanAdj)
		}
		fmt.Fprintf(doc, "| %s | %s | %.3f (n=%d) | %.3f (n=%d) | %s |\n",
			f.scenario, f.engine, f.first.meanAdj, f.first.n, f.last.meanAdj, f.last.n, growth)
	}
	doc.WriteString("\n")
}

// writeHeadToHead renders the competitor comparison: one run per engine
// on the same scenario, size and seed, reporting throughput-relevant
// amortized costs side by side. The wall-clock and allocation columns
// are machine-dependent and therefore only filled under -timing; the
// committed document keeps them as "·" so regeneration stays
// byte-stable.
func writeHeadToHead(doc *strings.Builder, sc workload.Scenario, n, steps int, seed uint64, shards int, timing bool) {
	fmt.Fprintf(doc, `## Head-to-head: the paper's engines vs. the competitors

One run per engine on the %q scenario at n=%d, %d updates, seed %d —
identical change stream for every engine. "adj/upd" is the measure the
paper optimizes (E ≤ 1, independent of Δ); Gupta–Khan guarantees only
O(Δ) amortized, and AOSS trades adjustments for set size (see the
quality section). "B/node" is the engine's retained memory per live
node from its deterministic capacity-based account (the arena lanes,
the NodeID index, the shared spill pool and the engine's auxiliary
state) — computed from counts, not runtime introspection, so it is
byte-stable and committed; the message-passing engines keep per-node
simulation state outside the arena account and render "·". "upd/s" and
"B/upd" (bytes allocated per update) are filled by running
cmd/validate -timing locally; they are machine dependent and not
committed.

| engine | updates | adj/upd | flips/upd | work/upd | rounds/upd | B/node | upd/s | B/upd |
|---|---:|---:|---:|---:|---:|---:|---:|---:|
`, sc.Name, sc.ClampNodes(n), steps, seed)
	fmt.Printf("== head-to-head (%s, n=%d)\n", sc.Name, sc.ClampNodes(n))
	for _, es := range engines() {
		inst := sc.Instantiate(seed, n, steps)
		opts := append(es.opts(shards), dynmis.WithSeed(seed), dynmis.WithInstrumentation())
		m, err := dynmis.New(opts...)
		if err != nil {
			fatal(err)
		}
		ctx := context.Background()
		m.Grow(inst.Nodes)
		if _, err := m.Drive(ctx, slices.Values(inst.Build)); err != nil {
			fatal(fmt.Errorf("%s warm-up: %w", es.name, err))
		}
		churn := slices.Collect(inst.Source())
		var elapsed time.Duration
		var allocated uint64
		var sum dynmis.Summary
		if timing {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			sum, err = m.Drive(ctx, slices.Values(churn))
			elapsed = time.Since(start)
			runtime.ReadMemStats(&after)
			allocated = after.TotalAlloc - before.TotalAlloc
		} else {
			sum, err = m.Drive(ctx, slices.Values(churn))
		}
		if err != nil {
			fatal(fmt.Errorf("%s head-to-head drive: %w", es.name, err))
		}
		if err := m.Verify(); err != nil {
			fatal(fmt.Errorf("head-to-head %s failed oracle verification: %w", es.name, err))
		}
		per := func(v int) string {
			if v == 0 {
				return "·"
			}
			return fmt.Sprintf("%.3f", float64(v)/float64(sum.Changes))
		}
		updPerSec, bytesPerUpd := "·", "·"
		if timing && elapsed > 0 {
			updPerSec = fmt.Sprintf("%.0f", float64(sum.Changes)/elapsed.Seconds())
			bytesPerUpd = fmt.Sprintf("%.0f", float64(allocated)/float64(sum.Changes))
		}
		bytesPerNode := "·"
		if prof, ok := m.MemoryProfile(); ok {
			bytesPerNode = fmt.Sprintf("%.1f", prof.BytesPerNode)
		}
		fmt.Fprintf(doc, "| %s | %d | %.3f | %s | %s | %s | %s | %s | %s |\n",
			es.name, sum.Changes, sum.MeanAdjustments(), per(sum.Total.Flips),
			per(sum.Total.Work), per(sum.Total.Rounds), bytesPerNode, updPerSec, bytesPerUpd)
		fmt.Printf("   %-14s adj/upd=%.3f B/node=%s upd/s=%s\n", es.name, sum.MeanAdjustments(), bytesPerNode, updPerSec)
	}
	doc.WriteString("\n")
}

// qualityInstance is one small benchmark graph for the brute-force
// quality table: a deterministic build followed by edge churn, small
// enough (n ≤ 20) that the maximum independent set is computable
// exactly.
type qualityInstance struct {
	name  string
	build func(rng *rand.Rand) []dynmis.Change
}

// writeQuality renders the MIS-quality section: every engine's final
// set size on small churned instances against the greedy yardstick and
// the brute-force optimum.
func writeQuality(doc *strings.Builder, seed uint64) {
	instances := []qualityInstance{
		{"gnp-16", func(rng *rand.Rand) []dynmis.Change { return workload.GNP(rng, 16, 0.25) }},
		{"cycle-15", func(*rand.Rand) []dynmis.Change { return workload.Cycle(15) }},
		{"gnp-18-dense", func(rng *rand.Rand) []dynmis.Change { return workload.GNP(rng, 18, 0.4) }},
	}
	doc.WriteString(`## MIS quality: set size vs. greedy and the brute-force optimum

Maximality alone says nothing about set size — any two valid MIS on the
same graph can differ by up to a Δ factor. This table drives every
engine through the same small instances (build + 120 edge-churn steps)
and compares the final set size against a fresh random-greedy MIS on
the final graph and against the exact maximum independent set
(brute force, n ≤ 20). The paper's engines land on the greedy
distribution by construction; AOSS's low-degree preference typically
lands at or above it.

| instance | n | m | optimal | greedy | engine | \|MIS\| | \|MIS\|/opt |
|---|---:|---:|---:|---:|---|---:|---:|
`)
	fmt.Println("== quality (brute-force instances)")
	for _, qi := range instances {
		rng := rand.New(rand.NewPCG(seed, 97))
		build := qi.build(rng)
		churn := workload.EdgeChurn(rng, workload.BuildGraph(build), 120)
		stream := slices.Concat(build, churn)
		final := workload.BuildGraph(stream)
		opt := optimalMIS(final)
		greedy := greedySize(final, seed)
		for _, es := range engines() {
			m, err := dynmis.New(append(es.opts(1), dynmis.WithSeed(seed))...)
			if err != nil {
				fatal(err)
			}
			if _, err := m.Drive(context.Background(), slices.Values(stream)); err != nil {
				fatal(fmt.Errorf("quality %s/%s: %w", qi.name, es.name, err))
			}
			if err := m.Verify(); err != nil {
				fatal(fmt.Errorf("quality %s/%s failed oracle verification: %w", qi.name, es.name, err))
			}
			size := len(m.MIS())
			fmt.Fprintf(doc, "| %s | %d | %d | %d | %d | %s | %d | %.3f |\n",
				qi.name, final.NodeCount(), final.EdgeCount(), opt, greedy,
				es.name, size, float64(size)/float64(opt))
		}
		fmt.Printf("   %-14s optimal=%d greedy=%d\n", qi.name, opt, greedy)
	}
	doc.WriteString("\n")
}

// optimalMIS computes the exact maximum-independent-set size by
// enumerating all subsets; callers keep n ≤ 20 (≤ ~1M subsets).
func optimalMIS(g *graph.Graph) int {
	nodes := g.Nodes()
	n := len(nodes)
	if n > 20 {
		fatal(fmt.Errorf("optimalMIS: %d nodes exceeds the brute-force bound", n))
	}
	idx := make(map[graph.NodeID]int, n)
	for i, v := range nodes {
		idx[v] = i
	}
	adj := make([]uint32, n)
	for i, v := range nodes {
		g.EachNeighbor(v, func(u graph.NodeID) {
			adj[i] |= 1 << idx[u]
		})
	}
	best := 0
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) <= best {
			continue
		}
		independent := true
		for m := mask; m != 0; m &= m - 1 {
			if adj[bits.TrailingZeros32(m)]&mask != 0 {
				independent = false
				break
			}
		}
		if independent {
			best = bits.OnesCount32(mask)
		}
	}
	return best
}

func writeReadingGuide(doc *strings.Builder) {
	doc.WriteString(`## Column key

- **adj/upd** — membership adjustments per update (Theorem 1 bounds the
  expectation by 1); **max adj** — largest single-update adjustment
  count observed.
- **|S|/upd, flips/upd** — influence-set size and total state flips per
  update, including transient flips (flips ≥ |S| ≥ adjustments).
- **casc-steps/upd, touched/upd** — template/sharded engines only:
  synchronous cascade steps to quiescence and arena slots examined by
  the O(touched) accounting.
- **rounds/upd, bcasts/upd, msgs/upd, bits/upd** — message-passing
  engines only: synchronous network rounds to quiescence, broadcast
  operations, point-to-point message copies sent, and payload bits.
- **work/upd** — single-machine engines only (sequential, gupta-khan,
  aoss): adjacency entries examined per update, the classic dynamic
  update-time measure.
- **|MIS|/greedy** — the engine's final set size over a fresh
  random-greedy MIS on the same final graph; 1.0 is the random-greedy
  distribution the paper's engines realize, higher is a larger set.
- **B/node** (head-to-head table) — retained bytes per live node from
  the engine's deterministic memory account: arena lanes + NodeID index
  + shared spill pool + engine auxiliary state, all computed from
  capacities and counts so the figure is byte-stable across machines.
- **·** — the engine does not model that quantity (the model-level
  template has no network; the message-passing engines no cascade
  scratch; the asynchronous engine no global rounds; the distributed
  engines no update-time work).

Single-node-churn is the deliberate worst case: its hub re-insertion
occasionally wins the priority lottery against the whole leaf set, so
"max adj" scales with n there while "adj/upd" stays constant — the
sharpest illustration of what "O(1) amortized, in expectation" does and
does not promise.

Its broadcast column grows with n for a model-inherent reason, too:
re-inserting a degree-(n−1) node makes every neighbor announce itself
once, Θ(n) broadcasts charged to a single update. The O(1)-broadcast
theorem is about the *recovery* following a change, not the
neighborhood discovery of a fresh high-degree node — churn and
sliding-window, whose attach degrees are bounded, are the scenarios
that exhibit the bound.
`)
}

// checkSchema is the docs-freshness gate: it fails unless the file's
// schema header names exactly this binary's schemaVersion.
func checkSchema(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("validate -check: %w (run 'make validate' to generate it)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, schemaMarker) {
			continue
		}
		got := strings.TrimSuffix(strings.TrimPrefix(line, schemaMarker), " -->")
		if got != schemaVersion {
			return fmt.Errorf("validate -check: %s has schema %q, this generator emits %q — regenerate with 'make validate'", path, got, schemaVersion)
		}
		return nil
	}
	return fmt.Errorf("validate -check: %s has no %q header — regenerate with 'make validate'", path, schemaMarker)
}

// dedupeClamped maps the requested sizes through the scenario's
// MaxNodes clamp and drops duplicates, preserving order.
func dedupeClamped(sc workload.Scenario, sizes []int) []int {
	var out []int
	for _, n := range sizes {
		c := sc.ClampNodes(n)
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

func parseSizes(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -sizes entry %q", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
