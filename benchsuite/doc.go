// Command benchsuite is the benchmark suite of the dynmis repository:
// four workloads that measure the engine and the dynmisd daemon end to
// end, and a traced "peel ladder" run that splits each end-to-end number
// into the cost of its layers. Every performance claim in the
// repository is measured with it.
//
// # Running it
//
// From the repository root:
//
//	bash benchsuite/run.sh --workload engine-geo --seed 1 --seconds 10 --trace 0
//
// run.sh builds the suite and cmd/dynmisd into .bench_build/ (build time
// is in no metric) and runs one workload. The timed phase lasts
// --seconds. The suite prints every metric by name with its unit, the
// result of every output check, and as its last line one JSON object:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{"setup_s":{"value":…,"unit":"s"},…}}
//
// With --trace 0 the metrics are the end-to-end ones (see e2eMetrics);
// with --trace 1 the per-layer ones (see layerMetrics), and the spans are
// written as JSONL to --spans. BENCHMARK.json at the repository root
// lists the workloads, both metric sets and the regression bound of each
// end-to-end metric. The suite is its own Go module (it replaces dynmis
// with the enclosing checkout), so the repository's go test ./... does
// not run it; go test in this directory does.
//
// # Workloads
//
// All inputs come from the O(1)-per-step big-tier generators
// (workload.BigScenarios): the regular churn generator is O(n+m) per
// step. Every input is materialized before the calls that time it: the
// warm-up build and the engine drive, one 512-change chunk at a time
// outside the timed calls; for the daemon, the WAL file and every encoded
// request body before the timed phase. The workload package only
// generates inputs and is never timed.
//
//   - engine-geo: big-geometric at n=2·10⁵ (about 1.2M edges), the
//     template engine through Maintainer.Apply, one change per call, with
//     one counting subscriber, at GOMAXPROCS=1. It is the paper's
//     per-update path on bounded-degree radio-style graphs, with a working
//     set far beyond the CPU caches: it uses the arena, the cascade and
//     the feed and bypasses trace, WAL and HTTP. Serve-path changes should
//     leave it unchanged.
//   - engine-hubs: big-power-law at n=2·10⁵ (hubs up to 2048), the
//     sharded engine with 2 shards through 512-change ApplyBatch windows
//     at GOMAXPROCS=2. It is the only workload with windowed staging, the
//     work-stealing cascade and cross-shard hubs, so a change to the
//     sharded fast path or a p=2 scaling claim must hold here.
//   - serve-steady: a dynmisd child with its durable defaults (-fsync
//     always -snap-every 10000 -retain 0) booted on a pre-written WAL of
//     big-geometric at n=5·10⁴, fed by an open loop of 500 requests/s ×
//     16 changes over POST /v1/changes, with one NDJSON subscriber
//     following the stream from the boot watermark. Per-request costs
//     dominate: HTTP, fsync and the snapshot stall. The open loop charges
//     a stall to every request queued behind it.
//   - serve-bulk: a dynmisd child (-fsync interval -snap-every 0
//     -retain 65536) booted on a pre-written WAL of big-power-law at
//     n=2·10⁵, fed by a closed loop of back-to-back 1024-change requests,
//     plus one subscriber. The same Server.Ingest as serve-steady, used so
//     that per-change decode, apply, WAL encode and hub append dominate:
//     the daemon-vs-engine gap. Its set-up is WAL recovery of 2·10⁵
//     records. Retention is bounded so that the daemon's heap, and with it
//     garbage-collection work and rss_mb, does not grow with how many
//     changes the run got through.
//
// Each end-to-end timed phase follows an untimed warm-up of the same
// traffic (2 s), so the heap, the arena and the engine's queues reach
// their steady size first.
//
// The load generator runs in the suite's process at GOMAXPROCS=1 with at
// most two connections (one ingest, one subscriber); loadgen.cpu_frac
// and loadgen.send_lag_p99_ms show whether it kept up.
//
// # Seeds
//
// The engine seed, and the daemon's -seed, are fixed at 1. --seed
// changes only the generated inputs, so a run with another --seed is a
// fresh draw of the same workload, not a different engine.
//
// # Output checks
//
// engine-*: Maintainer.Verify (the greedy oracle) on the final structure,
// and every engine call succeeded. serve-*: every change acknowledged and
// none rejected, a gap-free subscriber stream up to the final ack
// watermark, and the daemon's /v1/state equal, node for node, to a local
// template replay of the same changes at seed 1. A failed check makes
// "correct" false.
//
// # The peel ladder
//
// A traced run replays identical inputs through successively larger
// stacks of public entry points and records each call into the top of
// the stack as a span, from the suite's own code. Engine rungs record one
// span per 512-change chunk, serve rungs one per request; the span ID
// (chunk or request index) is shared by every rung. A layer's self time
// is its rung minus the rung below it over the same IDs.
//
// Engine ladder: graph ((graph.Change).Apply on a bare arena), core
// (Maintainer with no subscriber), feed (plus the counting subscriber:
// the end-to-end stack), metrics (plus WithInstrumentation); on
// engine-hubs also batch@p1 (the template's ApplyBatch at GOMAXPROCS=1)
// and sharded@p1 (the sharded engine at GOMAXPROCS=1), which isolate the
// parallel engine from the batching.
//
// Serve ladder: graph, core, feed and metrics as above (metrics is the
// engine as the server configures it), then decode (plus
// trace.UnmarshalChange on the exact request bytes), wal (plus
// trace.Writer Write and the policy's Sync or Flush on a file), server (an
// in-process server.Open on the same pre-written WAL, then
// Server.Ingest), http (the real request to the child daemon, send to
// ack) and delivery to the subscriber (receipt minus WireEvent.TS).
//
// The in-process rungs climb the ladder several times (engine: three,
// serve: two), interleaved, and a rung's cost is its median, so a slow
// spell of the machine lands on all rungs alike. Each traced run also prints a tracing-overhead line: its
// top in-process or http rung against the same stack run untraced in the
// same process.
//
// # Relation to cmd/bench
//
// cmd/bench and BENCH_dynmis.json remain the per-engine scenario matrix.
// Their legacy "serve" section (an in-process daemon with 64
// JSON-decoding subscribers on the measured machine) is superseded by
// serve-steady and serve-bulk, which keep the daemon in its own process;
// the legacy numbers stay in BENCH_dynmis.json until that file is
// regenerated.
package main
