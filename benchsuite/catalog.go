package main

// The metric catalog: every number the suite reports, with its unit.
// BENCHMARK.json at the repository root lists the same names and units
// (suite_test.go keeps the two in step) and adds the regression bounds.

// metricDef names one reported metric.
type metricDef struct {
	name string
	unit string
}

// e2eMetrics are the end-to-end metrics, reported by every workload
// with -trace 0. Each has one meaning across the engine and the daemon
// workloads:
//
//   - setup_s: engine: the warm-up build; daemon: exec until the first
//     /healthz 200, which includes WAL recovery. The median of several
//     set-ups in one run.
//   - changes_per_s: completed (daemon: acknowledged) changes per
//     second of the measured windows.
//   - ack_p50_ms, ack_p99_ms: from when a unit of work was due until it
//     was acknowledged. Engine: one engine call (one change on
//     engine-geo, one 512-change window on engine-hubs), so due is the
//     call and the ack its return. Daemon: one request, due on the
//     open-loop schedule (serve-steady) or when sent (serve-bulk), acked
//     when the response is read.
//   - event_p50_ms, event_p99_ms: from when the work that caused an
//     event was due until the subscriber received the event. Engine: the
//     first event of a call, delivered to the in-process subscriber;
//     daemon: every event on the NDJSON stream, mapped to its request by
//     the seq watermarks in the acks.
//   - bytes_per_node: the engine's deterministic MemoryProfile after
//     set-up (the daemon's, read from /metricsz after boot), which does
//     not depend on how far a time-bounded run got.
//   - rss_mb: peak resident set (VmHWM) of the process that holds the
//     engine: on engine-* the suite itself after set-up (during the drive
//     it also grows by the input generator's state, which is not under
//     test); on serve-* the dynmisd child at the end of the run.
//
// The timed phase is cut into 0.5-s windows (by busy time on engine-*,
// by ack time on serve-*). On the closed loops (engine-*, serve-bulk)
// throughput and latencies are measured over the faster half of the
// windows: other tenants of a shared machine slow a run down in patches
// of a second or more, never speed it up, so the faster half tracks the
// code and the slower half the neighbours. The open loop (serve-steady)
// runs at its scheduled rate, where interference shows only as latency,
// so it is measured over every window. The log prints every window's
// rate and the run's overall rate beside the figures.
//
// Failed or rejected changes are not a metric (a metric must never be
// 0): they are the "failed" count of the result line, and any failure
// also makes "correct" false.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"changes_per_s", "changes/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"event_p50_ms", "ms"},
	{"event_p99_ms", "ms"},
	{"bytes_per_node", "B"},
	{"rss_mb", "MB"},
}

// layerDef is one per-layer metric of the traced run: the layer it
// measures, and which end-to-end metrics it should move on which
// workloads. A layer metric that does not apply to a workload is
// reported as 0 there.
type layerDef struct {
	metricDef
	layer string
	moves []string
	on    []string
}

var (
	engines   = []string{"engine-geo", "engine-hubs"}
	serves    = []string{"serve-steady", "serve-bulk"}
	geoBulk   = []string{"engine-geo", "serve-bulk"}
	hubsOnly  = []string{"engine-hubs"}
	steady    = []string{"serve-steady"}
	bulkOnly  = []string{"serve-bulk"}
	rateP99   = []string{"changes_per_s", "ack_p99_ms"}
	rateOnly  = []string{"changes_per_s"}
	ackP50    = []string{"ack_p50_ms"}
	tailsOnly = []string{"ack_p99_ms", "event_p99_ms"}
)

var layerMetrics = []layerDef{
	{metricDef{"graph.apply_ns", "ns/change"}, "internal/graph", []string{"changes_per_s", "setup_s"}, engines},
	{metricDef{"graph.spill_utilization", "ratio"}, "internal/graph", []string{"changes_per_s", "setup_s"}, engines},

	{metricDef{"core.recover_ns", "ns/change"}, "internal/core", rateP99, geoBulk},
	{metricDef{"core.adjustments_per_change", "count"}, "internal/core", rateP99, geoBulk},
	{metricDef{"core.s_size_per_change", "count"}, "internal/core", rateP99, geoBulk},
	{metricDef{"core.flips_per_change", "count"}, "internal/core", rateP99, geoBulk},
	{metricDef{"core.useful_ratio", "ratio"}, "internal/core", rateP99, geoBulk},
	{metricDef{"core.batch_us", "us/window"}, "internal/core", rateP99, hubsOnly},

	{metricDef{"shard.overhead_us", "us/window"}, "internal/shard", rateP99, hubsOnly},
	{metricDef{"shard.parallel_gain", "ratio"}, "internal/shard", rateP99, hubsOnly},
	{metricDef{"shard.cores_busy", "cores"}, "internal/shard", rateP99, hubsOnly},
	{metricDef{"shard.cross_shard_per_change", "count"}, "internal/shard", rateP99, hubsOnly},
	{metricDef{"shard.steals_per_window", "count"}, "internal/shard", rateP99, hubsOnly},

	{metricDef{"feed.publish_ns", "ns/change"}, "feed", []string{"changes_per_s", "event_p50_ms"}, geoBulk},
	{metricDef{"feed.events_per_change", "count"}, "feed", []string{"changes_per_s", "event_p50_ms"}, geoBulk},

	{metricDef{"metrics.instrument_ns", "ns/change"}, "metrics", rateOnly, bulkOnly},

	{metricDef{"trace.decode_ns", "ns/change"}, "trace", rateOnly, bulkOnly},
	{metricDef{"trace.bytes_per_change", "B/change"}, "trace", rateOnly, bulkOnly},
	{metricDef{"wal.append_ns", "ns/change"}, "server", rateOnly, bulkOnly},
	{metricDef{"wal.bytes_per_change", "B/change"}, "server", rateOnly, bulkOnly},
	{metricDef{"wal.commit_us", "us/request"}, "server", ackP50, steady},
	{metricDef{"wal.fsyncs_per_request", "count"}, "server", ackP50, steady},
	{metricDef{"http.request_self_us", "us/request"}, "server", ackP50, steady},

	{metricDef{"server.ingest_self_us", "us/request"}, "server", tailsOnly, steady},
	{metricDef{"server.ingest_p99_us", "us"}, "server", tailsOnly, steady},
	{metricDef{"server.stall_max_ms", "ms"}, "server", tailsOnly, steady},
	{metricDef{"server.snapshots", "count"}, "server", tailsOnly, steady},

	{metricDef{"hub.deliver_p50_ms", "ms"}, "server", []string{"event_p50_ms", "event_p99_ms", "rss_mb"}, serves},
	{metricDef{"hub.deliver_p99_ms", "ms"}, "server", []string{"event_p50_ms", "event_p99_ms", "rss_mb"}, serves},
	{metricDef{"hub.bytes_per_event", "B/event"}, "server", []string{"event_p50_ms", "event_p99_ms", "rss_mb"}, serves},

	{metricDef{"trace.wal_decode_s", "s"}, "trace", []string{"setup_s", "rss_mb"}, bulkOnly},
	{metricDef{"core.replay_s", "s"}, "internal/core", []string{"setup_s", "rss_mb"}, bulkOnly},

	{metricDef{"loadgen.send_lag_p99_ms", "ms"}, "loadgen", []string{"ack_p99_ms"}, serves},
	{metricDef{"loadgen.cpu_frac", "ratio"}, "loadgen", []string{"changes_per_s"}, serves},
}
