// Package dynmis is a Go implementation of "Optimal Dynamic Distributed
// MIS" (Censor-Hillel, Haramaty, Karnin; PODC 2016): maintenance of a
// maximal independent set over a fully dynamic graph — edge and node
// insertions and deletions, graceful and abrupt, plus muting/unmuting —
// with, in expectation, a single adjustment, O(1) rounds and O(1)
// broadcasts per topology change.
//
// The library exposes eight engines behind one uniform surface. Six of
// them implement the paper's abstract algorithm (simulated sequential
// random greedy):
//
//   - EngineTemplate: the model-level cascade of the paper's Algorithm 1 —
//     fastest, no communication accounting.
//   - EngineDirect: the direct distributed implementation (Corollary 6)
//     over a synchronous broadcast network — 1 round in expectation, up to
//     |S|² broadcasts.
//   - EngineProtocol: Algorithm 2, the constant-broadcast implementation
//     with the M/M̄/C/R state machine — O(1) rounds and broadcasts.
//   - EngineAsyncDirect: the direct implementation over an asynchronous
//     event network with an adversarial scheduler — expected causal depth 1.
//   - EngineSharded: the sharded concurrent engine — the template, whose
//     windows with enough cascade seeds are recovered by P worker
//     goroutines over a partitioned vertex space (see internal/shard and
//     docs/ARCHITECTURE.md).
//   - EngineSequential: the paper's §6 single-machine data structure —
//     the same greedy-under-π structure maintained with a π-ordered dirty
//     queue at O(Δ) expected update time (internal/seqdyn).
//
// The remaining two are competitor dynamic-MIS algorithms from the
// follow-up literature, implemented behind the same surface so the suite
// can benchmark the paper head to head (see Engine.Independent):
//
//   - EngineGuptaKhan: the deterministic blocker-count algorithm of
//     Gupta–Khan (arXiv:1804.01823) — O(Δ) amortized adjustments per
//     update, no random order (internal/guptakhan).
//   - EngineAOSS: the degree-bucketed algorithm in the style of
//     Assadi–Onak–Schieber–Solomon (arXiv:1806.10051) — prefers
//     low-degree vertices when repairing the MIS (internal/aoss).
//
// Every engine implements one uniform surface (Apply, ApplyAll,
// ApplyBatch, queries, Subscribe); optional abilities such as persistence
// are expressed as capability interfaces (Snapshotter) rather than by
// engine identity, so new backends are drop-ins. Because the paper's
// guarantee is a single adjustment per change in expectation, consumers
// should not re-poll MIS after every update: Subscribe delivers the
// (usually single) membership change as a typed Event instead.
//
// Bulk updates enter an engine as a stream: a Source is any iterator of
// changes (a dynmis/workload generator, a recorded dynmis/trace, a slice
// via slices.Values), and Maintainer.Drive ingests it —
// context-cancellable, optionally windowed through ApplyBatch — returning
// an aggregate Summary of the paper's cost measures. See Drive and the
// "Streaming ingestion & traces" section of the README.
//
// The paper's quantitative claims are measurable, not just asserted:
// WithInstrumentation attaches cheap complexity counters
// (dynmis/metrics) that every engine accounts its adjustments, cascade
// lengths, rounds, broadcasts and message traffic into — read them with
// Maintainer.Metrics or per drive via Summary.Metrics. The validation
// harness (cmd/validate, `make validate`) tabulates the measured
// amortized costs against the paper's O(1) bounds in docs/VALIDATION.md.
//
// The paper's engines are history independent (Definition 14): the
// distribution of the maintained MIS depends only on the current graph,
// never on the change history, and for a fixed seed the output equals the
// sequential greedy MIS under the same random order. Composed structures —
// correlation clustering (3-approximate in expectation), maximal matching,
// and (Δ+1)-coloring — inherit this property. The competitor engines
// (Engine.Independent reports true) maintain a valid MIS that may depend
// on history; they are verified against a per-engine reference model and
// the same greedy-certificate oracle instead (see Verify).
//
// # Quick start
//
//	m := dynmis.MustNew(dynmis.WithSeed(42))
//	m.Subscribe(func(ev dynmis.Event) { fmt.Println(ev) })
//	m.InsertNode(1)
//	m.InsertNode(2, 1)
//	rep, _ := m.RemoveNodeAbrupt(1)
//	fmt.Println(m.MIS(), rep.Adjustments)
package dynmis

import (
	"fmt"
	"strings"

	"dynmis/internal/aoss"
	"dynmis/internal/core"
	"dynmis/internal/direct"
	"dynmis/internal/graph"
	"dynmis/internal/guptakhan"
	"dynmis/internal/protocol"
	"dynmis/internal/seqdyn"
	"dynmis/internal/shard"
	"dynmis/internal/simnet"
	"dynmis/metrics"
)

// NodeID identifies a node; IDs are chosen by the caller.
type NodeID = graph.NodeID

// None is the "no node" sentinel.
const None = graph.None

// Change is a topology change; build them with the constructors below or
// the graph package helpers.
type Change = graph.Change

// ChangeKind enumerates the topology change types.
type ChangeKind = graph.ChangeKind

// Change kinds (see the paper's §2 for the graceful/abrupt and
// mute/unmute distinctions).
const (
	EdgeInsert         = graph.EdgeInsert
	EdgeDeleteGraceful = graph.EdgeDeleteGraceful
	EdgeDeleteAbrupt   = graph.EdgeDeleteAbrupt
	NodeInsert         = graph.NodeInsert
	NodeDeleteGraceful = graph.NodeDeleteGraceful
	NodeDeleteAbrupt   = graph.NodeDeleteAbrupt
	NodeMute           = graph.NodeMute
	NodeUnmute         = graph.NodeUnmute
)

// Report is the per-change cost account: adjustments, influence-set size,
// flips, rounds, broadcasts, bits and (async) causal depth.
type Report = core.Report

// Membership is a node's output (in or out of the MIS).
type Membership = core.Membership

// Membership values.
const (
	In  = core.In
	Out = core.Out
)

// Event is one record of the membership change feed; see
// Maintainer.Subscribe.
type Event = core.Event

// EventCause classifies a membership event.
type EventCause = core.EventCause

// Event causes: a node joining the visible topology, leaving it, or
// flipping its membership while staying present.
const (
	CauseJoin  = core.CauseJoin
	CauseLeave = core.CauseLeave
	CauseFlip  = core.CauseFlip
)

// ReplayEvents folds an event stream into the membership configuration it
// describes; replaying everything a maintainer has published reproduces
// its State() exactly.
func ReplayEvents(evs []Event) map[NodeID]Membership { return core.Replay(evs) }

// Engine selects the maintenance implementation.
type Engine int

// Engine choices.
const (
	// EngineTemplate is the model-level cascade (Algorithm 1).
	EngineTemplate Engine = iota + 1
	// EngineDirect is the synchronous direct implementation (Cor. 6).
	EngineDirect
	// EngineProtocol is Algorithm 2, the O(1)-broadcast protocol.
	EngineProtocol
	// EngineAsyncDirect is the asynchronous direct implementation.
	EngineAsyncDirect
	// EngineSharded is the sharded concurrent engine: the template, whose
	// windows of updates are staged serially and, when they carry enough
	// cascade seeds, recovered by a parallel cascade across P vertex
	// shards. Same structure as every other engine for equal seeds; at
	// one shard, the same Reports as EngineTemplate.
	EngineSharded
	// EngineSequential is the §6 single-machine data structure: the same
	// greedy-under-π structure, maintained with a π-ordered dirty queue
	// at O(Δ) expected update time. π-equivalent to the engines above.
	EngineSequential
	// EngineGuptaKhan is the deterministic competitor of Gupta–Khan
	// (arXiv:1804.01823): blocker counts without a random order, O(Δ)
	// amortized adjustments. Maintains its own valid MIS (Independent).
	EngineGuptaKhan
	// EngineAOSS is the degree-bucketed competitor in the style of
	// Assadi–Onak–Schieber–Solomon (arXiv:1806.10051): repairs prefer
	// low-degree vertices. Maintains its own valid MIS (Independent).
	EngineAOSS
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineTemplate:
		return "template"
	case EngineDirect:
		return "direct"
	case EngineProtocol:
		return "protocol"
	case EngineAsyncDirect:
		return "async-direct"
	case EngineSharded:
		return "sharded"
	case EngineSequential:
		return "sequential"
	case EngineGuptaKhan:
		return "gupta-khan"
	case EngineAOSS:
		return "aoss"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Independent reports whether the engine maintains an MIS of its own
// (competitor algorithms: Gupta–Khan, AOSS) rather than the paper's
// greedy-under-π structure. Independent engines still satisfy every
// maximal-independent-set invariant and the greedy-certificate oracle
// (Verify), but their MIS may differ from the π-equivalent engines' and
// may depend on the change history, so byte-equality checks across
// engines must exclude them.
func (e Engine) Independent() bool {
	return e == EngineGuptaKhan || e == EngineAOSS
}

// Engines lists every selectable engine in declaration order.
func Engines() []Engine {
	return []Engine{
		EngineTemplate, EngineDirect, EngineProtocol, EngineAsyncDirect,
		EngineSharded, EngineSequential, EngineGuptaKhan, EngineAOSS,
	}
}

// EngineByName resolves an engine from its String name (the spelling the
// command-line tools accept). A few aliases are recognized: "async" for
// async-direct, "seqdyn" for sequential, "guptakhan" for gupta-khan.
func EngineByName(name string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "template":
		return EngineTemplate, nil
	case "direct":
		return EngineDirect, nil
	case "protocol":
		return EngineProtocol, nil
	case "async-direct", "async":
		return EngineAsyncDirect, nil
	case "sharded":
		return EngineSharded, nil
	case "sequential", "seqdyn":
		return EngineSequential, nil
	case "gupta-khan", "guptakhan":
		return EngineGuptaKhan, nil
	case "aoss":
		return EngineAOSS, nil
	default:
		names := make([]string, 0, len(Engines()))
		for _, e := range Engines() {
			names = append(names, e.String())
		}
		return 0, fmt.Errorf("%w: unknown engine %q (valid: %s)",
			ErrInvalidOption, name, strings.Join(names, ", "))
	}
}

// Interface compliance: every engine implements the uniform surface of
// core.Engine, and the persistable ones additionally core.Snapshotter.
var (
	_ core.Engine = (*core.Template)(nil)
	_ core.Engine = (*direct.Engine)(nil)
	_ core.Engine = (*protocol.Engine)(nil)
	_ core.Engine = (*direct.AsyncEngine)(nil)
	_ core.Engine = (*shard.Engine)(nil)
	_ core.Engine = (*seqdyn.Engine)(nil)
	_ core.Engine = (*guptakhan.Engine)(nil)
	_ core.Engine = (*aoss.Engine)(nil)

	_ core.Snapshotter = (*core.Template)(nil)
	_ core.Snapshotter = (*shard.Engine)(nil)

	_ core.Instrument = (*core.Template)(nil)
	_ core.Instrument = (*direct.Engine)(nil)
	_ core.Instrument = (*protocol.Engine)(nil)
	_ core.Instrument = (*direct.AsyncEngine)(nil)
	_ core.Instrument = (*shard.Engine)(nil)
	_ core.Instrument = (*seqdyn.Engine)(nil)
	_ core.Instrument = (*guptakhan.Engine)(nil)
	_ core.Instrument = (*aoss.Engine)(nil)

	_ core.MemoryReporter = (*core.Template)(nil)
	_ core.MemoryReporter = (*shard.Engine)(nil)
	_ core.MemoryReporter = (*seqdyn.Engine)(nil)
	_ core.MemoryReporter = (*guptakhan.Engine)(nil)
	_ core.MemoryReporter = (*aoss.Engine)(nil)
)

type config struct {
	seed        uint64
	engine      Engine
	sched       simnet.Scheduler
	parallel    int
	parallelSet bool
	shards      int
	shardsSet   bool
	window      int
	windowSet   bool
	instrument  bool
}

// Option configures New, Restore and the derived-structure constructors.
type Option func(*config)

// WithSeed fixes the random seed (default 1). Engines with equal seeds and
// equal change sequences produce identical structures.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithEngine selects the implementation (default EngineProtocol for New,
// EngineTemplate for Restore and the derived structures).
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithLIFOScheduler makes the asynchronous engine deliver newest-first
// (an adversarial reordering); default is FIFO.
func WithLIFOScheduler() Option {
	return func(c *config) { c.sched = simnet.LIFOScheduler{} }
}

// WithParallel runs synchronous protocol rounds on the given number of
// goroutines (EngineProtocol only; selecting it with any other engine is
// an ErrInvalidOption); results are bit-identical to sequential execution.
func WithParallel(workers int) Option {
	return func(c *config) { c.parallel = workers; c.parallelSet = true }
}

// WithShards sets the shard count P of EngineSharded (0 selects
// GOMAXPROCS; negative values, or selecting it with any other engine, are
// an ErrInvalidOption). The maintained structure is identical for every
// P; only throughput and the cross-shard hand-off account change.
func WithShards(p int) Option {
	return func(c *config) { c.shards = p; c.shardsSet = true }
}

// WithWindow sets how many changes EngineSharded's ApplyAll groups into
// one parallel recovery window (0 selects shard.DefaultWindow; negative
// values, or selecting it with any other engine, are an
// ErrInvalidOption). Larger windows amortize worker startup over more
// updates. Window boundaries are also the granularity of the change
// feed: each window publishes one net membership delta.
func WithWindow(n int) Option {
	return func(c *config) { c.window = n; c.windowSet = true }
}

// WithInstrumentation attaches a complexity-instrumentation collector
// (dynmis/metrics) to the engine: every successful update accounts the
// paper's cost measures — adjustments, influence-set size, cascade
// steps, touched slots, rounds, broadcasts, message traffic — into
// cumulative counters read with Maintainer.Metrics, and Drive reports
// each drive's delta as Summary.Metrics. All engines support it.
//
// Without this option instrumentation is disabled and costs nothing:
// the accounting paths are guarded by a single nil check and the
// cascade hot loops are untouched (pinned by an allocation test).
func WithInstrumentation() Option {
	return func(c *config) { c.instrument = true }
}

// validate rejects option combinations no engine can honor.
func (c *config) validate() error {
	switch c.engine {
	case EngineTemplate, EngineDirect, EngineProtocol, EngineAsyncDirect, EngineSharded,
		EngineSequential, EngineGuptaKhan, EngineAOSS:
	default:
		return fmt.Errorf("%w: unknown engine %v", ErrInvalidOption, c.engine)
	}
	if c.shards < 0 {
		return fmt.Errorf("%w: WithShards(%d): shard count must be non-negative (0 selects GOMAXPROCS)", ErrInvalidOption, c.shards)
	}
	if c.window < 0 {
		return fmt.Errorf("%w: WithWindow(%d): window must be non-negative (0 selects the default)", ErrInvalidOption, c.window)
	}
	if c.shardsSet && c.engine != EngineSharded {
		return fmt.Errorf("%w: WithShards requires EngineSharded, have %v", ErrInvalidOption, c.engine)
	}
	if c.windowSet && c.engine != EngineSharded {
		return fmt.Errorf("%w: WithWindow requires EngineSharded, have %v", ErrInvalidOption, c.engine)
	}
	if c.parallelSet && c.engine != EngineProtocol {
		return fmt.Errorf("%w: WithParallel requires EngineProtocol, have %v", ErrInvalidOption, c.engine)
	}
	return nil
}

// build constructs the configured engine. The config must have been
// validated.
func (c *config) build() core.Engine {
	switch c.engine {
	case EngineTemplate:
		return core.NewTemplate(c.seed)
	case EngineDirect:
		return direct.New(c.seed)
	case EngineAsyncDirect:
		return direct.NewAsync(c.seed, c.sched)
	case EngineSharded:
		e := shard.New(c.seed, c.shards)
		if c.window > 0 {
			e.SetWindow(c.window)
		}
		return e
	case EngineSequential:
		return seqdyn.New(c.seed)
	case EngineGuptaKhan:
		return guptakhan.New(c.seed)
	case EngineAOSS:
		return aoss.New(c.seed)
	default:
		e := protocol.New(c.seed)
		if c.parallel > 1 {
			e.SetParallel(c.parallel)
		}
		return e
	}
}

// resolve applies opts over a default configuration and validates the
// result; it is the single option path shared by New, Restore and the
// derived-structure constructors.
func resolve(defaultEngine Engine, opts []Option) (config, error) {
	cfg := config{seed: 1, engine: defaultEngine}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// Maintainer maintains an MIS over a fully dynamic graph.
type Maintainer struct {
	impl   core.Engine
	engine Engine
	coll   *metrics.Collector // nil unless WithInstrumentation
	tap    *eventTap          // lazily registered by DriveInteractive
}

// eventTap is the internal feed subscriber behind DriveInteractive: the
// engine's Feed has no unsubscribe, so the maintainer registers one tap
// forever on first use and toggles it around each interactive apply. It
// costs one bool check per event while inactive.
type eventTap struct {
	active bool
	buf    []Event
}

// feedTap returns the maintainer's event tap, registering it on the
// change feed on first call.
func (m *Maintainer) feedTap() *eventTap {
	if m.tap == nil {
		tap := &eventTap{}
		m.impl.Subscribe(func(ev Event) {
			if tap.active {
				tap.buf = append(tap.buf, ev)
			}
		})
		m.tap = tap
	}
	return m.tap
}

// newMaintainer wraps a built engine, attaching an instrumentation
// collector when the configuration asked for one. It is the single
// construction path shared by New and Restore.
func newMaintainer(impl core.Engine, cfg config) *Maintainer {
	m := &Maintainer{impl: impl, engine: cfg.engine}
	if cfg.instrument {
		if ins, ok := impl.(core.Instrument); ok {
			m.coll = metrics.NewCollector()
			ins.Instrument(m.coll)
		}
	}
	return m
}

// New returns a Maintainer over the empty graph, or an ErrInvalidOption
// error for option values no engine can honor.
func New(opts ...Option) (*Maintainer, error) {
	cfg, err := resolve(EngineProtocol, opts)
	if err != nil {
		return nil, err
	}
	return newMaintainer(cfg.build(), cfg), nil
}

// MustNew is New for static option sets; it panics on invalid options.
func MustNew(opts ...Option) *Maintainer {
	m, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// Engine reports which implementation backs this maintainer.
func (m *Maintainer) Engine() Engine { return m.engine }

// Subscribe registers fn on the membership change feed. After every
// Apply, ApplyBatch or ApplyAll window the engine publishes the net
// membership delta between the stable configuration before the update and
// the one after it, as Events in ascending node order with a
// monotonically increasing Seq. Callbacks run synchronously on the
// goroutine that applied the change, after recovery has settled, so they
// always observe the maintainer in a consistent state.
//
// Among the π-equivalent engines the feed is engine-independent: for
// equal seeds, equal change sequences and equal update granularity — the
// same Apply calls, or ApplyBatch calls with the same batch boundaries —
// every such engine publishes the identical event stream (history
// independence fixes the stable configurations; the feed reports nothing
// else). The competitor engines (Engine.Independent) publish the same
// kind of net-delta stream over their own MIS, with the same
// replay-to-State guarantee, but its contents are engine-specific.
// Granularity
// matters because events are net deltas: a node that flips and flips
// back within one batch window produces no event, so EngineSharded's
// ApplyAll, which groups changes into WithWindow-sized windows, publishes
// per window where the other engines' ApplyAll publishes per change.
// Replaying all events reproduces State() exactly regardless of
// granularity; see ReplayEvents.
func (m *Maintainer) Subscribe(fn func(Event)) { m.impl.Subscribe(fn) }

// Apply performs one topology change and returns its cost report.
func (m *Maintainer) Apply(c Change) (Report, error) { return m.impl.Apply(c) }

// ApplyAll applies a change sequence, accumulating reports; it stops at
// the first error.
func (m *Maintainer) ApplyAll(cs []Change) (Report, error) { return m.impl.ApplyAll(cs) }

// ApplyBatch applies several changes and recovers once (the §6 "multiple
// failures at a time" extension). Every engine exposes the batch surface:
// EngineTemplate runs a single cascade over the combined damage,
// EngineSharded one parallel window, EngineAsyncDirect stages all changes
// before the network drains once, and the synchronous message-passing
// engines realize the batch sequentially — reaching the same final
// structure by history independence. The competitor engines stage the
// whole batch and settle once; because they are history dependent, the
// batched result is a valid MIS that may differ from applying the same
// changes one at a time.
func (m *Maintainer) ApplyBatch(cs []Change) (Report, error) { return m.impl.ApplyBatch(cs) }

// InsertNode adds a node with edges to the listed existing neighbors.
func (m *Maintainer) InsertNode(v NodeID, nbrs ...NodeID) (Report, error) {
	return m.impl.Apply(graph.NodeChange(graph.NodeInsert, v, nbrs...))
}

// RemoveNode deletes a node gracefully (it relays until the structure is
// stable).
func (m *Maintainer) RemoveNode(v NodeID) (Report, error) {
	return m.impl.Apply(graph.NodeChange(graph.NodeDeleteGraceful, v))
}

// RemoveNodeAbrupt deletes a node abruptly (neighbors merely detect it).
func (m *Maintainer) RemoveNodeAbrupt(v NodeID) (Report, error) {
	return m.impl.Apply(graph.NodeChange(graph.NodeDeleteAbrupt, v))
}

// InsertEdge adds the edge {u,v}.
func (m *Maintainer) InsertEdge(u, v NodeID) (Report, error) {
	return m.impl.Apply(graph.EdgeChange(graph.EdgeInsert, u, v))
}

// RemoveEdge deletes the edge {u,v} gracefully.
func (m *Maintainer) RemoveEdge(u, v NodeID) (Report, error) {
	return m.impl.Apply(graph.EdgeChange(graph.EdgeDeleteGraceful, u, v))
}

// RemoveEdgeAbrupt deletes the edge {u,v} abruptly.
func (m *Maintainer) RemoveEdgeAbrupt(u, v NodeID) (Report, error) {
	return m.impl.Apply(graph.EdgeChange(graph.EdgeDeleteAbrupt, u, v))
}

// Mute hides a node from its neighbors while it keeps listening. Every
// engine supports it except EngineAsyncDirect, which does not model
// muting (it is a synchronous-round notion) and returns an error matching
// ErrMutedUnsupported.
func (m *Maintainer) Mute(v NodeID) (Report, error) {
	return m.impl.Apply(graph.NodeChange(graph.NodeMute, v))
}

// Unmute re-activates a muted node with the given (previously known)
// neighbors; it costs O(1) broadcasts because the node kept listening.
// Engine support matches Mute.
func (m *Maintainer) Unmute(v NodeID, nbrs ...NodeID) (Report, error) {
	return m.impl.Apply(graph.NodeChange(graph.NodeUnmute, v, nbrs...))
}

// Grow hints the expected number of additional nodes, preallocating the
// storage arena (slots, adjacency, priority and membership lanes, and the
// node index table) so a known-size warm-up phase neither reallocates nor
// incrementally rehashes. It never changes observable state and is safe to
// skip or overshoot.
func (m *Maintainer) Grow(n int) { m.impl.Graph().Grow(n) }

// InMIS reports whether v is currently in the MIS.
func (m *Maintainer) InMIS(v NodeID) bool { return m.impl.InMIS(v) }

// MIS returns the sorted current MIS.
func (m *Maintainer) MIS() []NodeID { return m.impl.MIS() }

// State returns the full membership map.
func (m *Maintainer) State() map[NodeID]Membership { return m.impl.State() }

// Nodes returns the sorted visible node set.
func (m *Maintainer) Nodes() []NodeID { return m.impl.Graph().Nodes() }

// HasNode reports whether v is visible.
func (m *Maintainer) HasNode(v NodeID) bool { return m.impl.Graph().HasNode(v) }

// HasEdge reports whether the edge {u,v} is visible.
func (m *Maintainer) HasEdge(u, v NodeID) bool { return m.impl.Graph().HasEdge(u, v) }

// NodeCount and EdgeCount report the visible topology size.
func (m *Maintainer) NodeCount() int { return m.impl.Graph().NodeCount() }

// EdgeCount reports the visible edge count.
func (m *Maintainer) EdgeCount() int { return m.impl.Graph().EdgeCount() }

// Clusters returns the maintained correlation clustering (node → cluster
// head), derived from the MIS by the random-greedy pivot rule; in
// expectation its cost is within 3× of optimal.
func (m *Maintainer) Clusters() map[NodeID]NodeID {
	return core.GreedyClusters(m.impl.Graph(), m.impl.Order(), m.impl.State())
}

// Check verifies the maintained structure's invariants (for tests and
// debugging; it is never needed in normal operation).
func (m *Maintainer) Check() error { return m.impl.Check() }

// Metrics returns a snapshot of the cumulative complexity counters and
// whether instrumentation is enabled. The counters cover every
// successful update since construction (or the last ResetMetrics):
// amortized adjustments, cascade steps, touched slots, rounds,
// broadcasts and message traffic — the measured forms of the paper's
// O(1) bounds, tabulated against them by cmd/validate. Without
// WithInstrumentation the snapshot is zero and the second result is
// false.
func (m *Maintainer) Metrics() (metrics.Counters, bool) {
	if m.coll == nil {
		return metrics.Counters{}, false
	}
	return m.coll.Snapshot(), true
}

// ResetMetrics zeroes the instrumentation counters; it is a no-op
// without WithInstrumentation. Use it to scope the account to a
// measurement phase (e.g. after an untimed warm-up) — Drive callers get
// per-drive deltas in Summary.Metrics without resetting.
func (m *Maintainer) ResetMetrics() {
	if m.coll != nil {
		m.coll.Reset()
	}
}

// MemoryProfile returns the engine's live retained-bytes account —
// arena lanes, hash index, spill pool, free-lists, engine auxiliary
// storage, and the headline bytes/node — and whether the engine
// implements the core.MemoryReporter capability. The arena-backed
// engines (template, sharded, sequential, gupta-khan, aoss) do; the
// message-passing engines, whose state is per-node network knowledge,
// do not. The account is deterministic for a given change history, so
// harnesses commit it in artifacts (BENCH_dynmis.json's big-graph tier,
// docs/VALIDATION.md's head-to-head table, /metricsz).
func (m *Maintainer) MemoryProfile() (metrics.Memory, bool) {
	if r, ok := m.impl.(core.MemoryReporter); ok {
		return r.MemoryProfile(), true
	}
	return metrics.Memory{}, false
}

// Snapshot is a serializable image of the maintained structure (graph,
// priorities, memberships); see Maintainer.Snapshot and Restore.
type Snapshot = core.Snapshot

// Snapshotter is the persistence capability: engines that can serialize
// their maintained structure implement it. EngineTemplate and
// EngineSharded do (they share the same core state — graph, priorities,
// memberships); the message-passing engines carry per-node network
// knowledge that is not meaningfully persistable.
type Snapshotter = core.Snapshotter

// Snapshot captures the current state for persistence. It succeeds iff
// the backing engine implements the Snapshotter capability; otherwise it
// returns an error matching ErrSnapshotUnsupported.
func (m *Maintainer) Snapshot() (*Snapshot, error) {
	s, ok := m.impl.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: engine %v", ErrSnapshotUnsupported, m.engine)
	}
	return s.Snapshot(), nil
}

// Image is a frozen copy of the maintained structure, taken by
// Maintainer.Freeze and read later: Image.WriteJSON encodes it as the
// JSON of the Snapshot it was taken in place of, and Image.Nodes lists
// the memberships in node order.
type Image = core.Image

// Freeze copies the current state for a later encode. It costs a few
// slice copies of the engine's arena — no sorting, no encoding — so a
// caller that serializes access to the maintainer can take it under its
// lock and encode it after releasing the lock, while changes go on being
// applied. It succeeds iff the backing engine implements the Snapshotter
// capability; otherwise it returns an error matching
// ErrSnapshotUnsupported.
func (m *Maintainer) Freeze() (*Image, error) {
	s, ok := m.impl.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: engine %v", ErrSnapshotUnsupported, m.engine)
	}
	return s.Freeze(), nil
}

// Restore rebuilds a Maintainer from a snapshot; fresh nodes inserted
// afterwards draw priorities from a stream seeded by seed. Tampered
// snapshots (violating the MIS invariant) are rejected.
//
// By default the restored maintainer is template-backed; pass
// WithEngine(EngineSharded) (plus WithShards/WithWindow) to restore into
// the sharded engine — a snapshot taken on either Snapshotter engine
// restores into either, because they persist the same structure. Other
// engines return an error matching ErrSnapshotUnsupported. A WithSeed
// option is ignored: the seed parameter wins.
func Restore(s *Snapshot, seed uint64, opts ...Option) (*Maintainer, error) {
	cfg, err := resolve(EngineTemplate, opts)
	if err != nil {
		return nil, err
	}
	switch cfg.engine {
	case EngineTemplate:
		tpl, err := core.RestoreTemplate(s, seed)
		if err != nil {
			return nil, err
		}
		return newMaintainer(tpl, cfg), nil
	case EngineSharded:
		e, err := shard.Restore(s, seed, cfg.shards)
		if err != nil {
			return nil, err
		}
		if cfg.window > 0 {
			e.SetWindow(cfg.window)
		}
		return newMaintainer(e, cfg), nil
	default:
		return nil, fmt.Errorf("%w: engine %v cannot restore a snapshot", ErrSnapshotUnsupported, cfg.engine)
	}
}

// PriorityDraws reports how many fresh priorities the maintainer's random
// order has drawn so far. Persist it next to a Snapshot and pass it to
// RestoreAt and the restored maintainer continues the identical priority
// stream — the property the durability layer (dynmis/server) relies on for
// byte-identical crash recovery.
func (m *Maintainer) PriorityDraws() uint64 { return m.impl.Order().Draws() }

// RestoreAt is Restore plus stream repositioning: after rebuilding the
// structure it advances the priority stream past the first draws draws, so
// nodes inserted after the restore receive exactly the priorities the
// original maintainer would have assigned. Restore alone only guarantees a
// *valid* continuation (any seed keeps priorities uniform); RestoreAt
// guarantees the *same* continuation, which is what makes snapshot +
// change-log-tail replay reproduce an uninterrupted run bit for bit.
func RestoreAt(s *Snapshot, seed uint64, draws uint64, opts ...Option) (*Maintainer, error) {
	m, err := Restore(s, seed, opts...)
	if err != nil {
		return nil, err
	}
	m.impl.Order().Skip(draws)
	return m, nil
}

// Verify additionally asserts the greedy certificate: the current
// structure must equal the sequential greedy MIS on the current graph
// under the maintainer's order. For the π-equivalent engines this is
// history independence (Definition 14); the competitor engines expose a
// two-band certificate order (members before non-members) under which
// greedy reproduces their MIS, so the same oracle verifies every engine.
func (m *Maintainer) Verify() error {
	if err := m.impl.Check(); err != nil {
		return err
	}
	want := core.GreedyMIS(m.impl.Graph().Clone(), m.impl.Order())
	if !core.EqualStates(m.impl.State(), want) {
		return fmt.Errorf("dynmis: state diverged from the greedy oracle")
	}
	return nil
}
