// Package metrics is the complexity-instrumentation subsystem of the
// dynmis reproduction: cheap cumulative counters for exactly the
// quantities the source paper (Censor-Hillel, Haramaty, Karnin; PODC
// 2016) and the surrounding dynamic-distributed-algorithms literature
// account for — adjustments, influence-set sizes, cascade lengths,
// touched arena slots, synchronous rounds to quiescence, and simnet
// message traffic (broadcasts, point-to-point sends and deliveries,
// bits).
//
// Engines expose instrumentation through the core.Instrument capability:
// attaching a *Collector turns counting on, attaching nil turns it off.
// When no collector is attached the per-update cost of the subsystem is
// a single nil pointer check on the engine's accounting path — no
// allocation, no atomic, no branch inside the cascade inner loop — which
// is what lets the same binaries serve both production traffic and
// paper-conformance measurement (cmd/validate, docs/VALIDATION.md).
//
// The counters are deliberately plain unsigned integers updated from the
// engine's applying goroutine only. The sharded engine accounts from its
// coordinator goroutine after the window's workers have joined, so even
// the concurrent engine needs no synchronization here.
package metrics

import (
	"fmt"
	"strings"
)

// Counters is the cumulative complexity account. Every field is a sum
// over the instrumented updates except MaxCausalDepth, which is a
// running maximum (matching the asynchronous cost model, where "time" is
// the longest causal chain ever observed, not an additive quantity).
//
// Fields an engine does not model stay zero: the model-level template
// has no rounds or messages, the message-passing engines have no cascade
// steps or touched slots, and only the sharded engine reports hand-offs.
// The JSON tags are the stable wire names used by dynmisd's /metricsz
// endpoint; renaming a tag is a wire-format change.
type Counters struct {
	// Updates is the number of topology changes successfully applied
	// while the collector was attached. Applications that end in an
	// error are not counted at all — even though a failed batch's
	// staged prefix takes effect, instrumentation tracks successful
	// windows only.
	Updates uint64 `json:"updates"`
	// Windows is the number of engine applications the updates arrived
	// in: equal to Updates when applying change by change, and the
	// number of batch windows when applying through ApplyBatch.
	Windows uint64 `json:"windows"`

	// Adjustments is the total number of membership adjustments — nodes
	// whose output differs between the stable configuration before an
	// update and the one after it. Theorem 1 bounds its expectation by
	// one per update; Adjustments/Updates is the measured amortized
	// adjustment complexity that docs/VALIDATION.md tabulates.
	Adjustments uint64 `json:"adjustments"`
	// Influence is the total influence-set size Σ|S|: nodes that changed
	// state at least once during a recovery, including transient flips.
	Influence uint64 `json:"influence"`
	// Flips is the total number of state flips including repeats (the
	// naive template may make up to |S|² of them, §4).
	Flips uint64 `json:"flips"`

	// CascadeSteps is the total number of synchronous cascade steps the
	// model-level template executed (steps in which at least one node
	// flipped) — its "rounds to quiescence". The sharded engine counts
	// them for the windows it leaves to the Template's cascade; its
	// parallel windows have no steps.
	CascadeSteps uint64 `json:"cascade_steps"`
	// TouchedSlots is the total number of distinct arena slots the
	// O(touched) accounting examined per window: staged nodes plus
	// cascade-flipped nodes. It is the measured form of the claim that
	// per-update cost is O(touched), never O(n).
	TouchedSlots uint64 `json:"touched_slots"`

	// Rounds is the total number of synchronous network rounds to
	// quiescence across all instrumented updates (message-passing
	// engines only).
	Rounds uint64 `json:"rounds"`
	// Broadcasts counts broadcast operations: one per sending node per
	// round regardless of degree — the paper's broadcast-complexity.
	Broadcasts uint64 `json:"broadcasts"`
	// MessagesSent counts point-to-point message copies produced by
	// broadcast fan-out (one per neighbor), including copies that were
	// never delivered — dropped by a fault injector, or in flight to a
	// node that departed before delivery.
	MessagesSent uint64 `json:"messages_sent"`
	// MessagesDelivered counts point-to-point copies actually delivered
	// to a live recipient. Without faults and departures mid-recovery
	// it equals MessagesSent.
	MessagesDelivered uint64 `json:"messages_delivered"`
	// MessagesDropped counts copies suppressed by a fault injector.
	MessagesDropped uint64 `json:"messages_dropped"`
	// Bits is the total broadcast payload size in bits; the paper
	// restricts messages to O(log n) bits.
	Bits uint64 `json:"bits"`
	// MaxCausalDepth is the longest chain of causally dependent message
	// deliveries observed (asynchronous engine only). It is a maximum,
	// not a sum.
	MaxCausalDepth uint64 `json:"max_causal_depth"`

	// Handoffs is the total number of cascade hand-offs the sharded
	// engine's parallel windows routed (local and cross-shard, attributed
	// by slot ownership). Windows left to the Template's synchronous
	// cascade route none.
	Handoffs uint64 `json:"handoffs"`
	// CrossShard is the subset of Handoffs that crossed a shard boundary
	// — the serialization points of a parallel window. Theorem 1 bounds
	// its expectation by O(1) per update regardless of the shard count.
	CrossShard uint64 `json:"cross_shard"`
	// Steals is the number of successful work-steal operations in the
	// sharded engine: an idle worker taking a batch of queued slots from
	// a busier shard's deque. Unlike Handoffs/CrossShard it depends on
	// runtime scheduling, so it is not deterministic across runs.
	Steals uint64 `json:"steals"`
}

// Add accumulates o into c: sums everywhere, except MaxCausalDepth which
// takes the maximum.
func (c *Counters) Add(o Counters) {
	c.Updates += o.Updates
	c.Windows += o.Windows
	c.Adjustments += o.Adjustments
	c.Influence += o.Influence
	c.Flips += o.Flips
	c.CascadeSteps += o.CascadeSteps
	c.TouchedSlots += o.TouchedSlots
	c.Rounds += o.Rounds
	c.Broadcasts += o.Broadcasts
	c.MessagesSent += o.MessagesSent
	c.MessagesDelivered += o.MessagesDelivered
	c.MessagesDropped += o.MessagesDropped
	c.Bits += o.Bits
	c.MaxCausalDepth = max(c.MaxCausalDepth, o.MaxCausalDepth)
	c.Handoffs += o.Handoffs
	c.CrossShard += o.CrossShard
	c.Steals += o.Steals
}

// Diff returns the counters accumulated since prev was captured from the
// same collector: field-wise subtraction for the additive counters.
// MaxCausalDepth carries the current running maximum (the maximum inside
// an interval is not recoverable from two snapshots). prev must be an
// earlier snapshot of the same counter stream.
func (c Counters) Diff(prev Counters) Counters {
	return Counters{
		Updates:           c.Updates - prev.Updates,
		Windows:           c.Windows - prev.Windows,
		Adjustments:       c.Adjustments - prev.Adjustments,
		Influence:         c.Influence - prev.Influence,
		Flips:             c.Flips - prev.Flips,
		CascadeSteps:      c.CascadeSteps - prev.CascadeSteps,
		TouchedSlots:      c.TouchedSlots - prev.TouchedSlots,
		Rounds:            c.Rounds - prev.Rounds,
		Broadcasts:        c.Broadcasts - prev.Broadcasts,
		MessagesSent:      c.MessagesSent - prev.MessagesSent,
		MessagesDelivered: c.MessagesDelivered - prev.MessagesDelivered,
		MessagesDropped:   c.MessagesDropped - prev.MessagesDropped,
		Bits:              c.Bits - prev.Bits,
		MaxCausalDepth:    c.MaxCausalDepth,
		Handoffs:          c.Handoffs - prev.Handoffs,
		CrossShard:        c.CrossShard - prev.CrossShard,
		Steals:            c.Steals - prev.Steals,
	}
}

// PerUpdate is Counters normalized by the update count: the amortized
// per-change complexity measures the paper's theorems bound. The zero
// value (no updates) is all zeros, never NaN.
// The JSON tags mirror Counters' and are equally load-bearing for
// /metricsz consumers.
type PerUpdate struct {
	Adjustments       float64 `json:"adjustments"`
	Influence         float64 `json:"influence"`
	Flips             float64 `json:"flips"`
	CascadeSteps      float64 `json:"cascade_steps"`
	TouchedSlots      float64 `json:"touched_slots"`
	Rounds            float64 `json:"rounds"`
	Broadcasts        float64 `json:"broadcasts"`
	MessagesSent      float64 `json:"messages_sent"`
	MessagesDelivered float64 `json:"messages_delivered"`
	Bits              float64 `json:"bits"`
	Handoffs          float64 `json:"handoffs"`
	CrossShard        float64 `json:"cross_shard"`
	Steals            float64 `json:"steals"`
}

// PerUpdate returns the amortized per-update rates.
func (c Counters) PerUpdate() PerUpdate {
	if c.Updates == 0 {
		return PerUpdate{}
	}
	per := func(total uint64) float64 { return float64(total) / float64(c.Updates) }
	return PerUpdate{
		Adjustments:       per(c.Adjustments),
		Influence:         per(c.Influence),
		Flips:             per(c.Flips),
		CascadeSteps:      per(c.CascadeSteps),
		TouchedSlots:      per(c.TouchedSlots),
		Rounds:            per(c.Rounds),
		Broadcasts:        per(c.Broadcasts),
		MessagesSent:      per(c.MessagesSent),
		MessagesDelivered: per(c.MessagesDelivered),
		Bits:              per(c.Bits),
		Handoffs:          per(c.Handoffs),
		CrossShard:        per(c.CrossShard),
		Steals:            per(c.Steals),
	}
}

// String renders the non-zero counters compactly, leading with the
// amortized adjustment rate (the paper's headline measure).
func (c Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Counters(updates=%d", c.Updates)
	if c.Updates > 0 {
		fmt.Fprintf(&b, " adj/upd=%.3f", float64(c.Adjustments)/float64(c.Updates))
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"windows", c.Windows}, {"adj", c.Adjustments}, {"|S|", c.Influence},
		{"flips", c.Flips}, {"casc-steps", c.CascadeSteps}, {"touched", c.TouchedSlots},
		{"rounds", c.Rounds}, {"bcasts", c.Broadcasts}, {"sent", c.MessagesSent},
		{"delivered", c.MessagesDelivered}, {"dropped", c.MessagesDropped},
		{"bits", c.Bits}, {"depth", c.MaxCausalDepth},
		{"handoffs", c.Handoffs}, {"xshard", c.CrossShard}, {"steals", c.Steals},
	} {
		if f.v != 0 {
			fmt.Fprintf(&b, " %s=%d", f.name, f.v)
		}
	}
	b.WriteString(")")
	return b.String()
}

// NetworkSample is one recovery's network-cost readings, as plain ints
// so the network simulator can hand them over without this package
// depending on it (internal/simnet's Metrics.Sample adapts).
type NetworkSample struct {
	Broadcasts  int
	Sent        int
	Delivered   int
	Dropped     int
	Bits        int
	CausalDepth int
}

// Collector is the attachable counter sink of the core.Instrument
// capability. Engines hold a *Collector that is nil while
// instrumentation is disabled; every accounting site is guarded by that
// nil check, so a detached collector costs nothing.
//
// A Collector is not safe for concurrent use. Engines update it only
// from the goroutine that applies changes (the sharded engine from its
// coordinator, after the window's workers have joined), matching the
// engines' own single-caller contract.
type Collector struct {
	Counters
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Snapshot returns a copy of the current counters; pair two snapshots
// with Counters.Diff for interval accounting.
func (c *Collector) Snapshot() Counters { return c.Counters }

// ObserveNetworkWindow folds one successful application of a
// message-passing engine — updates changes recovered in one window —
// into the counters: the window's cost account plus the network sample
// of its recovery. It is the single fold shared by the synchronous and
// asynchronous engines (internal/direct, internal/protocol), so a new
// counter cannot be added to one engine's accounting and missed in
// another's.
func (c *Collector) ObserveNetworkWindow(updates, adjustments, influence, flips, rounds int, net NetworkSample) {
	c.Updates += uint64(updates)
	c.Windows++
	c.Adjustments += uint64(adjustments)
	c.Influence += uint64(influence)
	c.Flips += uint64(flips)
	c.Rounds += uint64(rounds)
	c.Broadcasts += uint64(net.Broadcasts)
	c.MessagesSent += uint64(net.Sent)
	c.MessagesDelivered += uint64(net.Delivered)
	c.MessagesDropped += uint64(net.Dropped)
	c.Bits += uint64(net.Bits)
	c.MaxCausalDepth = max(c.MaxCausalDepth, uint64(net.CausalDepth))
}

// Reset zeroes all counters.
func (c *Collector) Reset() { c.Counters = Counters{} }
