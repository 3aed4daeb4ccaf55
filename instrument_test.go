package dynmis_test

import (
	"context"
	"slices"
	"testing"

	"dynmis"
	"dynmis/metrics"
)

// TestDriveMetricsAcrossEngines drives an identical churn stream into
// every instrumented engine and checks the tentpole contracts of the
// complexity-instrumentation subsystem end to end: Summary.Metrics is
// the per-drive counter delta, its adjustment account agrees with the
// Report fold the summary already carries, the engine-specific counters
// move exactly where the engine models them, and the π-equivalent engines agree
// on the paper-level measures (adjustments) for equal seeds.
func TestDriveMetricsAcrossEngines(t *testing.T) {
	cs := churnStream(19, 60, 500)
	adjByEngine := make(map[dynmis.Engine]uint64)

	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			m := dynmis.MustNew(dynmis.WithSeed(3), dynmis.WithEngine(e), dynmis.WithInstrumentation())
			sum, err := m.Drive(context.Background(), slices.Values(cs))
			if err != nil {
				t.Fatal(err)
			}
			if sum.Metrics == nil {
				t.Fatal("Summary.Metrics nil despite WithInstrumentation")
			}
			c := *sum.Metrics
			if c.Updates != uint64(sum.Changes) || c.Windows != uint64(sum.Applies) {
				t.Fatalf("counter counts %d/%d vs summary %d/%d", c.Updates, c.Windows, sum.Changes, sum.Applies)
			}
			// The counter fold and the Report fold must be the same
			// account of the same drive.
			if c.Adjustments != uint64(sum.Total.Adjustments) {
				t.Fatalf("Adjustments: counters %d, reports %d", c.Adjustments, sum.Total.Adjustments)
			}
			if c.Influence != uint64(sum.Total.SSize) || c.Flips != uint64(sum.Total.Flips) {
				t.Fatalf("S/flips: counters %d/%d, reports %d/%d", c.Influence, c.Flips, sum.Total.SSize, sum.Total.Flips)
			}
			// Engine-specific counters move only where modeled.
			switch e {
			case dynmis.EngineTemplate:
				if c.TouchedSlots == 0 {
					t.Fatal("template: TouchedSlots stayed zero")
				}
				if c.Broadcasts != 0 || c.MessagesSent != 0 {
					t.Fatalf("template reported network traffic: %+v", c)
				}
			case dynmis.EngineSharded:
				// Per-change windows mostly carry too few seeds for the
				// parallel cascade and run the Template's synchronous one,
				// which steps but routes no hand-offs.
				if c.TouchedSlots == 0 || c.CascadeSteps == 0 {
					t.Fatalf("sharded: touched/steps stayed zero: %+v", c)
				}
				// CrossShard is the boundary-crossing subset of Handoffs.
				if c.CrossShard > c.Handoffs {
					t.Fatalf("sharded: cross-shard %d exceeds handoffs %d", c.CrossShard, c.Handoffs)
				}
			case dynmis.EngineDirect, dynmis.EngineProtocol:
				if c.Broadcasts == 0 || c.MessagesSent == 0 || c.Rounds == 0 || c.Bits == 0 {
					t.Fatalf("%v: network counters stayed zero: %+v", e, c)
				}
				if c.MessagesDelivered != c.MessagesSent {
					t.Fatalf("no faults injected but sent %d != delivered %d", c.MessagesSent, c.MessagesDelivered)
				}
			case dynmis.EngineAsyncDirect:
				if c.Broadcasts == 0 || c.MaxCausalDepth == 0 {
					t.Fatalf("async: counters stayed zero: %+v", c)
				}
			}
			// The cumulative facade account equals the single drive's
			// delta here, since the maintainer was fresh.
			cum, ok := m.Metrics()
			if !ok {
				t.Fatal("Metrics() reported instrumentation disabled")
			}
			if cum != c {
				t.Fatalf("cumulative counters diverge from the drive delta:\n got %+v\nwant %+v", cum, c)
			}
			adjByEngine[e] = c.Adjustments
		})
	}

	// Equal seeds, equal streams, per-change application: history
	// independence makes the adjustment account engine-independent.
	want := adjByEngine[dynmis.EngineTemplate]
	for e, got := range adjByEngine {
		if got != want {
			t.Fatalf("engine %v measured %d adjustments, template %d", e, got, want)
		}
	}
}

// TestBatchInstrumentationCountsWindows pins the window semantics of
// the capability contract on every engine, including the ones whose
// ApplyBatch delegates to per-change application: a windowed drive
// counts one window per batch, and a failing batch moves no counters at
// all (even though its staged prefix stays applied).
func TestBatchInstrumentationCountsWindows(t *testing.T) {
	cs := churnStream(37, 40, 300)
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			m := dynmis.MustNew(dynmis.WithSeed(7), dynmis.WithEngine(e), dynmis.WithInstrumentation())
			sum, err := m.Drive(context.Background(), slices.Values(cs), dynmis.DriveWindow(50))
			if err != nil {
				t.Fatal(err)
			}
			c := *sum.Metrics
			if c.Updates != uint64(sum.Changes) || c.Windows != uint64(sum.Applies) {
				t.Fatalf("windowed drive: counters %d updates / %d windows, summary %d / %d",
					c.Updates, c.Windows, sum.Changes, sum.Applies)
			}

			before, _ := m.Metrics()
			bad := []dynmis.Change{
				dynmis.Change{Kind: dynmis.NodeInsert, Node: 777_777},
				dynmis.Change{Kind: dynmis.NodeInsert, Node: 777_777}, // duplicate of the prefix insert
			}
			if _, err := m.ApplyBatch(bad); err == nil {
				t.Fatal("expected mid-batch error")
			}
			if after, _ := m.Metrics(); after != before {
				t.Fatalf("failed batch moved the counters:\n got %+v\nwant %+v", after, before)
			}
		})
	}
}

// TestDriveMetricsDeltaPerDrive pins that Summary.Metrics is the delta
// of the drive, not the cumulative account, and that ResetMetrics
// rebases the cumulative counters without touching summaries already
// returned.
func TestDriveMetricsDeltaPerDrive(t *testing.T) {
	cs := churnStream(23, 40, 300)
	half := len(cs) / 2
	m := dynmis.MustNew(dynmis.WithSeed(5), dynmis.WithEngine(dynmis.EngineTemplate), dynmis.WithInstrumentation())

	sum1, err := m.Drive(context.Background(), slices.Values(cs[:half]))
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := m.Drive(context.Background(), slices.Values(cs[half:]))
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Metrics.Updates != uint64(len(cs)-half) {
		t.Fatalf("second drive delta counts %d updates, want %d", sum2.Metrics.Updates, len(cs)-half)
	}
	var total metrics.Counters
	total.Add(*sum1.Metrics)
	total.Add(*sum2.Metrics)
	cum, _ := m.Metrics()
	if cum != total {
		t.Fatalf("cumulative != sum of drive deltas:\n got %+v\nwant %+v", cum, total)
	}

	m.ResetMetrics()
	if after, _ := m.Metrics(); after != (metrics.Counters{}) {
		t.Fatalf("ResetMetrics left %+v", after)
	}
	if sum1.Metrics.Updates == 0 {
		t.Fatal("ResetMetrics mutated a returned summary")
	}
}

// TestUninstrumentedMaintainer pins the default-off behavior: no
// Summary.Metrics, Metrics() reports disabled, and ResetMetrics is a
// no-op.
func TestUninstrumentedMaintainer(t *testing.T) {
	m := dynmis.MustNew(dynmis.WithSeed(2))
	sum, err := m.Drive(context.Background(), slices.Values(churnStream(29, 30, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Metrics != nil {
		t.Fatalf("uninstrumented drive returned metrics: %+v", sum.Metrics)
	}
	if c, ok := m.Metrics(); ok || c != (metrics.Counters{}) {
		t.Fatalf("Metrics() = %+v, %v on uninstrumented maintainer", c, ok)
	}
	m.ResetMetrics() // must not panic
}

// TestInstrumentedRestore pins that WithInstrumentation composes with
// Restore for the snapshot-capable engines.
func TestInstrumentedRestore(t *testing.T) {
	src := dynmis.MustNew(dynmis.WithSeed(7), dynmis.WithEngine(dynmis.EngineTemplate))
	if _, err := src.Drive(context.Background(), slices.Values(churnStream(31, 30, 200))); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynmis.Restore(snap, 9, dynmis.WithInstrumentation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertNode(1_000_000); err != nil {
		t.Fatal(err)
	}
	c, ok := m.Metrics()
	if !ok || c.Updates != 1 {
		t.Fatalf("restored maintainer counters: %+v, %v", c, ok)
	}
}
