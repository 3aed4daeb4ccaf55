package dynmis_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"dynmis"
	"dynmis/trace"
	"dynmis/workload"
)

// allEngines is the π-equivalent engine matrix for ingestion tests:
// every engine here draws priorities in the canonical per-change
// sequence, so equal seeds give byte-identical feeds and states.
var allEngines = []dynmis.Engine{
	dynmis.EngineTemplate,
	dynmis.EngineDirect,
	dynmis.EngineProtocol,
	dynmis.EngineAsyncDirect,
	dynmis.EngineSharded,
	dynmis.EngineSequential,
}

// independentEngines is the competitor matrix (Engine.Independent
// reports true): each maintains a valid MIS of its own, verified by
// invariants and feed replay rather than byte equality.
var independentEngines = []dynmis.Engine{
	dynmis.EngineGuptaKhan,
	dynmis.EngineAOSS,
}

// churnStream returns a reproducible build+drive change slice with no
// mute changes (so the async engine can ingest it too).
func churnStream(seed uint64, n, steps int) []dynmis.Change {
	rng := workload.Rand(seed)
	build := workload.GNP(rng, n, 6/float64(n))
	drive := workload.RandomChurn(rng, workload.BuildGraph(build), workload.DefaultChurn(steps))
	return append(build, drive...)
}

func TestDriveCancellationLeavesInvariantIntact(t *testing.T) {
	cs := churnStream(11, 50, 400)
	cancelAt := len(cs) / 2

	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			m := dynmis.MustNew(dynmis.WithSeed(5), dynmis.WithEngine(e))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			// The source cancels its own consumer mid-stream: the change
			// yielded after cancellation must be discarded, not applied.
			src := func(yield func(dynmis.Change) bool) {
				for i, c := range cs {
					if i == cancelAt {
						cancel()
					}
					if !yield(c) {
						return
					}
				}
			}

			sum, err := m.Drive(ctx, src)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Drive after cancel: err = %v, want context.Canceled", err)
			}
			if sum.Changes != cancelAt {
				t.Fatalf("applied %d changes, want %d (stop between changes)", sum.Changes, cancelAt)
			}
			if cerr := m.Check(); cerr != nil {
				t.Fatalf("invariant broken after cancellation: %v", cerr)
			}

			// The maintainer must equal one that applied exactly the
			// prefix: nothing beyond the cancellation point leaked in.
			ref := dynmis.MustNew(dynmis.WithSeed(5), dynmis.WithEngine(e))
			if _, err := ref.ApplyAll(cs[:cancelAt]); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(m.State(), ref.State()) {
				t.Fatal("cancelled drive state differs from prefix application")
			}
		})
	}
}

func TestDriveCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := dynmis.MustNew()
	sum, err := m.Drive(ctx, dynmis.SourceOf(churnStream(1, 10, 10)...))
	if !errors.Is(err, context.Canceled) || sum.Changes != 0 {
		t.Fatalf("got %d changes, err %v", sum.Changes, err)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDriveWindowedCancellationDiscardsPartialWindow(t *testing.T) {
	cs := churnStream(3, 40, 300)
	cancelAt := 150
	m := dynmis.MustNew(dynmis.WithSeed(9), dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := func(yield func(dynmis.Change) bool) {
		for i, c := range cs {
			if i == cancelAt {
				cancel()
			}
			if !yield(c) {
				return
			}
		}
	}
	sum, err := m.Drive(ctx, src, dynmis.DriveWindow(64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if sum.Changes%64 != 0 || sum.Changes > cancelAt {
		t.Fatalf("windowed cancel applied %d changes; want a whole number of full windows ≤ %d", sum.Changes, cancelAt)
	}
	if cerr := m.Check(); cerr != nil {
		t.Fatalf("invariant broken: %v", cerr)
	}
}

// TestDriveSummaryIsFoldOfReports is the no-drift property: the Summary
// Drive returns must equal, field for field, the fold of the Reports its
// observer saw — per change and per window.
func TestDriveSummaryIsFoldOfReports(t *testing.T) {
	cs := churnStream(21, 60, 500)
	for _, window := range []int{0, 1, 7, 64, 1 << 20} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			m := dynmis.MustNew(dynmis.WithSeed(2), dynmis.WithEngine(dynmis.EngineTemplate))

			var (
				want    dynmis.Summary
				applies int
			)
			sum, err := m.Drive(context.Background(), slices.Values(cs),
				dynmis.DriveWindow(window),
				dynmis.DriveObserver(func(applied []dynmis.Change, rep dynmis.Report) {
					applies++
					want.Observe(rep, applied...)
				}),
			)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Changes != len(cs) || sum.Applies != applies {
				t.Fatalf("counts: changes %d/%d, applies %d/%d", sum.Changes, len(cs), sum.Applies, applies)
			}
			if sum.Total != want.Total {
				t.Fatalf("Total drifted from fold:\n got %+v\nwant %+v", sum.Total, want.Total)
			}
			if sum.Max != want.Max {
				t.Fatalf("Max drifted from fold:\n got %+v\nwant %+v", sum.Max, want.Max)
			}
			if !maps.Equal(sum.ByKind, want.ByKind) {
				t.Fatalf("ByKind drifted from fold:\n got %v\nwant %v", sum.ByKind, want.ByKind)
			}
			kinds := 0
			for _, n := range sum.ByKind {
				kinds += n
			}
			if kinds != sum.Changes {
				t.Fatalf("ByKind total %d != changes %d", kinds, sum.Changes)
			}
		})
	}
}

func TestDriveWindowEqualsBatchApplication(t *testing.T) {
	cs := churnStream(31, 50, 400)
	const window = 32

	m := dynmis.MustNew(dynmis.WithSeed(4), dynmis.WithEngine(dynmis.EngineTemplate))
	if _, err := m.Drive(context.Background(), slices.Values(cs), dynmis.DriveWindow(window)); err != nil {
		t.Fatal(err)
	}

	ref := dynmis.MustNew(dynmis.WithSeed(4), dynmis.WithEngine(dynmis.EngineTemplate))
	for lo := 0; lo < len(cs); lo += window {
		if _, err := ref.ApplyBatch(cs[lo:min(lo+window, len(cs))]); err != nil {
			t.Fatal(err)
		}
	}
	if !maps.Equal(m.State(), ref.State()) {
		t.Fatal("windowed Drive differs from explicit ApplyBatch loop")
	}
}

// TestOneShardReportsEqualTemplate pins that EngineSharded at one shard
// runs the Template's apply path: equal seeds and changes give Reports
// equal field for field, per change and per window, including |S|, flips
// and cascade steps.
func TestOneShardReportsEqualTemplate(t *testing.T) {
	cs := churnStream(43, 100, 2000)
	for _, window := range []int{1, 40} {
		tpl := dynmis.MustNew(dynmis.WithSeed(8), dynmis.WithEngine(dynmis.EngineTemplate))
		sh := dynmis.MustNew(dynmis.WithSeed(8), dynmis.WithEngine(dynmis.EngineSharded), dynmis.WithShards(1))
		apply := func(m *dynmis.Maintainer, w []dynmis.Change) dynmis.Report {
			var rep dynmis.Report
			var err error
			if len(w) == 1 {
				rep, err = m.Apply(w[0])
			} else {
				rep, err = m.ApplyBatch(w)
			}
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		for lo := 0; lo < len(cs); lo += window {
			w := cs[lo:min(lo+window, len(cs))]
			if want, got := apply(tpl, w), apply(sh, w); got != want {
				t.Fatalf("window %d at change %d: sharded %v, template %v", window, lo, got, want)
			}
		}
	}
}

func TestDriveStopsOnRejectedChange(t *testing.T) {
	m := dynmis.MustNew(dynmis.WithSeed(1))
	cs := []dynmis.Change{
		dynmis.NodeChange(dynmis.NodeInsert, 1),
		dynmis.NodeChange(dynmis.NodeInsert, 2, 1),
		dynmis.NodeChange(dynmis.NodeInsert, 1), // duplicate: rejected
		dynmis.NodeChange(dynmis.NodeInsert, 3),
	}
	sum, err := m.Drive(context.Background(), dynmis.SourceOf(cs...))
	if err == nil {
		t.Fatal("want error for rejected change")
	}
	if sum.Changes != 2 {
		t.Fatalf("summary counts %d changes, want the applied prefix of 2", sum.Changes)
	}
	if cerr := m.Check(); cerr != nil {
		t.Fatalf("invariant broken after rejected change: %v", cerr)
	}
	if m.HasNode(3) {
		t.Fatal("change after the rejection leaked in")
	}
}

// TestTraceReplayAcrossEngines is the acceptance property: a recorded
// workload trace held to the two-tier cross-engine replay contract of
// replayTraceAcrossEngines.
func TestTraceReplayAcrossEngines(t *testing.T) {
	// Record the generated workload once.
	var file bytes.Buffer
	{
		w := trace.NewWriter(&file)
		probe := dynmis.MustNew(dynmis.WithSeed(77), dynmis.WithEngine(dynmis.EngineTemplate))
		src := trace.Tee(slices.Values(churnStream(13, 60, 600)), w)
		if _, err := probe.Drive(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	replayTraceAcrossEngines(t, file.Bytes(), 77)
}

// replayTraceAcrossEngines drives one trace through all eight engines
// under the two-tier contract. Tier 1: every π-equivalent engine
// replays it with the identical event stream and final state for equal
// seeds. Tier 2: the independent competitor engines ingest the same
// trace and are held to invariants instead — every replay passes Check
// and Verify (the two-band certificate order), the published feed folds
// back to State(), and the MIS is non-degenerate. Any trace source —
// recorded oblivious workloads, resolved adaptive-adversary runs,
// imported real-graph edge lists — plugs into the same wall.
func replayTraceAcrossEngines(t *testing.T, traceBytes []byte, seed uint64) {
	t.Helper()
	type outcome struct {
		events []dynmis.Event
		state  map[dynmis.NodeID]dynmis.Membership
		mis    []dynmis.NodeID
	}
	run := func(e dynmis.Engine) outcome {
		t.Helper()
		m := dynmis.MustNew(dynmis.WithSeed(seed), dynmis.WithEngine(e))
		var evs []dynmis.Event
		m.Subscribe(func(ev dynmis.Event) { evs = append(evs, ev) })
		r := trace.NewReader(bytes.NewReader(traceBytes))
		if _, err := m.Drive(context.Background(), r.All()); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%v: trace decode: %v", e, err)
		}
		if err := m.Check(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%v: greedy certificate: %v", e, err)
		}
		return outcome{events: evs, state: m.State(), mis: m.MIS()}
	}

	want := run(allEngines[0])
	if len(want.events) == 0 || len(want.state) == 0 {
		t.Fatal("degenerate reference run")
	}
	for _, e := range allEngines[1:] {
		got := run(e)
		if !slices.Equal(got.events, want.events) {
			t.Errorf("%v: event stream differs from template (%d vs %d events)", e, len(got.events), len(want.events))
		}
		if !maps.Equal(got.state, want.state) {
			t.Errorf("%v: final state differs from template", e)
		}
		if !slices.Equal(got.mis, want.mis) {
			t.Errorf("%v: final MIS differs from template", e)
		}
	}

	// Tier 2: the competitors' feeds and MIS are their own, but the
	// replay guarantee and the invariants must hold on the same trace
	// (run already checks Check and Verify), and the graph they end on
	// must be the recorded one — same node set as the reference.
	for _, e := range independentEngines {
		got := run(e)
		if len(got.events) == 0 || len(got.mis) == 0 {
			t.Errorf("%v: degenerate replay (%d events, |MIS| = %d)", e, len(got.events), len(got.mis))
		}
		if state := dynmis.ReplayEvents(got.events); !maps.Equal(state, got.state) {
			t.Errorf("%v: feed replay diverges from State()", e)
		}
		if len(got.state) != len(want.state) {
			t.Errorf("%v: replay ended on %d nodes, reference has %d", e, len(got.state), len(want.state))
		}
	}
}

func TestReadSideIterators(t *testing.T) {
	m := dynmis.MustNew(dynmis.WithSeed(8))
	if _, err := m.Drive(context.Background(), slices.Values(churnStream(5, 40, 200))); err != nil {
		t.Fatal(err)
	}

	nodes := slices.Collect(m.NodesSeq())
	slices.Sort(nodes)
	if !slices.Equal(nodes, m.Nodes()) {
		t.Fatal("NodesSeq disagrees with Nodes")
	}
	mis := slices.Collect(m.MISSeq())
	slices.Sort(mis)
	if !slices.Equal(mis, m.MIS()) {
		t.Fatal("MISSeq disagrees with MIS")
	}

	// Early break must not panic or corrupt anything.
	for range m.MISSeq() {
		break
	}
	for range m.NodesSeq() {
		break
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDriveNilContext(t *testing.T) {
	m := dynmis.MustNew()
	sum, err := m.Drive(nil, dynmis.SourceOf( //nolint:staticcheck // nil ctx tolerated by contract
		dynmis.NodeChange(dynmis.NodeInsert, 1),
		dynmis.NodeChange(dynmis.NodeInsert, 2, 1),
	))
	if err != nil || sum.Changes != 2 {
		t.Fatalf("nil ctx drive: %d changes, err %v", sum.Changes, err)
	}
}
