package core_test // see batch_test.go for why these tests are external

import (
	. "dynmis/internal/core"

	"iter"
	"math"
	"slices"
	"testing"
	"time"

	"dynmis/internal/graph"
	"dynmis/workload"
)

// bigTemplate builds a Template from n nodes of the named big-tier
// scenario's warm-up, one Apply per change, and returns it with a pull
// iterator over the scenario's unbounded drive stream.
func bigTemplate(tb testing.TB, scenario string, n int) (*Template, func() (graph.Change, bool), func()) {
	tb.Helper()
	sc, err := workload.BigScenarioByName(scenario)
	if err != nil {
		tb.Fatal(err)
	}
	build, drive := sc.Streams(workload.Rand(1), n, math.MaxInt32)
	eng := NewTemplate(1)
	eng.Graph().Grow(n)
	for c := range build {
		if _, err := eng.Apply(c); err != nil {
			tb.Fatalf("warm-up %s: %v", c, err)
		}
	}
	next, stop := iter.Pull(drive)
	return eng, next, stop
}

// pull appends the next k drive changes to buf.
func pull(tb testing.TB, next func() (graph.Change, bool), buf []graph.Change, k int) []graph.Change {
	for range k {
		c, ok := next()
		if !ok {
			tb.Fatal("drive stream exhausted")
		}
		buf = append(buf, c)
	}
	return buf
}

// TestApplyCostFlatAfterLargeWindow pins the window-scratch defect: when
// a window's scratch lived in Go maps, which never shrink and whose
// clear costs their capacity, one 65,536-change ApplyBatch made every
// later per-change Apply pay for that window's capacity, tens of times
// its cost before. Per-change cost after the window must stay within a
// wide 4x of the cost before it, both measured here in the same process;
// there is no absolute time bound.
func TestApplyCostFlatAfterLargeWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5e4-node field")
	}
	const n, window, blocks, block = 50_000, 65_536, 5, 400
	eng, next, stop := bigTemplate(t, "big-geometric", n)
	defer stop()

	// perChange is the median over blocks of the mean Apply time per
	// change, robust to a stray pause in either phase.
	perChange := func() time.Duration {
		var per []time.Duration
		for range blocks {
			cs := pull(t, next, nil, block)
			start := time.Now()
			for _, c := range cs {
				if _, err := eng.Apply(c); err != nil {
					t.Fatal(err)
				}
			}
			per = append(per, time.Since(start)/block)
		}
		slices.Sort(per)
		return per[blocks/2]
	}
	before := perChange()
	if _, err := eng.ApplyBatch(pull(t, next, nil, window)); err != nil {
		t.Fatal(err)
	}
	after := perChange()
	t.Logf("per-change Apply: %v before a %d-change window, %v after", before, window, after)
	if after > 4*before {
		t.Fatalf("per-change Apply slowed from %v to %v after one %d-change window", before, after, window)
	}
	if err := eng.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSteadyStateTemplateApply is the engine's allocation gate:
// per-change Template.Apply with one counting subscriber, on warmed
// big-tier fields, must not allocate — staging, the cascade, the
// accounting and the feed all reuse the Template's scratch. The drive
// changes are generated outside the timed region.
func BenchmarkSteadyStateTemplateApply(b *testing.B) {
	const n, warm, chunk = 50_000, 20_000, 4096
	parent := b
	for _, scenario := range []string{"big-geometric", "big-power-law"} {
		var (
			eng    *Template
			next   func() (graph.Change, bool)
			events int
		)
		// Every run of the sub-benchmark continues the same warmed engine
		// and drive stream.
		b.Run(scenario, func(b *testing.B) {
			if eng == nil {
				var stop func()
				eng, next, stop = bigTemplate(b, scenario, n)
				parent.Cleanup(stop)
				eng.Subscribe(func(Event) { events++ })
				for _, c := range pull(b, next, nil, warm) {
					if _, err := eng.Apply(c); err != nil {
						b.Fatal(err)
					}
				}
			}
			buf := make([]graph.Change, 0, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(buf) {
				b.StopTimer()
				buf = pull(b, next, buf[:0], min(chunk, b.N-i))
				b.StartTimer()
				for _, c := range buf {
					if _, err := eng.Apply(c); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if events == 0 {
				b.Fatal("the subscriber saw no events")
			}
		})
	}
}
