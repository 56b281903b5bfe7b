package bench

import (
	"fmt"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/gen"
	"github.com/greta-cep/greta/internal/query"
)

// lowSelLinearRoad is the Fig. 16 low-selectivity workload (sel=10).
func lowSelLinearRoad(n int) []*event.Event {
	cfg := gen.DefaultLinearRoad(n)
	cfg.StartRate, cfg.EndRate = 50, 200
	cfg.GateSelectivity = 10
	return gen.LinearRoad(cfg)
}

// batchify groups consecutive same-type, time-sorted events into
// columnar batches of up to size rows. The generators emit only
// batch-representable values, so AppendEvent must never reject.
func batchify(tb testing.TB, evs []*event.Event, schemas []*event.Schema, size int) []*event.Batch {
	tb.Helper()
	bySch := map[event.Type]*event.Schema{}
	for _, s := range schemas {
		bySch[s.Type] = s
	}
	var out []*event.Batch
	var cur *event.Batch
	var last event.Time
	for _, ev := range evs {
		if cur != nil && (cur.Type() != ev.Type || cur.Len() >= size || ev.Time < last) {
			out = append(out, cur)
			cur = nil
		}
		if cur == nil {
			sch := bySch[ev.Type]
			if sch == nil {
				tb.Fatalf("no schema for event type %q", ev.Type)
			}
			n := size
			cur = event.NewBatch(sch, n)
		}
		if err := cur.AppendEvent(ev); err != nil {
			tb.Fatalf("generated event rejected by AppendEvent: %v", err)
		}
		last = ev.Time
	}
	if cur != nil {
		out = append(out, cur)
	}
	return out
}

// TestBatchPrefilterEngagement is the perf-smoke guard for columnar
// ingest: on the Fig. 16 low-selectivity workload the vectorized
// pre-filter must actually skip the bulk of the rows (PrefilterSkips
// covering most of the ~90% that fail the gate), while reproducing the
// per-event results exactly.
func TestBatchPrefilterEngagement(t *testing.T) {
	evs := lowSelLinearRoad(2000)
	plan, err := core.NewPlan(query.MustParse(Q3SelectivityVertex), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}

	refRt := core.NewRuntime()
	refSt, err := refRt.Register(plan, core.StmtConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := refRt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := refRt.Close(); err != nil {
		t.Fatal(err)
	}
	if refSt.Stats().PrefilterSkips != 0 {
		t.Fatalf("per-event run counted PrefilterSkips: %+v", refSt.Stats())
	}

	rt := core.NewRuntime()
	st, err := rt.Register(plan, core.StmtConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batchify(t, evs, gen.LinearRoadSchemas(), 256) {
		if _, err := rt.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	stats := st.Stats()
	if stats.PrefilterSkips == 0 {
		t.Fatalf("pre-filter never engaged on the low-selectivity workload: %+v", stats)
	}
	if min := uint64(len(evs)) / 2; stats.PrefilterSkips < min {
		t.Fatalf("pre-filter skipped %d of %d rows, want >= %d (sel=10 fails ~90%%)",
			stats.PrefilterSkips, len(evs), min)
	}

	a, b := st.Delivered(), refSt.Delivered()
	if len(a) != len(b) {
		t.Fatalf("%d batch results vs %d per-event", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || a[i].Wid != b[i].Wid {
			t.Fatalf("result %d keyed (%q,%d) vs (%q,%d)", i, a[i].Group, a[i].Wid, b[i].Group, b[i].Wid)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("result %d value %d: %v batch vs %v per-event", i, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
}

// BenchmarkBatchSelectivity compares columnar against per-event ingest
// on the pre-filter showcase inside the bench package's own harness
// (the root BenchmarkBatchIngest covers the public API).
func BenchmarkBatchSelectivity(b *testing.B) {
	evs := lowSelLinearRoad(4000)
	plan, err := core.NewPlan(query.MustParse(Q3SelectivityVertex), aggregate.ModeNative)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("per-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := core.NewRuntime()
			if _, err := rt.Register(plan, core.StmtConfig{}); err != nil {
				b.Fatal(err)
			}
			for _, ev := range evs {
				if err := rt.Process(ev); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, size := range []int{64, 1024} {
		batches := batchify(b, evs, gen.LinearRoadSchemas(), size)
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := core.NewRuntime()
				if _, err := rt.Register(plan, core.StmtConfig{}); err != nil {
					b.Fatal(err)
				}
				for _, bt := range batches {
					if _, err := rt.ProcessBatch(bt); err != nil {
						b.Fatal(err)
					}
				}
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
