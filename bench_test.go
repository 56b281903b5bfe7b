// Benchmarks regenerating the paper's evaluation (§10) as testing.B
// targets — one benchmark family per figure/table, plus ablation
// benchmarks for the design choices called out in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// The harness binary (cmd/gretabench) produces the paper-style tables;
// these benchmarks provide the same measurements under the Go bench
// framework. Two-step engines run at reduced sizes with caps: they are
// exponential, which is precisely the paper's point.
package greta_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/cet"
	"github.com/greta-cep/greta/internal/baseline/flat"
	"github.com/greta-cep/greta/internal/baseline/sase"
	"github.com/greta-cep/greta/internal/bench"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/gen"
	"github.com/greta-cep/greta/internal/query"
)

func runGreta(b *testing.B, qsrc string, evs []*event.Event, mode aggregate.Mode) {
	b.Helper()
	q := query.MustParse(qsrc)
	plan, err := core.NewPlan(q, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(plan)
		eng.Run(event.NewSliceStream(evs))
	}
	b.StopTimer()
	reportThroughput(b, len(evs))
}

func reportThroughput(b *testing.B, events int) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
}

// stockStream generates the Fig. 14/15 workload at ~1 event per company
// per second (matching the harness), so adjacency is non-trivial.
func stockStream(n int, haltProb float64) []*event.Event {
	cfg := gen.DefaultStock(n)
	cfg.Rate = 10
	cfg.HaltProb = haltProb
	return gen.Stock(cfg)
}

// BenchmarkFig14 regenerates Figure 14: positive patterns over the
// stock stream, events-per-window sweep, all four engines.
func BenchmarkFig14(b *testing.B) {
	q := bench.Q1Positive
	for _, n := range []int{500, 1000, 2000, 4000, 8000} {
		evs := stockStream(n, 0)
		b.Run(fmt.Sprintf("GRETA/n=%d", n), func(b *testing.B) {
			runGreta(b, q, evs, aggregate.ModeNative)
		})
	}
	qq := query.MustParse(q)
	for _, n := range []int{100, 250, 500} {
		evs := stockStream(n, 0)
		b.Run(fmt.Sprintf("SASE/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sase.Run(qq, evs, sase.Options{MaxTrends: 2_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
		b.Run(fmt.Sprintf("CET/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cet.Run(qq, evs, cet.Options{MaxNodes: 2_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
		b.Run(fmt.Sprintf("Flink/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := flat.Run(qq, evs, flat.Options{MaxLen: 8, MaxSequences: 2_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
	}
}

// BenchmarkFig15 regenerates Figure 15: the same sweep with a negative
// sub-pattern (trading halts invalidate later events).
func BenchmarkFig15(b *testing.B) {
	q := bench.Q1Negation
	for _, n := range []int{500, 1000, 2000, 4000, 8000} {
		evs := stockStream(n, 0.002)
		b.Run(fmt.Sprintf("GRETA/n=%d", n), func(b *testing.B) {
			runGreta(b, q, evs, aggregate.ModeNative)
		})
	}
	qq := query.MustParse(q)
	for _, n := range []int{100, 250, 500} {
		evs := stockStream(n, 0.002)
		b.Run(fmt.Sprintf("SASE/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sase.Run(qq, evs, sase.Options{MaxTrends: 2_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
	}
}

// BenchmarkFig16 regenerates Figure 16: edge-predicate selectivity
// sweep over the Linear Road stream.
func BenchmarkFig16(b *testing.B) {
	for _, sel := range []float64{10, 30, 50, 70, 90} {
		cfg := gen.DefaultLinearRoad(4000)
		cfg.StartRate, cfg.EndRate = 50, 200
		cfg.GateSelectivity = sel
		evs := gen.LinearRoad(cfg)
		b.Run(fmt.Sprintf("GRETA/sel=%.0f", sel), func(b *testing.B) {
			runGreta(b, bench.Q3Selectivity, evs, aggregate.ModeNative)
		})
	}
	qq := query.MustParse(bench.Q3Selectivity)
	for _, sel := range []float64{10, 30, 50} {
		cfg := gen.DefaultLinearRoad(600)
		cfg.StartRate, cfg.EndRate = 50, 200
		cfg.GateSelectivity = sel
		evs := gen.LinearRoad(cfg)
		b.Run(fmt.Sprintf("SASE/sel=%.0f", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sase.Run(qq, evs, sase.Options{MaxTrends: 5_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
	}
}

// BenchmarkFig17 regenerates Figure 17: number of event trend groups.
// GRETA's cost stays flat; the two-step engines speed up with more
// groups because trends get shorter.
func BenchmarkFig17(b *testing.B) {
	for _, groups := range []int{1, 5, 10, 50} {
		cfg := gen.DefaultCluster(4000)
		cfg.Rate = 200
		cfg.Mappers = groups
		evs := gen.Cluster(cfg)
		b.Run(fmt.Sprintf("GRETA/groups=%d", groups), func(b *testing.B) {
			runGreta(b, bench.Q2Groups, evs, aggregate.ModeNative)
		})
	}
	qq := query.MustParse(bench.Q2Groups)
	for _, groups := range []int{5, 10, 50} {
		cfg := gen.DefaultCluster(1500)
		cfg.Rate = 100
		cfg.Mappers = groups
		evs := gen.Cluster(cfg)
		b.Run(fmt.Sprintf("SASE/groups=%d", groups), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sase.Run(qq, evs, sase.Options{MaxTrends: 5_000_000}); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
	}
}

// BenchmarkTable1 measures the three event selection semantics over
// the §2 example stream shape (Table 1).
func BenchmarkTable1(b *testing.B) {
	evs := stockStream(4000, 0)
	for _, sem := range []string{"skip-till-any-match", "skip-till-next-match", "contiguous"} {
		q := fmt.Sprintf("RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS %s", sem)
		b.Run(sem, func(b *testing.B) {
			runGreta(b, q, evs, aggregate.ModeNative)
		})
	}
}

// BenchmarkTheorem8Growth tracks GRETA's scaling on the dense A+
// workload. The paper's cost model is quadratic in events per window
// (Theorem 8.1: every insertion visits every predecessor), and the
// LOGICAL edge count stays n(n-1)/2 (TestGrowthShape locks that in) —
// but the summary fast path aggregates those edges through subtree
// folds, so wall-clock should now grow near-linearly (~n log n), not
// quadratically.
func BenchmarkTheorem8Growth(b *testing.B) {
	for _, n := range []int{500, 1000, 2000, 4000} {
		var bd event.Builder
		for i := 0; i < n; i++ {
			bd.Add("A", event.Time(i+1), nil)
		}
		evs := bd.Events()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runGreta(b, "RETURN COUNT(*) PATTERN A+", evs, aggregate.ModeNative)
		})
	}
}

// BenchmarkAblationVertexTree compares the compiled-range Vertex Tree
// path against a semantically identical predicate written in a form
// the range compiler cannot use (full scan + residual evaluation) —
// the §7 design choice.
func BenchmarkAblationVertexTree(b *testing.B) {
	evs := stockStream(4000, 0)
	// Sorted tree + range scan: S.price > NEXT(S).price compiles.
	b.Run("range", func(b *testing.B) {
		runGreta(b, "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price", evs, aggregate.ModeNative)
	})
	// Same predicate, non-linear form: full scan per insertion.
	b.Run("scan", func(b *testing.B) {
		runGreta(b, "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price * S.price > NEXT(S).price * NEXT(S).price", evs, aggregate.ModeNative)
	})
}

// BenchmarkAblationPaneSharing compares the shared GRETA graph across
// overlapping sliding windows (paper §6, Fig. 9(b)) against naive
// per-window replication (Fig. 9(a)).
func BenchmarkAblationPaneSharing(b *testing.B) {
	evs := stockStream(6000, 0)
	qShared := "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 8 SLIDE 2"
	b.Run("shared", func(b *testing.B) {
		runGreta(b, qShared, evs, aggregate.ModeNative)
	})
	b.Run("replicated", func(b *testing.B) {
		// One engine per window over only that window's events.
		q := query.MustParse("RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price")
		spec := query.MustParse(qShared).Window
		plan, err := core.NewPlan(q, aggregate.ModeNative)
		if err != nil {
			b.Fatal(err)
		}
		var wids []int64
		seen := map[int64]bool{}
		for _, e := range evs {
			lo, hi := spec.Wids(e.Time)
			for w := lo; w <= hi; w++ {
				if !seen[w] {
					seen[w] = true
					wids = append(wids, w)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, wid := range wids {
				var wevs []*event.Event
				for _, e := range evs {
					if spec.Contains(wid, e.Time) {
						wevs = append(wevs, e)
					}
				}
				eng := core.NewEngine(plan)
				eng.Run(event.NewSliceStream(wevs))
			}
		}
		b.StopTimer()
		reportThroughput(b, len(evs))
	})
}

// BenchmarkAblationArithmetic compares native (wrap-around uint64)
// against exact (math/big) aggregate arithmetic.
func BenchmarkAblationArithmetic(b *testing.B) {
	evs := stockStream(2000, 0)
	q := "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price"
	b.Run("native", func(b *testing.B) {
		runGreta(b, q, evs, aggregate.ModeNative)
	})
	b.Run("exact", func(b *testing.B) {
		runGreta(b, q, evs, aggregate.ModeExact)
	})
}

// BenchmarkParallelPartitions measures the §7 parallel partition
// processing on the grouped cluster workload.
func BenchmarkParallelPartitions(b *testing.B) {
	stmt := greta.MustCompile(bench.Q2Groups + " WITHIN 20 seconds SLIDE 10 seconds")
	evs := gen.Cluster(gen.DefaultCluster(30000))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := greta.NewRuntime()
				if _, err := rt.Register(stmt, greta.WithSharing(false)); err != nil {
					b.Fatal(err)
				}
				if err := rt.RunParallel(context.Background(), greta.NewSliceStream(evs), workers); err != nil {
					b.Fatal(err)
				}
			}
			reportThroughput(b, len(evs))
		})
	}
}

// batchIngestWorkloads are the BenchmarkBatchIngest fixtures: the
// Fig. 14 stock workload (edge predicate — the batch path amortizes
// hashing and clock advances but cannot pre-filter) and the Fig. 16
// low-selectivity Linear Road workload with the gate as a vertex
// predicate (the column pre-filter skips ~90% of rows).
func batchIngestWorkloads() []struct {
	name    string
	q       string
	evs     []*event.Event
	schemas []*event.Schema
} {
	// 20k events so steady-state ingest dominates the per-iteration
	// runtime setup and pool warmup (the ratio of interest is the
	// amortized per-row cost, not the cold start).
	lr := gen.DefaultLinearRoad(20000)
	lr.StartRate, lr.EndRate = 50, 200
	lr.GateSelectivity = 10
	return []struct {
		name    string
		q       string
		evs     []*event.Event
		schemas []*event.Schema
	}{
		{"fig14", bench.Q1Positive, stockStream(4000, 0), gen.StockSchemas()},
		{"fig16-sel10", bench.Q3SelectivityVertex, gen.LinearRoad(lr), gen.LinearRoadSchemas()},
	}
}

// buildIngestBatches groups consecutive same-type events into columnar
// batches of up to size rows (the generators emit batch-representable
// values only).
func buildIngestBatches(b *testing.B, evs []*event.Event, schemas []*greta.Schema, size int) []*greta.Batch {
	b.Helper()
	bySch := map[greta.Type]*greta.Schema{}
	for _, s := range schemas {
		bySch[s.Type] = s
	}
	var out []*greta.Batch
	var cur *greta.Batch
	for _, ev := range evs {
		if cur != nil && (cur.Type() != ev.Type || cur.Len() >= size) {
			out = append(out, cur)
			cur = nil
		}
		if cur == nil {
			sch := bySch[ev.Type]
			if sch == nil {
				b.Fatalf("no schema for type %q", ev.Type)
			}
			cur = greta.NewBatch(sch, size)
		}
		if err := cur.AppendEvent(ev); err != nil {
			b.Fatal(err)
		}
	}
	if cur != nil {
		out = append(out, cur)
	}
	return out
}

// BenchmarkBatchIngest compares per-event Process against columnar
// ProcessBatch at batch sizes 1, 64, and 1024 over the Fig. 14 and
// Fig. 16 (sel=10, vertex gate) workloads. Results are bit-identical
// across all variants (TestBatchIngestDifferential); the batch path
// buys one hash probe per partition run, one watermark advance per
// batch, and — on the fig16 workload — column pre-filtering.
func BenchmarkBatchIngest(b *testing.B) {
	for _, w := range batchIngestWorkloads() {
		stmt := greta.MustCompile(w.q)
		// The timer brackets ingest only: runtime construction, statement
		// compilation/registration, and the Close-time window flush are
		// identical across variants and would otherwise dilute (and add
		// planner/GC noise to) the per-row cost under comparison.
		b.Run(w.name+"/per-event", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := greta.NewRuntime()
				if _, err := rt.Register(stmt); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, ev := range w.evs {
					if err := rt.Process(ev); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			reportThroughput(b, len(w.evs))
		})
		for _, size := range []int{1, 64, 1024} {
			batches := buildIngestBatches(b, w.evs, w.schemas, size)
			b.Run(fmt.Sprintf("%s/batch=%d", w.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rt := greta.NewRuntime()
					if _, err := rt.Register(stmt); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, bt := range batches {
						if _, err := rt.ProcessBatch(bt); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					if err := rt.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				reportThroughput(b, len(w.evs))
			})
		}
	}
}

// BenchmarkIngestion measures single-event processing cost at steady
// state (the per-event path: pane lookup, tree insert, range scan,
// payload fold).
func BenchmarkIngestion(b *testing.B) {
	stmt := greta.MustCompile("RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 30 seconds SLIDE 10 seconds")
	cfgIngest := gen.DefaultStock(200000)
	cfgIngest.Rate = 1000
	evs := gen.Stock(cfgIngest)
	rt := greta.NewRuntime()
	if _, err := rt.Register(stmt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Process(evs[i%len(evs)]) // the wrap-around's late events are dropped
	}
}
