package bench

import (
	"fmt"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/gen"
	"github.com/greta-cep/greta/internal/query"
)

// The shared-statements workload: k statements over ONE sub-pattern —
// identical trend formation, rotating RETURN clauses — against the
// Fig. 14 stock stream. Shared registration collapses them onto one
// GRETA graph; unshared registration maintains k private graphs.
const sharedStmtPattern = "PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 60 SLIDE 30"

var sharedStmtReturns = []string{
	"COUNT(*)",
	"COUNT(*), SUM(S.price)",
	"MIN(S.price), MAX(S.price)",
	"AVG(S.price)",
}

func sharedStmtQuery(i int) string {
	return "RETURN " + sharedStmtReturns[i%len(sharedStmtReturns)] + " " + sharedStmtPattern
}

// registerSharedStmts registers k rotating-RETURN statements.
func registerSharedStmts(tb testing.TB, rt *core.Runtime, k int, share bool) []*core.Stmt {
	tb.Helper()
	stmts := make([]*core.Stmt, k)
	for i := 0; i < k; i++ {
		plan, err := core.NewPlan(query.MustParse(sharedStmtQuery(i)), aggregate.ModeNative)
		if err != nil {
			tb.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{Share: share})
		if err != nil {
			tb.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// BenchmarkSharedStatements measures the multi-query collapse: ingest
// cost of k identical-sub-pattern statements with and without the
// shared sub-plan network. Shared cost must grow sub-linearly in k
// (one graph plus per-window fan-out), unshared linearly.
func BenchmarkSharedStatements(b *testing.B) {
	cfg := gen.DefaultStock(4000)
	cfg.Rate = 10
	evs := gen.Stock(cfg)
	for _, k := range []int{1, 4, 16} {
		for _, m := range []struct {
			name  string
			share bool
		}{{"shared", true}, {"unshared", false}} {
			b.Run(fmt.Sprintf("%s/k=%d", m.name, k), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt := core.NewRuntime()
					registerSharedStmts(b, rt, k, m.share)
					for _, ev := range evs {
						if err := rt.Process(ev); err != nil {
							b.Fatal(err)
						}
					}
					if err := rt.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
				}
			})
		}
	}
}

// TestSharingEngagement is the perf-smoke guard: on the benchmark
// workload the shared sub-plan network must actually engage
// (SharedGraphs < Statements — k statements on one graph), and the
// shared registration must reproduce the unshared results exactly.
func TestSharingEngagement(t *testing.T) {
	cfg := gen.DefaultStock(800)
	cfg.Rate = 10
	evs := gen.Stock(cfg)
	const k = 16

	shared := core.NewRuntime()
	sharedStmts := registerSharedStmts(t, shared, k, true)
	rs := shared.Stats()
	if rs.Statements != k || rs.SharedGraphs < 1 || rs.SharedGraphs >= rs.Statements {
		t.Fatalf("sharing not engaged on the benchmark workload: %+v (want SharedGraphs in [1, Statements))", rs)
	}
	if rs.SharedStatements != k || rs.SharedGraphs != 1 {
		t.Fatalf("benchmark workload should collapse %d statements onto 1 graph: %+v", k, rs)
	}

	solo := core.NewRuntime()
	soloStmts := registerSharedStmts(t, solo, k, false)
	for _, ev := range evs {
		if err := shared.Process(ev); err != nil {
			t.Fatal(err)
		}
		if err := solo.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	if err := solo.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range sharedStmts {
		a, b := sharedStmts[i].Delivered(), soloStmts[i].Delivered()
		if len(a) != len(b) {
			t.Fatalf("statement %d: %d shared vs %d unshared results", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Group != b[j].Group || a[j].Wid != b[j].Wid {
				t.Fatalf("statement %d result %d: (%q,%d) vs (%q,%d)",
					i, j, a[j].Group, a[j].Wid, b[j].Group, b[j].Wid)
			}
			for v := range a[j].Values {
				if a[j].Values[v] != b[j].Values[v] {
					t.Fatalf("statement %d result %d value %d: %v shared vs %v unshared",
						i, j, v, a[j].Values[v], b[j].Values[v])
				}
			}
		}
	}
}
