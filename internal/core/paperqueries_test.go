package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/gen"
	"github.com/greta-cep/greta/internal/query"
)

// The paper's three motivating queries (§1), verbatim, with windows
// scaled to the miniature test workloads.
const (
	paperQ1 = `RETURN sector, COUNT(*) PATTERN Stock S+
	           WHERE [company, sector] AND S.price > NEXT(S).price
	           GROUP-BY sector WITHIN 8 SLIDE 4`
	paperQ2 = `RETURN mapper, SUM(M.cpu)
	           PATTERN SEQ(Start S, Measurement M+, End E)
	           WHERE [job, mapper] AND M.load < NEXT(M).load
	           GROUP-BY mapper WITHIN 10 SLIDE 5`
	paperQ3 = `RETURN segment, COUNT(*), AVG(P.speed)
	           PATTERN SEQ(NOT Accident A, Position P+)
	           WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed
	           GROUP-BY segment WITHIN 6 SLIDE 3`
)

// TestPaperQueriesAgainstOracle runs Q1, Q2, and Q3 end to end on
// miniature versions of their workloads and compares every per-group,
// per-window aggregate against the brute-force enumerator.
func TestPaperQueriesAgainstOracle(t *testing.T) {
	cases := []struct {
		name string
		qsrc string
		evs  []*event.Event
	}{
		{
			"Q1/stock",
			paperQ1,
			gen.Stock(gen.StockConfig{
				Events: 120, Companies: 3, Sectors: 2, Rate: 5,
				StartPrice: 100, MaxTick: 2, DownBias: 0.1, Seed: 3,
			}),
		},
		{
			"Q2/cluster",
			paperQ2,
			gen.Cluster(gen.ClusterConfig{
				Events: 120, Mappers: 2, Jobs: 2, Rate: 5,
				LoadLambda: 100, StartEndProb: 0.25, Seed: 3,
			}),
		},
		{
			"Q3/traffic",
			paperQ3,
			gen.LinearRoad(gen.LinearRoadConfig{
				Events: 100, Vehicles: 4, Segments: 2,
				StartRate: 6, EndRate: 6, AccidentProb: 0.08,
				MaxSpeed: 100, GateSelectivity: 50, Seed: 3,
			}),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			q := query.MustParse(c.qsrc)
			plan, err := core.NewPlan(q, aggregate.ModeNative)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(plan)
			eng.Run(event.NewSliceStream(c.evs))
			got := map[string][]float64{}
			for _, r := range eng.Results() {
				got[fmt.Sprintf("%s/%d", r.Group, r.Wid)] = r.Values
			}
			want, err := enum.Run(q, c.evs)
			if err != nil {
				t.Fatal(err)
			}
			wantMap := map[string][]float64{}
			for _, r := range want {
				if r.Count > 0 {
					wantMap[fmt.Sprintf("%s/%d", r.Group, r.Wid)] = r.Values
				}
			}
			if len(wantMap) == 0 {
				t.Fatal("workload produced no matches; test is vacuous")
			}
			if len(got) != len(wantMap) {
				t.Fatalf("results: got %d, oracle %d", len(got), len(wantMap))
			}
			for k, wv := range wantMap {
				gv, ok := got[k]
				if !ok {
					t.Fatalf("missing result %s", k)
				}
				for i := range wv {
					if !feq(gv[i], wv[i]) {
						t.Errorf("%s agg %d: got %v, oracle %v", k, i, gv[i], wv[i])
					}
				}
			}
		})
	}
}

func feq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestPaperQueriesScale smoke-runs the three paper queries at realistic
// scale (50k events each) in every execution mode, checking mode
// agreement and basic result sanity.
func TestPaperQueriesScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large streams")
	}
	cases := []struct {
		name string
		qsrc string
		evs  []*event.Event
	}{
		{"Q1", paperQ1, func() []*event.Event {
			cfg := gen.DefaultStock(50000)
			cfg.Rate = 50
			return gen.Stock(cfg)
		}()},
		{"Q2", paperQ2, func() []*event.Event {
			cfg := gen.DefaultCluster(50000)
			cfg.Rate = 500
			return gen.Cluster(cfg)
		}()},
		{"Q3", paperQ3, func() []*event.Event {
			cfg := gen.DefaultLinearRoad(50000)
			cfg.StartRate, cfg.EndRate = 500, 1000
			return gen.LinearRoad(cfg)
		}()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			q := query.MustParse(c.qsrc)
			plan, err := core.NewPlan(q, aggregate.ModeNative)
			if err != nil {
				t.Fatal(err)
			}
			seq := core.NewEngine(plan)
			seq.Run(event.NewSliceStream(c.evs))
			if len(seq.Results()) == 0 {
				t.Fatal("no results at scale")
			}
			rt := core.NewRuntime()
			par, err := rt.Register(plan, core.StmtConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.RunParallel(context.Background(), event.NewSliceStream(c.evs), 4); err != nil {
				t.Fatal(err)
			}
			a, p := seq.Results(), par.Results()
			if len(a) != len(p) {
				t.Fatalf("result counts: seq=%d par=%d", len(a), len(p))
			}
			for i := range a {
				for j := range a[i].Values {
					if !feq(a[i].Values[j], p[i].Values[j]) {
						t.Fatalf("mode disagreement at result %d agg %d", i, j)
					}
				}
			}
			// Windows emitted in order per group.
			for i := 1; i < len(a); i++ {
				if a[i].Group == a[i-1].Group && a[i].Wid <= a[i-1].Wid {
					t.Fatalf("window order violated at %d", i)
				}
			}
		})
	}
}
