package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// boundaryStream generates a stock-like stream whose sort keys sit on
// the edges of what a per-item fold-path visit may trust: prices from
// -3 to 4 (an exact 0 and negatives among them), missing prices (sort
// key 0, the stand-in) and NaN prices, ~40% same-timestamp follow-ups,
// one Halt in 12 events for the negation shapes, and half the Stock
// events schema-bound.
func boundaryStream(rng *rand.Rand, n int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	t := event.Time(1)
	for i := 0; i < n; i++ {
		if rng.Intn(5) >= 2 {
			t += event.Time(1 + rng.Intn(2))
		}
		typ := event.Type("Stock")
		if rng.Intn(12) == 0 {
			typ = "Halt"
		}
		ev := &event.Event{
			ID:    uint64(i + 1),
			Type:  typ,
			Time:  t,
			Attrs: map[string]float64{},
			Str:   map[string]string{"company": fmt.Sprintf("c%d", rng.Intn(3))},
		}
		switch rng.Intn(16) {
		case 0: // missing price
		case 1:
			ev.Attrs["price"] = math.NaN()
		default:
			ev.Attrs["price"] = float64(rng.Intn(8) - 3)
		}
		if typ == "Stock" && rng.Intn(2) == 0 {
			diffSchema.Bind(ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestBoundaryVisitDifferential holds the fold path's per-item visits
// to the forced per-vertex scan. An item visited during a fold whose
// key lies inside the fold range skips the edge-predicate re-check;
// the streams put keys at 0 (genuine, and the missing-attribute
// stand-in), below 0 and at NaN, and same-timestamp predecessors inside
// the range, for every comparison, an inexact range, a time-keyed tree
// and each negation case. Results must be bit-identical, logical edges
// and insertions equal, and the fold side must both fold and visit.
func TestBoundaryVisitDifferential(t *testing.T) {
	cases := []struct{ name, q string }{
		{"gt", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"},
		{"lt", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price < NEXT(S).price WITHIN 30 SLIDE 10"},
		{"ge-unwindowed", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price >= NEXT(S).price"},
		{"le", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price <= NEXT(S).price WITHIN 40 SLIDE 20"},
		{"inexact", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND 2 * S.price > NEXT(S).price WITHIN 20 SLIDE 5"},
		{"time-keyed", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] WITHIN 16 SLIDE 4"},
		{"case1-prunable", "RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price WITHIN 24 SLIDE 8"},
		{"case2", "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8"},
		{"case3", "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.q)
			for seed := int64(1); seed <= 6; seed++ {
				evs := boundaryStream(rand.New(rand.NewSource(seed)), 500)
				fastEng := runDiffEngine(t, q, aggregate.ModeNative, evs, false)
				scanEng := runDiffEngine(t, q, aggregate.ModeNative, evs, true)
				compareResults(t, seed, fastEng.Results(), scanEng.Results())
				fs, ss := fastEng.Stats(), scanEng.Stats()
				if fs.Inserted != ss.Inserted || fs.Edges != ss.Edges {
					t.Fatalf("seed %d: inserted %d, edges %d (fold) vs inserted %d, edges %d (scan)",
						seed, fs.Inserted, fs.Edges, ss.Inserted, ss.Edges)
				}
				if fs.ScanVisits == 0 || fs.SummaryFolds == 0 {
					t.Fatalf("seed %d: fold side took %d visits and %d folds, want both > 0",
						seed, fs.ScanVisits, fs.SummaryFolds)
				}
				if ss.SummaryFolds != 0 {
					t.Fatalf("seed %d: forced scan took %d summary folds", seed, ss.SummaryFolds)
				}
			}
		})
	}
}
