package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// diffSchema mirrors the stock generator for schema-bound events; the
// workload mixes bound and schemaless events to exercise both access
// paths under the summary fold.
var diffSchema = &event.Schema{
	Type:    "Stock",
	Numeric: []string{"price"},
	Strings: []string{"company"},
}

// diffStream generates a randomized stock-like stream: mostly Stock
// events with small-integer prices (keeping float64 sums exact so the
// two scan disciplines must agree bit-for-bit), occasional Halt events
// (negation), same-timestamp bursts (adjacency boundaries), missing
// and NaN prices (sort-key fallbacks), and a mix of schema-bound and
// schemaless events.
func diffStream(rng *rand.Rand, n int, allowNaN bool) []*event.Event {
	return diffStreamHalts(rng, n, allowNaN, 40, 0)
}

// diffStreamHalts is diffStream with the Halt frequency (1 in haltDiv
// events) and an optional News frequency (1 in newsDiv; 0 disables)
// exposed: dense halts drive watermark advances mid-pane and
// same-timestamp invalidation bursts, News events feed nested
// negation's innermost sub-pattern.
func diffStreamHalts(rng *rand.Rand, n int, allowNaN bool, haltDiv, newsDiv int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	t := event.Time(1)
	for i := 0; i < n; i++ {
		// ~40% same-timestamp follow-ups.
		if rng.Intn(5) >= 2 {
			t += event.Time(1 + rng.Intn(2))
		}
		typ := event.Type("Stock")
		if rng.Intn(haltDiv) == 0 {
			typ = "Halt"
		} else if newsDiv > 0 && rng.Intn(newsDiv) == 0 {
			typ = "News"
		}
		ev := &event.Event{
			ID:    uint64(i + 1),
			Type:  typ,
			Time:  t,
			Attrs: map[string]float64{},
			Str:   map[string]string{"company": fmt.Sprintf("c%d", rng.Intn(3))},
		}
		switch rng.Intn(20) {
		case 0: // missing price
		case 1:
			if allowNaN {
				// NaN price: predicates reject, sort keys degenerate.
				ev.Attrs["price"] = math.NaN()
			} else {
				ev.Attrs["price"] = float64(1 + rng.Intn(8))
			}
		default:
			ev.Attrs["price"] = float64(1 + rng.Intn(8))
		}
		if typ == "Stock" && rng.Intn(2) == 0 {
			diffSchema.Bind(ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestFastPathDifferential runs randomized workloads through the
// summary fast path and a forced per-vertex scan and asserts identical
// results — values, groups, windows — and identical logical edge and
// insertion counts. Queries cover all three event selection semantics,
// negation, exact and inexact compiled ranges, multi-window sliding,
// equivalence partitioning, and schemaless events.
func TestFastPathDifferential(t *testing.T) {
	for _, tc := range fastPathCases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.MustParse(tc.q)
			haltDiv := tc.haltDiv
			if haltDiv == 0 {
				haltDiv = 40
			}
			for seed := int64(1); seed <= 4; seed++ {
				// Exact mode cannot aggregate NaN attributes (big.Float has
				// no NaN); keep them to the native-mode workloads.
				evs := diffStreamHalts(rand.New(rand.NewSource(seed)), 300,
					tc.mode != aggregate.ModeExact, haltDiv, tc.newsDiv)
				fastEng := runDiffEngine(t, q, tc.mode, evs, false)
				scanEng := runDiffEngine(t, q, tc.mode, evs, true)
				compareResults(t, seed, fastEng.Results(), scanEng.Results())
				fs, ss := fastEng.Stats(), scanEng.Stats()
				if fs.Inserted != ss.Inserted {
					t.Fatalf("seed %d: inserted %d (fast) vs %d (scan)", seed, fs.Inserted, ss.Inserted)
				}
				if fs.Edges != ss.Edges {
					t.Fatalf("seed %d: logical edges %d (fast) vs %d (scan)", seed, fs.Edges, ss.Edges)
				}
				if ss.SummaryFolds != 0 {
					t.Fatalf("seed %d: forced scan took %d summary folds", seed, ss.SummaryFolds)
				}
				if tc.fast && fs.SummaryFolds == 0 {
					t.Fatalf("seed %d: summary fast path never engaged", seed)
				}
				if !tc.fast && fs.SummaryFolds != 0 {
					t.Fatalf("seed %d: ineligible query took %d summary folds", seed, fs.SummaryFolds)
				}
			}
		})
	}
}

// fastPathCases are TestFastPathDifferential's shapes; TestHorizonProperty
// runs them too.
var fastPathCases = []struct {
	name string
	q    string
	mode aggregate.Mode
	// fast reports whether the summary path must actually engage
	// (guards against the fast path silently dying).
	fast bool
	// haltDiv/newsDiv override the stream's Halt and News frequencies
	// (0 = defaults: 1-in-40 halts, no News).
	haltDiv, newsDiv int
}{
	{"stam-range-windowed",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeNative, true, 0, 0},
	{"stam-range-unbounded",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price",
		aggregate.ModeNative, true, 0, 0},
	{"stam-no-predicate",
		"RETURN COUNT(*), MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ WITHIN 16 SLIDE 4",
		aggregate.ModeNative, true, 0, 0},
	{"stam-seq",
		"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 0, 0},
	{"stam-inexact-range", // 2*price folds via interval-arithmetic inner bounds
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND 2 * S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeNative, true, 0, 0},
	{"skip-till-next-match",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match WITHIN 20 SLIDE 5",
		aggregate.ModeNative, false, 0, 0},
	{"contiguous",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous WITHIN 20 SLIDE 5",
		aggregate.ModeNative, false, 0, 0},
	{"negation-case3", // SEQ(NOT N, Pj): per-insert window-validity suffix
		"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		aggregate.ModeNative, true, 0, 0},
	{"negation-case2", // SEQ(Pi, NOT N): maxStart watermark-versioned summaries
		"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		aggregate.ModeNative, true, 0, 0},
	{"negation-case2-unwindowed",
		"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price >= NEXT(S).price",
		aggregate.ModeNative, true, 0, 0},
	{"negation-case3-unwindowed",
		"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price",
		aggregate.ModeNative, true, 0, 0},
	// Dense halts: watermark advances land mid-pane and in
	// same-timestamp bursts, exercising lazy revalidation and
	// in-place rebuilds between folds.
	{"negation-case2-burst",
		"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 8, 0},
	{"negation-case3-burst",
		"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 8, 0},
	// Case 1 with a Kleene previous state: A→A is ungated while A→B
	// is maxStart-gated, so state A's trees opt out (inconsistent
	// gating) and only B→B folds — the differential still covers the
	// mixed discipline.
	{"negation-case1-mixed",
		"RETURN COUNT(*) PATTERN SEQ(Stock A+, NOT Halt H, Stock B+) WHERE [company] AND A.price > NEXT(A).price AND B.price > NEXT(B).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 12, 0},
	// Case 1 with a single previous event: every fast transition out
	// of A is gated by the same link, so A's trees stay augmented,
	// fold under watermark versions, and prune invalid events
	// (Theorem 5.1 — the link is prunable).
	{"negation-case1-prunable",
		"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 12, 0},
	// Nested negation: the root's Case-3 guard is itself guarded by a
	// Case-1 link inside the negative graph (News invalidates the
	// halt pair).
	{"negation-nested",
		"RETURN COUNT(*) PATTERN SEQ(NOT SEQ(Halt X, NOT News N, Halt Y), Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, true, 8, 20},
	{"exact-mode",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeExact, true, 0, 0},
}

func runDiffEngine(t *testing.T, q *query.Query, mode aggregate.Mode, evs []*event.Event, forceScan bool) *core.Engine {
	t.Helper()
	plan, err := core.NewPlan(q, mode)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(plan)
	eng.SetForceVertexScan(forceScan)
	eng.Run(event.NewSliceStream(evs))
	return eng
}

func compareResults(t *testing.T, seed int64, a, b []core.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("seed %d: %d results (fast) vs %d (scan)", seed, len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || a[i].Wid != b[i].Wid {
			t.Fatalf("seed %d: result %d keyed (%q, %d) vs (%q, %d)",
				seed, i, a[i].Group, a[i].Wid, b[i].Group, b[i].Wid)
		}
		for j := range a[i].Values {
			av, bv := a[i].Values[j], b[i].Values[j]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("seed %d: result %d (%q, wid %d) value %d: %v (fast) vs %v (scan)",
					seed, i, a[i].Group, a[i].Wid, j, av, bv)
			}
		}
	}
}

// negFuzzQueries are the negation shapes the fuzzer drives: one per
// dependency case of paper §5.1 plus a nested split.
var negFuzzQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
	"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
	"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price WITHIN 24 SLIDE 8",
	"RETURN COUNT(*) PATTERN SEQ(NOT SEQ(Halt X, NOT News N, Halt Y), Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
}

// FuzzNegationWatermarks drives randomized streams — the fuzzer picks
// the seed, the halt density (watermark advance cadence, down to every
// other event), and the query shape — through the watermark-versioned
// fold path and the forced per-vertex scan, asserting identical
// results and identical logical edge and insertion counts. Seeds cover
// each query at sparse and dense halt rates.
func FuzzNegationWatermarks(f *testing.F) {
	for qIdx := range negFuzzQueries {
		f.Add(int64(1), uint8(8), uint8(qIdx))
		f.Add(int64(2), uint8(2), uint8(qIdx))
	}
	f.Fuzz(func(t *testing.T, seed int64, haltDiv, qIdx uint8) {
		q := query.MustParse(negFuzzQueries[int(qIdx)%len(negFuzzQueries)])
		hd := 2 + int(haltDiv)%24
		evs := diffStreamHalts(rand.New(rand.NewSource(seed)), 200, true, hd, 16)
		fastEng := runDiffEngine(t, q, aggregate.ModeNative, evs, false)
		scanEng := runDiffEngine(t, q, aggregate.ModeNative, evs, true)
		compareResults(t, seed, fastEng.Results(), scanEng.Results())
		fs, ss := fastEng.Stats(), scanEng.Stats()
		if fs.Inserted != ss.Inserted {
			t.Fatalf("seed %d: inserted %d (fast) vs %d (scan)", seed, fs.Inserted, ss.Inserted)
		}
		if fs.Edges != ss.Edges {
			t.Fatalf("seed %d: logical edges %d (fast) vs %d (scan)", seed, fs.Edges, ss.Edges)
		}
	})
}
