package core_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// sharedDiffShapes are the fastpath trend-formation shapes the shared
// sub-plan network must serve: for each, N statements with DIVERGENT
// RETURN clauses register into one runtime, collapse onto one shared
// graph, and must each reproduce a dedicated solo engine bit-for-bit —
// results AND stats (modulo the sharing counters).
var sharedDiffShapes = []struct {
	name string
	rest string // the query after the RETURN clause
	mode aggregate.Mode
}{
	{"stam-range-windowed",
		"PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeNative},
	{"stam-range-unbounded",
		"PATTERN Stock S+ WHERE S.price >= NEXT(S).price",
		aggregate.ModeNative},
	{"stam-no-predicate",
		"PATTERN Stock S+ WITHIN 16 SLIDE 4",
		aggregate.ModeNative},
	{"stam-seq",
		"PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative},
	{"stam-inexact-range",
		"PATTERN Stock S+ WHERE [company] AND 2 * S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeNative},
	{"skip-till-next-match",
		"PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match WITHIN 20 SLIDE 5",
		aggregate.ModeNative},
	{"contiguous",
		"PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous WITHIN 20 SLIDE 5",
		aggregate.ModeNative},
	{"grouped",
		"PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		aggregate.ModeNative},
	{"exact-mode",
		"PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeExact},
}

// sharedDiffReturns are the divergent RETURN clauses registered per
// shape: the shared union definition must carry every subscriber's
// slots while each statement reads back only its own.
var sharedDiffReturns = []string{
	"COUNT(*)",
	"COUNT(*), SUM(S.price)",
	"MIN(S.price), MAX(S.price), AVG(S.price)",
}

func registerSharing(t *testing.T, rt *core.Runtime, queries []string, mode aggregate.Mode) []*core.Stmt {
	t.Helper()
	stmts := make([]*core.Stmt, len(queries))
	for i, src := range queries {
		plan, err := core.NewPlan(query.MustParse(src), mode)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// compareSharedToSolo asserts a shared subscriber reproduces a solo
// engine bit-for-bit: identical results and identical stats once the
// sharing counters are masked out.
func compareSharedToSolo(t *testing.T, seed int64, label string, st *core.Stmt, solo interface {
	Results() []core.Result
	Stats() core.Stats
}, wantShared int) {
	t.Helper()
	compareResults(t, seed, st.Results(), solo.Results())
	ss, es := st.Stats(), solo.Stats()
	if ss.SharedStatements != wantShared {
		t.Fatalf("seed %d, %s: SharedStatements = %d, want %d", seed, label, ss.SharedStatements, wantShared)
	}
	ss.SharedStatements = 0
	if ss != es {
		t.Fatalf("seed %d, %s: stats diverge (modulo sharing counters):\nshared %+v\nsolo   %+v",
			seed, label, ss, es)
	}
}

// TestSharedStatementsDifferential locks in the tentpole equivalence:
// N statements registered through the shared sub-plan network — one
// shared graph per trend-formation signature, RETURN clauses fanned
// out per subscriber — produce results and stats bit-identical to N
// dedicated solo engines, across the fastpath shapes.
func TestSharedStatementsDifferential(t *testing.T) {
	for _, shape := range sharedDiffShapes {
		t.Run(shape.name, func(t *testing.T) {
			queries := make([]string, len(sharedDiffReturns))
			for i, ret := range sharedDiffReturns {
				queries[i] = "RETURN " + ret + " " + shape.rest
			}
			for seed := int64(1); seed <= 3; seed++ {
				evs := diffStreamHalts(rand.New(rand.NewSource(seed)), 400,
					shape.mode != aggregate.ModeExact, 12, 0)

				rt := core.NewRuntime()
				stmts := registerSharing(t, rt, queries, shape.mode)
				if rs := rt.Stats(); rs.SharedGraphs != 1 || rs.SharedStatements != len(queries) {
					t.Fatalf("seed %d: sharing did not engage: %+v", seed, rs)
				}
				for _, ev := range evs {
					if err := rt.Process(ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				for i, src := range queries {
					solo := runDiffEngine(t, query.MustParse(src), shape.mode, evs, false)
					compareSharedToSolo(t, seed, src, stmts[i], solo, len(queries))
				}
			}
		})
	}
}

// TestSharedStatementsDisqualified pins the sharing disqualifier:
// negation statements register exclusively (the network must not
// absorb them) and still match solo engines.
func TestSharedStatementsDisqualified(t *testing.T) {
	evs := diffStreamHalts(rand.New(rand.NewSource(5)), 400, true, 12, 0)
	negQ := "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10"

	rt := core.NewRuntime()
	var stmts []*core.Stmt
	for _, src := range []string{negQ, negQ} {
		plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	if rs := rt.Stats(); rs.SharedGraphs != 0 || rs.SharedStatements != 0 {
		t.Fatalf("disqualified statements entered the shared network: %+v", rs)
	}
	for _, ev := range evs {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts {
		solo := runDiffEngine(t, query.MustParse(negQ), aggregate.ModeNative, evs, false)
		compareSharedToSolo(t, 5, "negation", st, solo, 0)
	}
}

// TestSharedStatementsMidStream pins the attach/detach lifecycle
// around a warm shared graph: a statement registered mid-stream never
// inherits the warm graph's history (it opens a new shared graph
// seeded at its registration watermark, which same-position
// registrations share), and a subscriber detaching from a warm shared
// graph flushes its open windows without perturbing the survivors.
func TestSharedStatementsMidStream(t *testing.T) {
	evs := diffStream(rand.New(rand.NewSource(9)), 400, true)
	q1 := "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	q2 := "RETURN MIN(S.price), MAX(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	cut, cut2 := 150, 280

	rt := core.NewRuntime()
	early := registerSharing(t, rt, []string{q1, q2}, aggregate.ModeNative)
	if rs := rt.Stats(); rs.SharedGraphs != 1 {
		t.Fatalf("early statements not shared: %+v", rs)
	}
	for _, ev := range evs[:cut] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-stream registrations: the warm graph must NOT accept them —
	// they share a new graph seeded at the current watermark.
	late := registerSharing(t, rt, []string{q1, q2}, aggregate.ModeNative)
	if rs := rt.Stats(); rs.SharedGraphs != 2 || rs.SharedStatements != 4 {
		t.Fatalf("mid-stream registrations misrouted: %+v", rs)
	}
	if early[0].Engine() == late[0].Engine() {
		t.Fatal("mid-stream registration attached to a warm shared graph")
	}
	for _, ev := range evs[cut:cut2] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Detach one subscriber from the (warm) early graph: it flushes its
	// open windows; the survivor keeps the graph undisturbed.
	if err := early[1].Close(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs[cut2:] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// The detached subscriber matches a solo engine over the prefix it
	// saw, flushed at its close point.
	soloDetach := runDiffEngine(t, query.MustParse(q2), aggregate.ModeNative, evs[:cut2], false)
	compareSharedToSolo(t, 9, "detached", early[1], soloDetach, 2)

	// The surviving early subscriber matches a solo engine over the
	// full stream: the detach did not perturb the shared graph.
	soloFull := runDiffEngine(t, query.MustParse(q1), aggregate.ModeNative, evs, false)
	compareSharedToSolo(t, 9, "survivor", early[0], soloFull, 1)

	// The late subscribers match solo engines registered at the same
	// watermark and fed only the suffix.
	for i, src := range []string{q1, q2} {
		suffixRt := core.NewRuntime()
		for _, ev := range evs[:cut] {
			if err := suffixRt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := suffixRt.Register(plan, core.StmtConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs[cut:] {
			if err := suffixRt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := suffixRt.Close(); err != nil {
			t.Fatal(err)
		}
		compareSharedToSolo(t, 9, "late "+src, late[i], ref, 2)
	}
}

// TestRuntimeParallelManySignatures drives RunParallel with six
// distinct partition-attribute signatures — more than parMsg's inline
// hash array holds — so every event's routing hashes travel through
// the pooled, refcounted spill (hashSpill). Results must match the
// sequential runtime bit-for-bit: a recycled spill handed to workers
// too early would route events into the wrong partitions.
func TestRuntimeParallelManySignatures(t *testing.T) {
	evs := diffStreamHalts(rand.New(rand.NewSource(6)), 8000, false, 40, 0)
	queries := []string{
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",                                // [company]
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5", // [company company]
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [price] AND S.price >= NEXT(S).price WITHIN 20 SLIDE 5",                                 // [price]
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [price] AND S.price >= NEXT(S).price GROUP-BY price WITHIN 20 SLIDE 5",                  // [price price]
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [price] AND S.price >= NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",                // [company price]
		"RETURN MIN(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY price WITHIN 20 SLIDE 5",             // [price company]
	}

	seqRt := core.NewRuntime()
	seqStmts := registerAll(t, seqRt, queries, aggregate.ModeNative)
	for _, ev := range evs {
		if err := seqRt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := seqRt.Close(); err != nil {
		t.Fatal(err)
	}

	parRt := core.NewRuntime()
	parStmts := registerAll(t, parRt, queries, aggregate.ModeNative)
	if got := parRt.RouteGroups(); got != len(queries) {
		t.Fatalf("route groups = %d, want %d (spill path needs > 4)", got, len(queries))
	}
	if err := parRt.RunParallel(context.Background(), event.NewSliceStream(evs), 4); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		compareResults(t, 6, parStmts[i].Results(), seqStmts[i].Results())
	}
}

// TestSharedStatementsParallel asserts RunParallel treats a shared
// graph as one parallel unit: the fan-out still delivers bit-identical
// per-subscriber results, matching the sequential runtime.
func TestSharedStatementsParallel(t *testing.T) {
	evs := diffStreamHalts(rand.New(rand.NewSource(4)), 6000, false, 25, 0)
	queries := []string{
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN MIN(S.price), AVG(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	}
	seqRt := core.NewRuntime()
	seqStmts := registerSharing(t, seqRt, queries, aggregate.ModeNative)
	for _, ev := range evs {
		if err := seqRt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := seqRt.Close(); err != nil {
		t.Fatal(err)
	}

	parRt := core.NewRuntime()
	parStmts := registerSharing(t, parRt, queries, aggregate.ModeNative)
	if rs := parRt.Stats(); rs.SharedGraphs != 1 {
		t.Fatalf("parallel statements not shared: %+v", rs)
	}
	if err := parRt.RunParallel(context.Background(), event.NewSliceStream(evs), 4); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		compareResults(t, 4, parStmts[i].Results(), seqStmts[i].Results())
	}
}
