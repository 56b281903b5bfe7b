package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// runtimeDiffQueries are the fastpath differential shapes (three
// selection semantics, negation cases, exact ranges, multi-window
// sliding) — the multi-statement runtime must reproduce each of them
// bit-for-bit against a dedicated single-statement engine.
var runtimeDiffQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price",
	"RETURN COUNT(*), MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ WITHIN 16 SLIDE 4",
	"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price WITHIN 24 SLIDE 8",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND 2 * S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
	"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
	"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price WITHIN 24 SLIDE 8",
	"RETURN COUNT(*) PATTERN SEQ(NOT SEQ(Halt X, NOT News N, Halt Y), Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
}

func registerAll(t *testing.T, rt *core.Runtime, queries []string, mode aggregate.Mode) []*core.Stmt {
	t.Helper()
	stmts := make([]*core.Stmt, len(queries))
	for i, src := range queries {
		plan, err := core.NewPlan(query.MustParse(src), mode)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{})
		if err != nil {
			t.Fatal(err)
		}
		stmts[i] = st
	}
	return stmts
}

// TestRuntimeDifferential locks in the tentpole equivalence: a Runtime
// with N registered statements produces identical Results() and
// Stats() to N independent single-statement engines over the same
// stream, across the fastpath differential query shapes.
func TestRuntimeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		evs := diffStreamHalts(rand.New(rand.NewSource(seed)), 400, true, 12, 20)

		rt := core.NewRuntime()
		stmts := registerAll(t, rt, runtimeDiffQueries, aggregate.ModeNative)
		for _, ev := range evs {
			if err := rt.Process(ev); err != nil {
				t.Fatalf("seed %d: Process: %v", seed, err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}

		for i, src := range runtimeDiffQueries {
			solo := runDiffEngine(t, query.MustParse(src), aggregate.ModeNative, evs, false)
			shared := stmts[i]
			compareResults(t, seed, shared.Results(), solo.Results())
			ss, es := shared.Stats(), solo.Stats()
			if ss != es {
				t.Fatalf("seed %d, query %d (%s): stats diverge:\nshared %+v\nsolo   %+v",
					seed, i, src, ss, es)
			}
		}
	}
}

// TestRuntimeMidStreamRegister asserts the registration watermark: a
// statement registered at watermark T sees only events at or after T
// and matches an engine fed exactly the suffix, while statements
// registered at the start are unperturbed.
func TestRuntimeMidStreamRegister(t *testing.T) {
	evs := diffStream(rand.New(rand.NewSource(7)), 400, true)
	q := "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	cut := 200

	rt := core.NewRuntime()
	early := registerAll(t, rt, []string{q}, aggregate.ModeNative)[0]
	for _, ev := range evs[:cut] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	wm := rt.Watermark()
	late := registerAll(t, rt, []string{q}, aggregate.ModeNative)[0]
	for _, ev := range evs[cut:] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// The late statement must match an engine that was seeded to the
	// registration watermark and fed only the suffix.
	plan, err := core.NewPlan(query.MustParse(q), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	suffixRt := core.NewRuntime()
	// Seed the reference runtime's watermark by replaying the prefix
	// with no statements registered, then register and feed the suffix.
	for _, ev := range evs[:cut] {
		if err := suffixRt.Process(ev); err != nil {
			t.Fatal(err)
		}
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
	compareResults(t, 7, late.Results(), ref.Results())
	if ls, rs := late.Engine().Stats(), ref.Engine().Stats(); ls != rs {
		t.Fatalf("late stats %+v != suffix reference %+v", ls, rs)
	}
	if got := late.Engine().Stats().Events; got > uint64(len(evs)-cut) {
		t.Fatalf("late statement saw %d events, more than the %d-event suffix", got, len(evs)-cut)
	}
	for _, r := range late.Results() {
		if r.WindowEnd <= wm {
			t.Fatalf("late statement emitted window [%d,%d) that closed before its registration watermark %d",
				r.WindowStart, r.WindowEnd, wm)
		}
	}

	// The early statement must match a solo engine over the full stream
	// (mid-stream registration of another statement is invisible to it).
	solo := runDiffEngine(t, query.MustParse(q), aggregate.ModeNative, evs, false)
	compareResults(t, 7, early.Results(), solo.Results())
}

// TestRuntimeMidStreamClose asserts that closing one statement
// mid-stream flushes it exactly once and does not perturb the
// surviving statements' results.
func TestRuntimeMidStreamClose(t *testing.T) {
	evs := diffStream(rand.New(rand.NewSource(11)), 400, true)
	queries := []string{
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
	}
	rt := core.NewRuntime()
	stmts := registerAll(t, rt, queries, aggregate.ModeNative)
	cut := 200
	for _, ev := range evs[:cut] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	closedResults := len(stmts[0].Results())
	if err := stmts[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushes the statement's open windows.
	if got := len(stmts[0].Results()); got < closedResults {
		t.Fatalf("close lost results: %d -> %d", closedResults, got)
	}
	if err := stmts[0].Close(); !errors.Is(err, core.ErrStatementClosed) {
		t.Fatalf("second Close = %v, want ErrStatementClosed", err)
	}
	for _, ev := range evs[cut:] {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed statement saw only the prefix...
	if got := stmts[0].Engine().Stats().Events; got > uint64(cut) {
		t.Fatalf("closed statement saw %d events after closing at %d", got, cut)
	}
	// ...and the survivor matches a solo engine over the full stream.
	solo := runDiffEngine(t, query.MustParse(queries[1]), aggregate.ModeNative, evs, false)
	compareResults(t, 11, stmts[1].Results(), solo.Results())
	if ss, es := stmts[1].Engine().Stats(), solo.Stats(); ss != es {
		t.Fatalf("survivor stats %+v != solo %+v", ss, es)
	}
}

// TestRuntimeErrors locks in the error-returning ingest contract:
// out-of-order events return ErrOutOfOrder and are counted per
// statement, Process after Close returns ErrClosed.
func TestRuntimeErrors(t *testing.T) {
	rt := core.NewRuntime()
	stmts := registerAll(t, rt, []string{
		"RETURN COUNT(*) PATTERN A+",
		"RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10",
	}, aggregate.ModeNative)
	ev := func(id uint64, tm event.Time) *event.Event {
		return &event.Event{ID: id, Type: "A", Time: tm}
	}
	if err := rt.Process(ev(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(ev(2, 3)); !errors.Is(err, core.ErrOutOfOrder) {
		t.Fatalf("late event: err = %v, want ErrOutOfOrder", err)
	}
	if err := rt.Process(ev(3, 6)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(ev(4, 7)); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("closed runtime: err = %v, want ErrClosed", err)
	}
	for i, st := range stmts {
		s := st.Engine().Stats()
		if s.OutOfOrder != 1 {
			t.Errorf("statement %d: OutOfOrder = %d, want 1", i, s.OutOfOrder)
		}
		if s.Events != 2 {
			t.Errorf("statement %d: Events = %d, want 2", i, s.Events)
		}
	}
	if _, err := rt.Register(nil, core.StmtConfig{}); !errors.Is(err, core.ErrClosed) {
		// Register on a closed runtime must fail before touching the plan.
		t.Fatalf("Register after Close: err = %v, want ErrClosed", err)
	}
}

// TestRuntimeSharedHash asserts the shared-ingest coalescing: N
// statements over the same partition attributes share one route group
// (one hash per event), while a different signature gets its own.
func TestRuntimeSharedHash(t *testing.T) {
	rt := core.NewRuntime()
	registerAll(t, rt, []string{
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 100 SLIDE 100",
		"RETURN SUM(S.price) PATTERN Stock S+ WHERE [company] GROUP-BY company WITHIN 50 SLIDE 50",
		"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] GROUP-BY company WITHIN 100 SLIDE 100",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [sector] GROUP-BY sector WITHIN 100 SLIDE 100",
	}, aggregate.ModeNative)
	if got := rt.RouteGroups(); got != 2 {
		t.Fatalf("route groups = %d, want 2 (three [company] statements share one hash)", got)
	}
}

// TestRuntimeParallelStreamingMerge asserts the per-window barrier
// merge: a multi-statement RunParallel matches the sequential runtime
// bit-for-bit, workers retain no results (bounded buffers), and the
// merger's pending-window buffer stays bounded by the number of
// concurrently open windows instead of growing with the stream.
func TestRuntimeParallelStreamingMerge(t *testing.T) {
	evs := diffStreamHalts(rand.New(rand.NewSource(3)), 12000, false, 25, 0)
	queries := []string{
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		// Ungrouped: processed inline on the coordinator.
		"RETURN COUNT(*) PATTERN Stock S+ WITHIN 16 SLIDE 4",
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
	var streamed int
	parStmts[0].OnResult(func(core.Result) { streamed++ })
	if err := parRt.RunParallel(context.Background(), event.NewSliceStream(evs), 4); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		compareResults(t, 3, parStmts[i].Results(), seqStmts[i].Results())
	}
	if streamed != len(parStmts[0].Results()) {
		t.Fatalf("streaming callback saw %d results, collected %d",
			streamed, len(parStmts[0].Results()))
	}

	maxPending, retained := parRt.ParallelDebug()
	if retained != 0 {
		t.Fatalf("workers retained %d results at flush; streaming merge requires 0", retained)
	}
	// Boundedness: the merger may hold at most the windows a lagging
	// worker's bounded channel can span (a scheduling-dependent
	// constant), while an end-of-stream merge would hold every window
	// of the stream at once. Assert the peak stays well below the
	// stream's window count.
	totalWindows := 0
	seenWids := map[[2]int64]bool{}
	for i, st := range parStmts[:2] {
		for _, r := range st.Results() {
			k := [2]int64{int64(i), r.Wid}
			if !seenWids[k] {
				seenWids[k] = true
				totalWindows++
			}
		}
	}
	if maxPending == 0 {
		t.Fatal("merger never held a pending window; barrier path not exercised")
	}
	if maxPending > totalWindows/3 {
		t.Fatalf("merger held %d of %d windows pending at peak; merge is not streaming",
			maxPending, totalWindows)
	}

	// Registration is rejected while closed (RunParallel closed it).
	if _, err := parRt.Register(nil, core.StmtConfig{}); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Register after RunParallel: err = %v, want ErrClosed", err)
	}
}

// TestRuntimeParallelContextCancel asserts that a cancelled context
// aborts RunParallel promptly with ctx.Err and leaves the runtime
// closed.
func TestRuntimeParallelContextCancel(t *testing.T) {
	rt := core.NewRuntime()
	registerAll(t, rt, []string{
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 20 SLIDE 5",
	}, aggregate.ModeNative)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	s := event.FuncStream(func() *event.Event {
		n++
		if n == 1000 {
			cancel()
		}
		return &event.Event{ID: uint64(n), Type: "Stock", Time: event.Time(n),
			Str: map[string]string{"company": "c0"}}
	})
	err := rt.RunParallel(ctx, s, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if perr := rt.Process(&event.Event{ID: 1, Type: "Stock", Time: 1}); !errors.Is(perr, core.ErrClosed) {
		t.Fatalf("runtime not closed after cancelled RunParallel: %v", perr)
	}
}
