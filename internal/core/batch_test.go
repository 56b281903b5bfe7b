package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// Batch differential fixtures: every event is schema-bound and every
// attribute value is batch-representable (no NaN, no empty string), so
// AppendEvent never rejects a row and the checkpoint encoder takes the
// same dense form on both sides of the differential.
var (
	batchStockSchema = &event.Schema{Type: "Stock", Numeric: []string{"price", "vol"}, Strings: []string{"company"}}
	batchHaltSchema  = &event.Schema{Type: "Halt", Strings: []string{"company"}}
	batchNewsSchema  = &event.Schema{Type: "News", Strings: []string{"company"}}
	batchSchemas     = map[event.Type]*event.Schema{
		"Stock": batchStockSchema,
		"Halt":  batchHaltSchema,
		"News":  batchNewsSchema,
	}
)

// batchDiffStream mirrors diffStreamHalts' shape (Stock runs broken by
// occasional Halt/News, heavy timestamp collisions, occasional missing
// price) but binds every event and keeps values batch-representable.
func batchDiffStream(rng *rand.Rand, n, haltDiv, newsDiv int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	t := event.Time(1)
	for i := 0; i < n; i++ {
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
		if typ == "Stock" {
			if rng.Intn(20) != 0 {
				ev.Attrs["price"] = float64(1 + rng.Intn(8))
			}
			ev.Attrs["vol"] = float64(1 + rng.Intn(6))
		}
		batchSchemas[typ].Bind(ev)
		evs = append(evs, ev)
	}
	return evs
}

// batchDiffQueries are the differential shapes: the runtime fastpath
// shapes plus vertex-predicate-only shapes that exercise the column
// pre-filter (const and attr right-hand sides).
var batchDiffQueries = append(append([]string{}, runtimeDiffQueries...),
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price <= S.vol GROUP-BY company WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price < 5 WITHIN 16 SLIDE 4",
)

// feedEach offers events one at a time, counting accepted events and
// swallowing out-of-order drops (the batch path accounts them the same
// way).
func feedEach(t *testing.T, rt *core.Runtime, evs []*event.Event) int {
	t.Helper()
	accepted := 0
	for _, ev := range evs {
		switch err := rt.Process(ev); {
		case err == nil:
			accepted++
		case errors.Is(err, core.ErrOutOfOrder):
		default:
			t.Fatal(err)
		}
	}
	return accepted
}

// feedBatches replays evs through ProcessBatch in columnar blocks of up
// to size consecutive same-type rows, splitting blocks at type changes,
// internal time inversions (so each batch is sorted), and hook points.
// A hook at index i runs after all rows < i are flushed and before row
// i is buffered — the stream position a per-event caller would see.
// Rows AppendEvent rejects fall back to Process, as ingest layers do.
func feedBatches(t *testing.T, rt *core.Runtime, evs []*event.Event, size int, hooks map[int]func()) int {
	t.Helper()
	accepted := 0
	var cur *event.Batch
	var last event.Time
	flush := func() {
		if cur == nil {
			return
		}
		acc, err := rt.ProcessBatch(cur)
		if err != nil {
			t.Fatal(err)
		}
		accepted += acc
		cur = nil
	}
	for i, ev := range evs {
		if h, ok := hooks[i]; ok {
			flush()
			h()
		}
		if cur != nil && (cur.Type() != ev.Type || cur.Len() >= size || ev.Time < last) {
			flush()
		}
		if cur == nil {
			n := size
			if rest := len(evs) - i; n > rest {
				n = rest
			}
			cur = event.NewBatch(batchSchemas[ev.Type], n)
		}
		if err := cur.AppendEvent(ev); err != nil {
			flush()
			switch perr := rt.Process(ev); {
			case perr == nil:
				accepted++
			case errors.Is(perr, core.ErrOutOfOrder):
			default:
				t.Fatal(perr)
			}
			continue
		}
		last = ev.Time
	}
	flush()
	return accepted
}

// registerCollect registers queries in drop-on-delivery mode
// (NoRetain), collecting emissions through OnResult. Snapshot-comparing
// runs use it: retained results carry a wall-clock Emitted stamp, the
// one snapshot field that legitimately differs between two otherwise
// identical runs.
func registerCollect(t *testing.T, rt *core.Runtime, queries []string) ([]*core.Stmt, []*[]core.Result) {
	t.Helper()
	stmts := make([]*core.Stmt, len(queries))
	got := make([]*[]core.Result, len(queries))
	for i, src := range queries {
		plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{NoRetain: true})
		if err != nil {
			t.Fatal(err)
		}
		rs := &[]core.Result{}
		st.OnResult(func(r core.Result) { *rs = append(*rs, r) })
		stmts[i] = st
		got[i] = rs
	}
	return stmts, got
}

// armSnapshots schedules checkpoints every 25 ticks, capturing each
// snapshot's bytes.
func armSnapshots(t *testing.T, rt *core.Runtime, snaps *[][]byte) {
	t.Helper()
	armSnapshotsEvery(t, rt, 25, snaps)
}

func armSnapshotsEvery(t *testing.T, rt *core.Runtime, every event.Time, snaps *[][]byte) {
	t.Helper()
	err := rt.SetCheckpoint(every, -1, func(_ event.Time, snapshot func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := snapshot(&buf); err != nil {
			return err
		}
		*snaps = append(*snaps, buf.Bytes())
		return nil
	}, func(err error) { t.Errorf("checkpoint: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
}

func compareSnaps(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots vs %d per-event", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: snapshot %d differs from the per-event run (%d vs %d bytes)",
				label, i, len(got[i]), len(want[i]))
		}
	}
}

// compareStmtStats asserts per-statement stats are identical modulo
// PrefilterSkips, the only counter the batch path is allowed to move.
func compareStmtStats(t *testing.T, label string, i int, got, want core.Stats) {
	t.Helper()
	got.PrefilterSkips = 0
	want.PrefilterSkips = 0
	if got != want {
		t.Fatalf("%s: statement %d stats diverge:\nbatch:     %+v\nper-event: %+v", label, i, got, want)
	}
}

// TestBatchIngestDifferential locks in the tentpole invariant: a
// Runtime fed through ProcessBatch — any batch size, mixed with
// per-event fallback rows — produces bit-identical results, statement
// stats, and checkpoint bytes at every boundary to the same statements
// fed one event at a time. The vertex-predicate shapes must also
// actually engage the column pre-filter.
func TestBatchIngestDifferential(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		evs := batchDiffStream(rand.New(rand.NewSource(seed)), 400, 12, 20)

		refRt := core.NewRuntime()
		var refSnaps [][]byte
		armSnapshots(t, refRt, &refSnaps)
		refStmts, refResults := registerCollect(t, refRt, batchDiffQueries)
		refAccepted := feedEach(t, refRt, evs)
		if err := refRt.Close(); err != nil {
			t.Fatal(err)
		}
		if len(refSnaps) == 0 {
			t.Fatal("reference run produced no snapshots; checkpoint comparison is vacuous")
		}

		for _, size := range []int{1, 7, 64, len(evs)} {
			label := fmt.Sprintf("seed %d size %d", seed, size)
			rt := core.NewRuntime()
			var snaps [][]byte
			armSnapshots(t, rt, &snaps)
			stmts, results := registerCollect(t, rt, batchDiffQueries)
			accepted := feedBatches(t, rt, evs, size, nil)
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if accepted != refAccepted {
				t.Fatalf("%s: accepted %d events vs %d per-event", label, accepted, refAccepted)
			}
			for i := range stmts {
				compareResults(t, seed, *results[i], *refResults[i])
				compareStmtStats(t, label, i, stmts[i].Stats(), refStmts[i].Stats())
			}
			compareSnaps(t, label, snaps, refSnaps)
			// Guard the guard: the vertex-predicate shapes (the last two)
			// must skip rows through the pre-filter, and the reference run
			// must not know the counter exists.
			for _, i := range []int{len(stmts) - 2, len(stmts) - 1} {
				if n := stmts[i].Stats().PrefilterSkips; n == 0 {
					t.Errorf("%s: statement %d: pre-filter never engaged", label, i)
				}
				if n := refStmts[i].Stats().PrefilterSkips; n != 0 {
					t.Errorf("seed %d: per-event statement %d counted %d PrefilterSkips", seed, i, n)
				}
			}
		}
	}
}

// TestBatchIngestMidBatchClose closes a statement at a stream position
// that lands inside a would-be batch: the feeder must flush, close,
// and continue, reproducing the per-event run for both the closed and
// the surviving statements.
func TestBatchIngestMidBatchClose(t *testing.T) {
	queries := []string{
		batchDiffQueries[0],
		batchDiffQueries[2],
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price < 5 WITHIN 16 SLIDE 4",
	}
	evs := batchDiffStream(rand.New(rand.NewSource(3)), 300, 12, 20)
	const cut = 137

	refRt := core.NewRuntime()
	refStmts := registerAll(t, refRt, queries, aggregate.ModeNative)
	feedEach(t, refRt, evs[:cut])
	if err := refStmts[1].Close(); err != nil {
		t.Fatal(err)
	}
	feedEach(t, refRt, evs[cut:])
	if err := refRt.Close(); err != nil {
		t.Fatal(err)
	}

	rt := core.NewRuntime()
	stmts := registerAll(t, rt, queries, aggregate.ModeNative)
	feedBatches(t, rt, evs, 64, map[int]func(){cut: func() {
		if err := stmts[1].Close(); err != nil {
			t.Fatal(err)
		}
	}})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		compareResults(t, 3, stmts[i].Results(), refStmts[i].Results())
		compareStmtStats(t, "mid-batch close", i, stmts[i].Stats(), refStmts[i].Stats())
	}
}

// TestBatchReorderDifferential drives a slack-armed runtime with a
// disordered arrival sequence through both ingest paths. Without a
// checkpoint schedule the batch path takes the columnar merge (sorted
// prefix applied in bulk, stragglers through the buffer); with one it
// degrades to per-row. Both must reproduce the per-event run exactly —
// results, stats, drop counts, and snapshot bytes.
func TestBatchReorderDifferential(t *testing.T) {
	const slack = 6
	base := batchDiffStream(rand.New(rand.NewSource(5)), 500, 15, 0)
	// Jittered arrival: mostly sorted, disorder bounded by the jitter
	// span so only a few arrivals exceed the slack and drop.
	rng := rand.New(rand.NewSource(99))
	keys := make([]float64, len(base))
	for i, ev := range base {
		keys[i] = float64(ev.Time) + rng.Float64()*8
	}
	idx := make([]int, len(base))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	arr := make([]*event.Event, len(base))
	for i, j := range idx {
		arr[i] = base[j]
	}

	queries := []string{
		batchDiffQueries[0],
		batchDiffQueries[2],
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price < 5 WITHIN 16 SLIDE 4",
	}
	for _, withCk := range []bool{false, true} {
		name := "columnar-merge"
		if withCk {
			name = "checkpoint-fallback"
		}
		t.Run(name, func(t *testing.T) {
			refRt := core.NewRuntime()
			var refSnaps [][]byte
			if withCk {
				armSnapshots(t, refRt, &refSnaps)
			}
			if err := refRt.SetReorderSlack(slack); err != nil {
				t.Fatal(err)
			}
			refStmts, refResults := registerCollect(t, refRt, queries)
			refAccepted := feedEach(t, refRt, arr)
			if err := refRt.Close(); err != nil {
				t.Fatal(err)
			}
			if refAccepted == len(arr) {
				t.Fatal("no arrival exceeded the slack; drop accounting is untested")
			}

			rt := core.NewRuntime()
			var snaps [][]byte
			if withCk {
				armSnapshots(t, rt, &snaps)
			}
			if err := rt.SetReorderSlack(slack); err != nil {
				t.Fatal(err)
			}
			stmts, results := registerCollect(t, rt, queries)
			accepted := feedBatches(t, rt, arr, 16, nil)
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			if accepted != refAccepted {
				t.Fatalf("accepted %d events vs %d per-event", accepted, refAccepted)
			}
			for i := range stmts {
				compareResults(t, 5, *results[i], *refResults[i])
				compareStmtStats(t, name, i, stmts[i].Stats(), refStmts[i].Stats())
			}
			if withCk {
				compareSnaps(t, name, snaps, refSnaps)
			}
		})
	}
}

// TestBatchUnsortedFallback feeds a batch whose rows are internally
// out of order: ProcessBatch must degrade to per-row semantics (late
// rows dropped against the watermark), not reject or reorder.
func TestBatchUnsortedFallback(t *testing.T) {
	queries := []string{batchDiffQueries[0]}

	mk := func() (*core.Runtime, []*core.Stmt) {
		rt := core.NewRuntime()
		return rt, registerAll(t, rt, queries, aggregate.ModeNative)
	}
	times := []event.Time{5, 7, 6, 9, 8, 8, 12}
	evs := make([]*event.Event, len(times))
	for i, tm := range times {
		evs[i] = &event.Event{
			ID: uint64(i + 1), Type: "Stock", Time: tm,
			Attrs: map[string]float64{"price": float64(9 - i), "vol": 1},
			Str:   map[string]string{"company": "c0"},
		}
		batchStockSchema.Bind(evs[i])
	}

	refRt, refStmts := mk()
	refAccepted := feedEach(t, refRt, evs)
	if err := refRt.Close(); err != nil {
		t.Fatal(err)
	}
	if refAccepted == len(evs) {
		t.Fatal("fixture has no late rows")
	}

	rt, stmts := mk()
	b := event.NewBatch(batchStockSchema, len(evs))
	for _, ev := range evs {
		if err := b.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	accepted, err := rt.ProcessBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if accepted != refAccepted {
		t.Fatalf("unsorted batch accepted %d rows, per-event accepted %d", accepted, refAccepted)
	}
	compareResults(t, 0, stmts[0].Results(), refStmts[0].Results())
	compareStmtStats(t, "unsorted", 0, stmts[0].Stats(), refStmts[0].Stats())
}

// TestRuntimeParallelWideRouteGroups registers more partition-attribute
// signatures than a 64-bit mask holds, forcing RunParallel's per-event
// fan-out through the spilled bitset path. Results must match the
// sequential runtime bit-for-bit.
func TestRuntimeParallelWideRouteGroups(t *testing.T) {
	const nSig = 68
	queries := make([]string, nSig)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [a%d] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5", i)
	}
	rng := rand.New(rand.NewSource(8))
	evs := make([]*event.Event, 2000)
	tm := event.Time(1)
	for i := range evs {
		if rng.Intn(3) > 0 {
			tm++
		}
		attrs := map[string]float64{"price": float64(1 + rng.Intn(8))}
		for j := 0; j < nSig; j++ {
			attrs[fmt.Sprintf("a%d", j)] = float64(rng.Intn(3))
		}
		evs[i] = &event.Event{ID: uint64(i + 1), Type: "Stock", Time: tm, Attrs: attrs}
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
	if got := parRt.RouteGroups(); got != nSig {
		t.Fatalf("route groups = %d, want %d (> 64 to exercise the wide bitset)", got, nSig)
	}
	if err := parRt.RunParallel(context.Background(), event.NewSliceStream(evs), 4); err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		compareResults(t, 8, parStmts[i].Results(), seqStmts[i].Results())
	}
}
