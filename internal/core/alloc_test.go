package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// allocStockSchema mirrors the stock generator's schema for the
// hot-path allocation tests.
var allocStockSchema = &event.Schema{
	Type:    "Stock",
	Numeric: []string{"price"},
	Strings: []string{"company"},
}

// allocStockEvent builds one schema-bound stock event.
func allocStockEvent(id uint64, t event.Time, company string, price float64) *event.Event {
	ev := &event.Event{
		ID:    id,
		Type:  "Stock",
		Time:  t,
		Attrs: map[string]float64{"price": price},
		Str:   map[string]string{"company": company},
	}
	allocStockSchema.Bind(ev)
	return ev
}

// TestNoHotPathAllocs locks in the zero-allocation steady state of the
// simple-plan Process path: schema-compiled events into an existing
// partition, with the recycling pools pre-warmed by expired panes,
// must not allocate at all. Three disciplines are guarded: the summary
// fast path (subtree folds + augmented-tree maintenance), the forced
// per-vertex scan, and the negation fold path (watermark-versioned
// summaries whose in-place rebuilds after invalidation advances draw
// from the per-spec pools).
func TestNoHotPathAllocs(t *testing.T) {
	t.Run("summary-fold", func(t *testing.T) { testNoHotPathAllocs(t, false) })
	t.Run("vertex-scan", func(t *testing.T) { testNoHotPathAllocs(t, true) })
	t.Run("negation-fold", testNoHotPathAllocsNegation)
	t.Run("multi-statement", testNoHotPathAllocsMultiStatement)
	t.Run("shared-statements", testNoHotPathAllocsSharedStatements)
	t.Run("checkpointing", testNoHotPathAllocsCheckpoint)
	t.Run("reorder-slack", testNoHotPathAllocsReorder)
	t.Run("batch-ingest", testNoHotPathAllocsBatchIngest)
	t.Run("batch-prefilter", testNoHotPathAllocsBatchPrefilter)
	t.Run("batch-fanout", testNoHotPathAllocsBatchFanout)
	t.Run("window-close", testNoHotPathAllocsWindowClose)
	t.Run("boundary-visit", testNoHotPathAllocsBoundaryVisit)
	t.Run("vertex-blocks", testNoHotPathAllocsVertexBlocks)
}

// testNoHotPathAllocsVertexBlocks guards the vertex record: a vertex is
// one 64-byte allocation that keeps its payload block when recycled, and
// the block, sized to the most windows an event falls into, fits every
// window count. Under WITHIN 10 SLIDE 4 an event falls into 2 or 3
// windows depending on its time, so the vertices 64 partitions take from
// the free list — returned by the close just before the measured ticks —
// change window count, with zero allocations.
func testNoHotPathAllocsVertexBlocks(t *testing.T) {
	if size := reflect.TypeFor[Vertex]().Size(); size > 64 {
		t.Fatalf("a Vertex is %d bytes, want at most 64 (one size class, one cache line)", size)
	}
	if size := reflect.TypeFor[aggregate.Payload]().Size(); size != 24 {
		t.Fatalf("an aggregate.Payload is %d bytes, want 24 (count, start, slot values)", size)
	}
	if size := reflect.TypeFor[aggregate.SlotVal]().Size(); size != 8 {
		t.Fatalf("an aggregate.SlotVal is %d bytes, want 8 (one word: a count or a float)", size)
	}
	// A slotless native definition's block holds its payloads and nothing
	// else: one object of 24 bytes a window.
	def := &aggregate.Def{}
	if avg := testing.AllocsPerRun(100, func() { blockSink = def.NewBlock(4) }); avg != 1 {
		t.Fatalf("a fresh 4-window block allocates %.2f objects, want 1", avg)
	}
	const blocks = 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := ms.TotalAlloc
	for range blocks {
		blockSink = def.NewBlock(4)
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - total) / blocks; per != 96 {
		t.Fatalf("a fresh 4-window block takes %d bytes, want 96", per)
	}
	// A native two-slot definition's block adds one pointer-free object
	// of its slot values, 8 bytes each: 4 windows × 2 slots = 64 bytes.
	two := &aggregate.Def{Slots: []aggregate.Slot{
		{Kind: aggregate.SlotSum, Type: "Stock", Attr: "price"},
		{Kind: aggregate.SlotCountE, Type: "Stock"},
	}}
	if avg := testing.AllocsPerRun(100, func() { blockSink = two.NewBlock(4) }); avg != 2 {
		t.Fatalf("a fresh 4-window two-slot block allocates %.2f objects, want 2", avg)
	}
	runtime.ReadMemStats(&ms)
	from := ms.BySize
	for range blocks {
		blockSink = two.NewBlock(4)
	}
	runtime.ReadMemStats(&ms)
	for i, c := range ms.BySize {
		if n := c.Mallocs - from[i].Mallocs; (c.Size == 64 || c.Size == 96) && n/blocks != 1 {
			t.Fatalf("%d fresh 4-window two-slot blocks made %d objects of %d bytes, want one a block", blocks, n, c.Size)
		}
	}
	const parts = 64
	q := query.MustParse("RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 10 SLIDE 4")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	companies := make([]string, parts)
	for i := range companies {
		companies[i] = fmt.Sprintf("c%02d", i)
	}
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	tick := func(tm event.Time) []*event.Event {
		evs := make([]*event.Event, parts)
		for i := range evs {
			id++
			evs[i] = allocStockEvent(id, tm, companies[i], price(id))
		}
		return evs
	}
	// Windows close, and panes expire, when time reaches 2 mod 4. Warm up
	// through tick 402, which closes a window: ticks 403..405 then close
	// nothing and take their vertices from the free list.
	for tm := event.Time(0); tm <= 402; tm++ {
		for _, ev := range tick(tm) {
			eng.Process(ev)
		}
	}
	var evs []*event.Event
	counts := map[int64]bool{}
	for tm := event.Time(403); tm <= 405; tm++ {
		evs = append(evs, tick(tm)...)
		lo, hi := plan.Window.Wids(tm)
		counts[hi-lo+1] = true
	}
	if !counts[2] || !counts[3] {
		t.Fatalf("measured ticks fall into %v windows, want both 2 and 3", counts)
	}
	free := len(eng.cspecs[0].vfree)
	before := eng.Stats()
	i := 0
	avg := testing.AllocsPerRun(len(evs)-1, func() {
		eng.Process(evs[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Process over recycled vertex blocks allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: every event is a vertex taken from the
	// free list, and no window closed.
	after := eng.Stats()
	if got := after.Inserted - before.Inserted; got != uint64(len(evs)) {
		t.Fatalf("measured loop inserted %d vertices, want %d", got, len(evs))
	}
	if got := free - len(eng.cspecs[0].vfree); got != len(evs) {
		t.Fatalf("measured loop took %d vertices from the free list, want %d", got, len(evs))
	}
	if after.Results != before.Results || after.SummaryFolds == before.SummaryFolds {
		t.Fatalf("measured loop emitted %d results and took %d folds, want none and some",
			after.Results-before.Results, after.SummaryFolds-before.SummaryFolds)
	}
}

// testNoHotPathAllocsBoundaryVisit guards the per-item visits of a
// fold path. Random-walk prices put each event's key range through the
// middle of a pane tree of ~1 000 vertices (ten an event tick over the
// pane's first 100 ticks, then one a tick), so every scan folds the
// interior subtrees and visits the items of the leaves the range
// bounds cut through — with zero allocations.
func testNoHotPathAllocsBoundaryVisit(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	rng := rand.New(rand.NewSource(1))
	price := 1000.0
	walk := func() float64 {
		price += float64(rng.Intn(3) - 1)
		return price
	}
	id := uint64(0)
	for i := 0; i < 21000; i++ {
		id++
		eng.Process(allocStockEvent(id, event.Time(i/10), "c0", walk()))
	}
	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", walk())
	}
	before := eng.Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		eng.Process(evs[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Process with boundary visits allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: each event must fold and visit.
	after := eng.Stats()
	if got := after.Inserted - before.Inserted; got < runs {
		t.Fatalf("measured loop inserted %d vertices, want >= %d", got, runs)
	}
	if visits := after.ScanVisits - before.ScanVisits; visits < runs {
		t.Fatalf("measured loop took %d per-item visits, want >= %d (ranges no longer cut through leaves)", visits, runs)
	}
	if folds := after.SummaryFolds - before.SummaryFolds; folds < runs {
		t.Fatalf("measured loop took %d summary folds, want >= %d", folds, runs)
	}
	if after.Edges == before.Edges {
		t.Fatal("measured loop traversed no edges")
	}
}

// blockSink keeps the blocks testNoHotPathAllocsVertexBlocks makes on
// the heap.
var blockSink []aggregate.Payload

// testNoHotPathAllocsWindowClose guards the window close: over warm pools,
// a steady-state close of a window with more groups than a map on the
// stack holds (8) allocates no more objects than the Results it emits —
// one Values slice each. The sweep's scratch (group maps per window, the
// wid and name slices) lives on the engine and is reused close to close.
func testNoHotPathAllocsWindowClose(t *testing.T) {
	const groups, perGroup = 12, 5
	src := "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 10 SLIDE 10"
	plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	st, err := rt.Register(plan, StmtConfig{NoRetain: true})
	if err != nil {
		t.Fatal(err)
	}
	companies := make([]string, groups)
	for i := range companies {
		companies[i] = fmt.Sprintf("c%02d", i)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var allocs, results uint64
	id := uint64(0)
	for w := 0; w < 30; w++ {
		// Window w's events; the first one closes window w-1.
		evs := make([]*event.Event, groups*perGroup)
		for i := range evs {
			id++
			evs[i] = allocStockEvent(id, event.Time(w*10+i*10/len(evs)), companies[i%groups], float64(1000-id%7))
		}
		before := st.Stats().Results
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		if err := rt.Process(evs[0]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if w >= 10 { // warm: pools charged, the sweep's scratch grown
			allocs += ms.Mallocs - mallocs
			results += uint64(st.Stats().Results - before)
		}
		for _, ev := range evs[1:] {
			if err := rt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Guard against the guard: every close must have emitted every group.
	if results != 20*groups {
		t.Fatalf("20 closes emitted %d results, want %d", results, 20*groups)
	}
	if allocs > results {
		t.Fatalf("20 steady-state closes allocated %d objects for %d results, want at most one per result", allocs, results)
	}
}

// TestSnapshotEncodeAllocs: encoding appends to one slice, so what a
// snapshot allocates does not grow with the strings it writes — the
// event table, half of a snapshot's bytes, costs the same few objects
// (the per-schema slot order) for 10 events as for 1 000, and a pooled
// payload marshals into the one slice it returns.
func TestSnapshotEncodeAllocs(t *testing.T) {
	tableAllocs := func(n int) float64 {
		tab := newEvTable(0)
		for i := 0; i < n; i++ {
			ev := allocStockEvent(uint64(i+1), event.Time(i), fmt.Sprintf("c%d", i%7), float64(i%9))
			if i%2 == 0 {
				ev.Sch, ev.Num, ev.StrV = nil, nil, nil // every other event carries maps only
			}
			tab.intern(ev)
		}
		buf := make([]byte, 0, 128*n+256)
		return testing.AllocsPerRun(10, func() {
			w := checkpoint.Encode(buf)
			tab.walkSchemas(&w)
			if tab.walkEvents(&w); w.Err() != nil || len(w.Out()) > cap(buf) {
				t.Fatalf("event table of %d: %d bytes, err %v", n, len(w.Out()), w.Err())
			}
		})
	}
	if few, many := tableAllocs(10), tableAllocs(1000); many > few || many > 4 {
		t.Fatalf("encoding an event table allocates %.0f objects for 1000 events, %.0f for 10; want the same, at most 4", many, few)
	}

	plan, err := NewPlan(query.MustParse("RETURN COUNT(*), SUM(S.price), MIN(S.price) PATTERN Stock S+"), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	p := aggregate.NewPool(plan.Def()).Get()
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := MarshalPayload(plan.Def(), p); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("MarshalPayload allocates %.0f objects, want 1 (the blob)", avg)
	}
}

// allocBatchVolSchema adds a second numeric slot so a vertex predicate
// can compare two columns (S.price <= S.vol).
var allocBatchVolSchema = &event.Schema{
	Type:    "Stock",
	Numeric: []string{"price", "vol"},
	Strings: []string{"company"},
}

// allocFeedBatches pushes n rows through ProcessBatch in blocks of
// size, timestamps from timeOf, prices from price; *id carries the
// event id across calls. Batches hand their rows to the runtime, so
// every block is freshly allocated (outside any measured loop).
func allocFeedBatches(t *testing.T, rt *Runtime, sch *event.Schema, n, size int, id *uint64,
	timeOf func(i int) event.Time, price func(id uint64) float64, vol float64) {
	t.Helper()
	for off := 0; off < n; off += size {
		k := size
		if rest := n - off; rest < k {
			k = rest
		}
		b := event.NewBatch(sch, k)
		for j := 0; j < k; j++ {
			*id++
			num := []float64{price(*id)}
			if len(sch.Numeric) > 1 {
				num = append(num, vol)
			}
			b.Append(*id, timeOf(off+j), num, []string{"c0"})
		}
		if _, err := rt.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// testNoHotPathAllocsBatchIngest extends the zero-allocation guard to
// the columnar ingest path with the pre-filter pass-through (an edge
// predicate cannot be vectorized): run detection, the single hash
// probe per run, and the per-row graph insertions must run entirely
// from warm pools — 0 allocs per batch, amortized.
func testNoHotPathAllocsBatchIngest(t *testing.T) {
	testNoHotPathAllocsBatch(t, false)
}

// testNoHotPathAllocsBatchPrefilter is the same guard with a
// vectorizable vertex predicate: the column evaluation and the pooled
// selection bitmap must also be allocation-free, and rows must really
// take the skip path.
func testNoHotPathAllocsBatchPrefilter(t *testing.T) {
	testNoHotPathAllocsBatch(t, true)
}

func testNoHotPathAllocsBatch(t *testing.T, prefilter bool) {
	src := "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000"
	sch := allocStockSchema
	if prefilter {
		src = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
			"WHERE [company] AND S.price <= S.vol GROUP-BY company WITHIN 1000 SLIDE 1000"
		sch = allocBatchVolSchema
	}
	plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	st, err := rt.Register(plan, StmtConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// price cycles so roughly half the adjacent pairs extend a trend
	// (edge query) and 3 of 7 rows fail price <= vol (prefilter query).
	price := func(id uint64) float64 { return 1000 - float64(id%7) }
	const vol = 997

	// Warmup charges the pools, the run-detect scratch, the pre-filter
	// cache, and its bitmap across two window turnovers.
	id := uint64(0)
	allocFeedBatches(t, rt, sch, 21000, 64, &id,
		func(i int) event.Time { return event.Time(i / 10) }, price, vol)

	// Measured: prebuilt 16-row batches, times inside the open window
	// (no closes, no checkpoint boundaries). One AllocsPerRun iteration
	// is one whole batch — the invariant is 0 allocs amortized per
	// batch, which is stricter than per event.
	const runs = 100
	const rows = 16
	batches := make([]*event.Batch, runs)
	r := 0
	for i := range batches {
		b := event.NewBatch(sch, rows)
		for j := 0; j < rows; j++ {
			id++
			num := []float64{price(id)}
			if prefilter {
				num = append(num, vol)
			}
			b.Append(id, event.Time(2100+r/2), num, []string{"c0"})
			r++
		}
		batches[i] = b
	}
	before := st.Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		if _, err := rt.ProcessBatch(batches[i]); err != nil {
			panic(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state ProcessBatch allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: rows must really reach the graphs (and,
	// on the prefilter variant, really skip through the bitmap).
	after := st.Stats()
	if got := after.Events - before.Events; got != uint64(runs*rows) {
		t.Fatalf("measured loop counted %d events, want %d", got, runs*rows)
	}
	skips := after.PrefilterSkips - before.PrefilterSkips
	if prefilter {
		if skips == 0 {
			t.Fatal("measured loop never took the pre-filter skip path")
		}
		if got := after.Inserted - before.Inserted; got == 0 || got+skips != uint64(runs*rows) {
			t.Fatalf("inserted %d + skipped %d rows, want them to partition %d", got, skips, runs*rows)
		}
	} else {
		if skips != 0 {
			t.Fatalf("edge-predicate query took %d pre-filter skips, want 0", skips)
		}
		if got := after.Inserted - before.Inserted; got != uint64(runs*rows) {
			t.Fatalf("measured loop inserted %d vertices, want %d", got, runs*rows)
		}
	}
	if after.SummaryFolds == before.SummaryFolds {
		t.Fatal("measured loop took no summary folds")
	}
}

// testNoHotPathAllocsBatchFanout guards the batch fan-out: three
// statements in two route groups — two of them one shared union graph —
// take steady-state 1 024-row batches on the caller and a helper
// goroutine with fewer than one allocation a batch. The dearest-first
// order and the parked results reuse what the batches before them left,
// and the fan-out's own code allocates nothing; what remains is the Go
// runtime's: a goroutine start usually reuses an exited goroutine and a
// wait on the helpers a cached sudog, but a start or a wait after a
// collection emptied those caches allocates one (in about one measured
// run in seven, 1 to 7 objects over the 12 batches, read from the
// allocation profile). AllocsPerRun runs at GOMAXPROCS 1, which starts no
// helper, so the mallocs are read around the measured batches at
// GOMAXPROCS 2 or more instead. Batches that close a window allocate one
// Values slice per result they deliver and nothing else: the parked
// slices are reused too. A thousand partitions of twenty rows a window
// keep every vertex tree one leaf, so the engines' own node recycling
// is at its steady state from the first window on.
func testNoHotPathAllocsBatchFanout(t *testing.T) {
	rest := "PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price "
	srcs := []struct {
		q     string
		share bool
	}{
		{"RETURN COUNT(*), SUM(S.price) " + rest + "GROUP-BY company WITHIN 1000 SLIDE 1000", true}, // [company company]
		{"RETURN MAX(S.price) " + rest + "GROUP-BY company WITHIN 1000 SLIDE 1000", true},
		{"RETURN COUNT(*) " + rest + "WITHIN 1000 SLIDE 1000", false}, // [company]
	}
	rt := NewRuntime()
	var stmts []*Stmt
	for _, s := range srcs {
		plan, err := NewPlan(query.MustParse(s.q), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, StmtConfig{Share: s.share, NoRetain: true})
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	if rs := rt.Stats(); rs.RouteGroups != 2 || rs.SharedGraphs != 1 {
		t.Fatalf("topology %+v, want two route groups and one shared graph", rs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	helperSweeps := CountHelperSweeps(t)

	const parts, perTick, size = 1000, 20, 1024
	companies := make([]string, parts)
	for i := range companies {
		companies[i] = fmt.Sprintf("c%03d", i)
	}
	id := uint64(0)
	batches := func(n int, from event.Time) []*event.Batch {
		bs := make([]*event.Batch, n)
		for i := range bs {
			bs[i] = event.NewBatch(allocStockSchema, size)
			for j := 0; j < size; j++ {
				r := i*size + j
				id++
				bs[i].Append(id, from+event.Time(r/perTick), []float64{1000 - float64(id%7)}, []string{companies[r%parts]})
			}
		}
		return bs
	}
	ingest := func(bs []*event.Batch) {
		for _, b := range bs {
			if _, err := rt.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ms runtime.MemStats
	measure := func(bs []*event.Batch) (mallocs uint64, results int) {
		before := 0
		for _, st := range stmts {
			before += st.Stats().Results
		}
		sweeps := helperSweeps.Load()
		runtime.GC() // no collection starts inside the measured batches
		runtime.ReadMemStats(&ms)
		m := ms.Mallocs
		ingest(bs)
		runtime.ReadMemStats(&ms)
		if helperSweeps.Load() == sweeps {
			t.Fatal("no measured batch swept a source on a helper goroutine")
		}
		for _, st := range stmts {
			results += st.Stats().Results
		}
		return ms.Mallocs - m, results - before
	}

	// Warm-up through ten window closes (ticks 0–10099) charges the pools,
	// the sweep's scratch and the parked slices, and its ~200 helper starts
	// leave the scheduler enough exited goroutines to start the next ones
	// from.
	ingest(batches(10100*perTick/size+1, 0))
	// Ticks 10100–10714, inside the open window [10000, 11000): no close.
	const runs = 12
	if mallocs, results := measure(batches(runs, 10100)); mallocs >= runs || results != 0 {
		t.Fatalf("%d steady-state batches allocated %d objects and delivered %d results, want fewer than one a batch and none",
			runs, mallocs, results)
	}
	// Ticks 10715–11124 close window 10000: one result per company for each
	// subscriber of the union and one for the ungrouped statement, each
	// with its own Values slice. The emitted finals leave the pools, which
	// the new window's first rows refill (one payload per partition and
	// engine), so the batches allocate up to twice per result; the parked
	// slices, parked for the caller and emptied after delivery, keep the
	// capacity the warm-up closes gave them.
	caps := make([]int, len(stmts))
	for i, st := range stmts {
		caps[i] = cap(st.src.parked)
	}
	mallocs, results := measure(batches(8, 10715))
	if want := 2*parts + 1; results != want {
		t.Fatalf("a close delivered %d results, want %d", results, want)
	}
	for i, st := range stmts {
		if len(st.src.parked) != 0 || cap(st.src.parked) != caps[i] || caps[i] == 0 {
			t.Fatalf("statement %d: parked %d results of capacity %d after the close, want none of capacity %d (> 0)",
				i, len(st.src.parked), cap(st.src.parked), caps[i])
		}
	}
	if mallocs > 2*uint64(results)+parts/100 {
		t.Fatalf("batches closing a window allocated %d objects for %d results, want at most two each", mallocs, results)
	}
}

// testNoHotPathAllocsReorder guards the armed-slack ingest path: a
// steady in-order stream through the reorder buffer — heap push, sift,
// release of the event falling behind the horizon, engine apply — must
// not allocate. The heap is implemented inline (container/heap would
// box each entry) and its backing array is warm after the first few
// events, so a session paying for disorder tolerance keeps the
// zero-allocation steady state.
func testNoHotPathAllocsReorder(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(WithReorderSlack(8))
	st, err := rt.Register(plan, StmtConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Warmup charges the engine pools AND the buffer's heap array.
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	for i := 0; i < 21000; i++ {
		id++
		if err := rt.Process(allocStockEvent(id, event.Time(i/10), "c0", price(id))); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", price(id))
	}
	before := st.Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		if err := rt.Process(evs[i]); err != nil {
			panic(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state slack-armed Process allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: events must really route through an
	// occupied buffer (slack path, not pass-through) into the engine.
	if rt.Metrics().ReorderPending == 0 {
		t.Fatal("reorder buffer empty after measured loop (slack path not exercised)")
	}
	after := st.Stats()
	if got := after.Inserted - before.Inserted; got < runs/2 {
		t.Fatalf("measured loop inserted %d vertices, want >= %d", got, runs/2)
	}
	if after.SummaryFolds == before.SummaryFolds {
		t.Fatal("measured loop took no summary folds")
	}
}

// testNoHotPathAllocsCheckpoint guards the per-event cost of an ARMED
// checkpoint schedule (two loads and a compare on the steady path —
// snapshot encoding runs only at boundaries, which the measured window
// stays clear of), and that a RESTORED runtime returns to the same
// zero-allocation steady state once pane churn has recharged the
// per-spec pools (decoded vertices come from the pools, so expiry
// recycles them exactly as in an uninterrupted run).
func testNoHotPathAllocsCheckpoint(t *testing.T) {
	srcs := []string{
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
			"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000",
		"RETURN MIN(S.price), MAX(S.price) PATTERN Stock S+ " +
			"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000",
	}
	newRT := func(ck Option) (*Runtime, []*Stmt) {
		rt := NewRuntime(ck)
		stmts := make([]*Stmt, len(srcs))
		for i, src := range srcs {
			plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
			if err != nil {
				t.Fatal(err)
			}
			stmts[i], err = rt.Register(plan, StmtConfig{Share: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		return rt, stmts
	}
	measure := func(rt *Runtime, stmts []*Stmt, evs []*event.Event, ctx string) {
		before := stmts[0].Stats()
		i := 0
		avg := testing.AllocsPerRun(len(evs)-1, func() {
			if err := rt.Process(evs[i]); err != nil {
				panic(err)
			}
			i++
		})
		if avg != 0 {
			t.Fatalf("%s: steady-state Process allocates %.2f objects/op, want 0", ctx, avg)
		}
		after := stmts[0].Stats()
		if got := after.Inserted - before.Inserted; got < uint64(len(evs)) {
			t.Fatalf("%s: measured loop inserted %d vertices, want >= %d", ctx, got, len(evs))
		}
		if after.SummaryFolds == before.SummaryFolds {
			t.Fatalf("%s: measured loop took no summary folds", ctx)
		}
	}

	var snap []byte
	saves := 0
	rt, stmts := newRT(WithCheckpoint(1000, NewTestSink(t, func(body []byte) {
		saves++
		snap = body
	}), func(err error) { t.Errorf("checkpoint save: %v", err) }))

	// Warmup crosses the 1000 and 2000 boundaries: snapshots fire there,
	// panes expire and charge the pools; the measured window (2100..2399)
	// stays below the next boundary at 3000.
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	for i := 0; i < 21000; i++ {
		id++
		if err := rt.Process(allocStockEvent(id, event.Time(i/10), "c0", price(id))); err != nil {
			t.Fatal(err)
		}
	}
	if saves != 2 {
		t.Fatalf("warmup fired %d checkpoints, want 2", saves)
	}
	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", price(id))
	}
	measure(rt, stmts, evs, "armed")

	// Restore the boundary-2000 snapshot under the same schedule.
	rtR, info, err := RestoreRuntime(snap, WithCheckpoint(1000, NewTestSink(t, nil), nil))
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayFrom != 2000 {
		t.Fatalf("replay bound %d, want 2000", info.ReplayFrom)
	}
	// Churn through two more window closes (3000, 4000) so expiring
	// panes recharge the restored runtime's pools, then measure inside
	// the 4200..4499 window — clear of the next boundary at 5000.
	for i := 0; i < 21000; i++ {
		id++
		if err := rtR.Process(allocStockEvent(id, event.Time(2100+i/10), "c0", price(id))); err != nil {
			t.Fatal(err)
		}
	}
	evsR := make([]*event.Event, runs)
	for i := range evsR {
		id++
		evsR[i] = allocStockEvent(id, event.Time(4200+i), "c0", price(id))
	}
	measure(rtR, rtR.Statements(), evsR, "restored")
}

// testNoHotPathAllocsMultiStatement guards the Runtime's shared ingest
// across MANY distinct route signatures: steady-state Process with six
// registered statements over six different partition-attribute lists
// must stay zero-alloc — one hash per signature per event, no per-event
// hash array spilling to the heap, and each statement's engine on its
// own 0-alloc path against untouched per-spec pools.
func testNoHotPathAllocsMultiStatement(t *testing.T) {
	srcs := []string{
		// Six distinct partition-attribute signatures (group-by attrs
		// lead, equivalence attrs follow).
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
			"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000", // [company company]
		"RETURN COUNT(*), MIN(S.price) PATTERN Stock S+ " +
			"WHERE S.price < NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000", // [company]
		"RETURN SUM(S.price) PATTERN Stock S+ " +
			"WHERE [price] AND S.price >= NEXT(S).price WITHIN 1000 SLIDE 1000", // [price]
		"RETURN COUNT(*) PATTERN Stock S+ " +
			"WHERE [price] AND S.price >= NEXT(S).price GROUP-BY price WITHIN 1000 SLIDE 1000", // [price price]
		"RETURN COUNT(*) PATTERN Stock S+ " +
			"WHERE [price] AND S.price >= NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000", // [company price]
		"RETURN COUNT(*) PATTERN Stock S+ " +
			"WHERE S.price > NEXT(S).price WITHIN 1000 SLIDE 1000", // [] (ungrouped)
	}
	rt := NewRuntime()
	stmts := make([]*Stmt, len(srcs))
	for i, src := range srcs {
		plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i], err = rt.Register(plan, StmtConfig{})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Six statements, six distinct partition-attribute signatures: one
	// hash each per event, all computed inline (the parallel path's
	// pooled spill for > 4 signatures is covered by
	// TestRuntimeParallelManySignatures).
	if got := rt.RouteGroups(); got != len(srcs) {
		t.Fatalf("route groups = %d, want %d (distinct hashes)", got, len(srcs))
	}

	// Warmup: expire panes so every statement's per-spec pools are
	// charged and the c0 partitions exist.
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	for i := 0; i < 21000; i++ {
		id++
		if err := rt.Process(allocStockEvent(id, event.Time(i/10), "c0", price(id))); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", price(id))
	}
	before := make([]Stats, len(stmts))
	for i, st := range stmts {
		before[i] = st.Engine().Stats()
	}
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		if err := rt.Process(evs[i]); err != nil {
			panic(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state multi-statement Process allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: every statement must have inserted the
	// measured events and traversed edges.
	for i, st := range stmts {
		after := st.Engine().Stats()
		if got := after.Inserted - before[i].Inserted; got < runs {
			t.Fatalf("statement %d inserted %d vertices in measured loop, want >= %d", i, got, runs)
		}
		if after.Edges == before[i].Edges {
			t.Fatalf("statement %d traversed no edges", i)
		}
	}
}

// testNoHotPathAllocsSharedStatements guards the shared sub-plan
// network's steady state: four statements with divergent RETURN
// clauses collapsed onto ONE shared graph must process events with
// zero allocations — the union-definition payloads come from the same
// per-spec pools, and the per-subscriber fan-out only runs at window
// close, never on the per-event path.
func testNoHotPathAllocsSharedStatements(t *testing.T) {
	rest := "PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000"
	srcs := []string{
		"RETURN COUNT(*) " + rest,
		"RETURN COUNT(*), SUM(S.price) " + rest,
		"RETURN MIN(S.price), MAX(S.price) " + rest,
		"RETURN AVG(S.price) " + rest,
	}
	rt := NewRuntime()
	stmts := make([]*Stmt, len(srcs))
	for i, src := range srcs {
		plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		stmts[i], err = rt.Register(plan, StmtConfig{Share: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rs := rt.Stats(); rs.SharedGraphs != 1 || rs.SharedStatements != len(srcs) {
		t.Fatalf("sharing did not engage: %+v", rs)
	}

	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	for i := 0; i < 21000; i++ {
		id++
		if err := rt.Process(allocStockEvent(id, event.Time(i/10), "c0", price(id))); err != nil {
			t.Fatal(err)
		}
	}

	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", price(id))
	}
	before := stmts[0].Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		if err := rt.Process(evs[i]); err != nil {
			panic(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state shared-statement Process allocates %.2f objects/op, want 0", avg)
	}
	after := stmts[0].Stats()
	if got := after.Inserted - before.Inserted; got < runs {
		t.Fatalf("shared graph inserted %d vertices in measured loop, want >= %d", got, runs)
	}
	if after.Edges == before.Edges {
		t.Fatal("shared graph traversed no edges")
	}
	if after.SummaryFolds == before.SummaryFolds {
		t.Fatal("shared graph took no summary folds (fast path not exercised)")
	}
}

// allocHaltEvent builds one schemaless halt event (the negative
// sub-pattern's type in the negation alloc guard).
func allocHaltEvent(id uint64, t event.Time, company string) *event.Event {
	return &event.Event{
		ID:    id,
		Type:  "Halt",
		Time:  t,
		Attrs: map[string]float64{},
		Str:   map[string]string{"company": company},
	}
}

// testNoHotPathAllocsNegation guards the negation fold path: a Case-2
// dependency (SEQ(Pi, NOT N)) whose maxStart watermark keeps advancing
// during the measured loop, so summary folds, watermark revalidation,
// AND in-place summary rebuilds all run at steady state — with zero
// allocations, because rebuild payloads, invalidation records, and
// vertices all come from the per-spec pools.
func testNoHotPathAllocsNegation(t *testing.T) {
	// A long window (as in the fold/scan subtests) so the measured loop
	// advances time without closing a window, while the warmup still
	// expires panes to charge the pools.
	q := query.MustParse("RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)

	// Warmup: expire panes to charge the pools, and run several halts so
	// the invalidation machinery (records, watermark maps, rebuild
	// scratch) reaches its steady footprint.
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	tick := event.Time(0)
	for i := 0; i < 21000; i++ {
		id++
		tick = event.Time(i / 10)
		eng.Process(allocStockEvent(id, tick, "c0", price(id)))
		if i%500 == 499 {
			id++
			eng.Process(allocHaltEvent(id, tick, "c0"))
		}
	}

	// Steady state: advancing timestamps, one halt every 50 events so
	// watermarks advance (wmVer bumps) and dirty panes rebuild inside
	// the measured loop.
	const runs = 300
	evs := make([]*event.Event, runs)
	base := tick + 1
	for i := range evs {
		id++
		if i%50 == 25 {
			evs[i] = allocHaltEvent(id, base+event.Time(i), "c0")
		} else {
			evs[i] = allocStockEvent(id, base+event.Time(i), "c0", price(id))
		}
	}
	before := eng.Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		eng.Process(evs[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state negation Process allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: the loop must have exercised insertion,
	// summary folds, AND watermark-driven rebuilds.
	after := eng.Stats()
	if got := after.Inserted - before.Inserted; got < runs/2 {
		t.Fatalf("measured loop inserted %d vertices, want >= %d", got, runs/2)
	}
	if folds := after.SummaryFolds - before.SummaryFolds; folds < runs/2 {
		t.Fatalf("measured loop took %d summary folds, want >= %d (negation fold path not exercised)", folds, runs/2)
	}
	if after.SummaryRebuilds == before.SummaryRebuilds {
		t.Fatal("measured loop triggered no summary rebuilds (watermark advances not exercised)")
	}
	if after.Edges == before.Edges {
		t.Fatal("measured loop traversed no edges")
	}
}

func testNoHotPathAllocs(t *testing.T, forceScan bool) {
	// A long window so the measured loop can advance time (keeping
	// summary folds eligible: adjacency needs predecessor time strictly
	// below the event's) without closing a window mid-measurement.
	q := query.MustParse("RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 1000 SLIDE 1000")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	eng.SetForceVertexScan(forceScan)

	// Warmup: stream enough events through enough windows that panes
	// expire and charge the vertex/payload/node pools (recycled nodes
	// carry their emptied subtree summaries), and the partition
	// (company c0) exists.
	id := uint64(0)
	price := func(i uint64) float64 { return float64(1000 - i%7) }
	for i := 0; i < 21000; i++ {
		id++
		eng.Process(allocStockEvent(id, event.Time(i/10), "c0", price(id)))
	}

	// Steady state: advancing timestamps inside the current window —
	// every Process matches the vertex state, aggregates predecessors
	// (folding pane/subtree summaries unless forced to scan), and
	// stores a pooled vertex into the augmented tree.
	const runs = 300
	evs := make([]*event.Event, runs)
	for i := range evs {
		id++
		evs[i] = allocStockEvent(id, event.Time(2100+i), "c0", price(id))
	}
	before := eng.Stats()
	i := 0
	avg := testing.AllocsPerRun(runs-1, func() {
		eng.Process(evs[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Process allocates %.2f objects/op, want 0", avg)
	}
	// Guard against the guard: the measured events must actually have
	// exercised the insertion path (vertex + payload + tree insert), not
	// a filtered no-op — and the intended scan discipline.
	after := eng.Stats()
	if got := after.Inserted - before.Inserted; got < runs {
		t.Fatalf("measured loop inserted %d vertices, want >= %d (test no longer exercises the hot path)", got, runs)
	}
	folds := after.SummaryFolds - before.SummaryFolds
	if forceScan && folds != 0 {
		t.Fatalf("forced vertex scan still took %d summary folds", folds)
	}
	if !forceScan && folds < runs {
		t.Fatalf("measured loop took %d summary folds, want >= %d (fast path no longer exercised)", folds, runs)
	}
	if after.Edges == before.Edges {
		t.Fatal("measured loop traversed no edges")
	}
}

// BenchmarkPartitionRouting measures the hash-first partition lookup in
// isolation: hashing the partitioning attributes of a schema-bound
// event and resolving the partition with collision verification.
func BenchmarkPartitionRouting(b *testing.B) {
	q := query.MustParse("RETURN COUNT(*) PATTERN Stock S+ " +
		"WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 10 SLIDE 10")
	plan, err := NewPlan(q, aggregate.ModeNative)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(plan)
	const companies = 64
	evs := make([]*event.Event, companies)
	for c := range evs {
		evs[c] = allocStockEvent(uint64(c+1), 0, fmt.Sprintf("co%02d", c), 100)
		eng.Process(evs[c]) // create the partition
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%companies]
		k := eng.parts.read(ev)
		if eng.parts.lookup(k.hash(), k) == nil {
			b.Fatal("partition missing")
		}
	}
}

// BenchmarkPayloadPool compares pooled payload recycling against fresh
// allocation, for the payload shape of a COUNT + SUM query.
func BenchmarkPayloadPool(b *testing.B) {
	def := &aggregate.Def{Mode: aggregate.ModeNative}
	def.AddSlot(aggregate.Slot{Kind: aggregate.SlotSum, Type: "Stock", Attr: "price"})
	def.AddSlot(aggregate.Slot{Kind: aggregate.SlotCountE, Type: "Stock"})
	b.Run("pooled", func(b *testing.B) {
		pool := aggregate.NewPool(def)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pool.Get()
			p.Count = 1
			pool.Put(p)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := def.New()
			p.Count = 1
			_ = p
		}
	})
}
