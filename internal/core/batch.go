// Columnar batch ingest: Runtime.ProcessBatch applies a whole
// event.Batch with per-event overhead amortized three ways —
//
//   - one partition lookup per maximal run of adjacent rows sharing a
//     partition key, answered by the partition memo without hashing
//     (instead of one hash and one chain probe per row per engine),
//   - a vectorized predicate pre-filter evaluating the vectorizable
//     vertex predicates (predicate.Column) over the batch's dense
//     numeric columns into a pooled selection bitmap, so rows that
//     cannot match any state skip graph insertion entirely,
//   - the runtime watermark advanced once per batch tail,
//
// and a segment's independent graphs sweep it on every processor
// (segFan), their results delivered afterwards in the order one
// goroutine would have delivered them.
//
// The path is semantically invisible: results, Stats counters (modulo
// the new PrefilterSkips), checkpoint boundary placement, and summary
// fold order are bit-identical to feeding the same rows through
// Process one at a time. Everything that cannot be proven invisible
// falls back to the per-event path row by row — unsorted batches and
// any batch into a runtime with reorder slack armed (the reorder
// buffer's release rule exists once, in internal/reorder).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/predicate"
)

// ProcessBatch offers every row of b to the registered statements and
// returns the number of rows accepted in order (rows behind the
// watermark — or, with reorder slack armed, behind the reorder
// horizon — are counted, dropped, and excluded from the count, exactly
// as the per-event path drops them). The error is nil unless the
// runtime rejects the batch wholesale (ErrClosed, ErrRunning).
//
// Rows must be in non-decreasing time order for the columnar path; an
// unsorted batch degrades to the per-event path internally, with
// identical semantics. The batch's rows transfer to the runtime (see
// event.Batch): the caller must not Reset or reuse the batch while any
// window that saw its rows is open.
//
// With reorder slack armed, every row is offered to the reorder buffer
// individually, exactly as Process would offer it.
func (rt *Runtime) ProcessBatch(b *event.Batch) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return 0, ErrClosed
	}
	if rt.running {
		return 0, ErrRunning
	}
	n := b.Len()
	if n == 0 {
		return 0, nil
	}
	rt.met.batches.Inc()
	rt.met.batchRows.Add(uint64(n))
	rows := b.Rows()
	if rt.reorder != nil {
		return rt.processBatchFallback(rows)
	}
	for i := 1; i < n; i++ {
		if rows[i].Time < rows[i-1].Time {
			return rt.processBatchFallback(rows)
		}
	}
	// Sorted, no reorder: rows behind the initial watermark form a
	// prefix (each is still forwarded so every engine counts the drop,
	// exactly as applyLocked forwards late events).
	accepted := n
	for _, ev := range rows {
		if ev.Time >= rt.watermark {
			break
		}
		accepted--
	}
	rt.applyBatch(b, rows)
	if last := rows[n-1].Time; last > rt.watermark {
		rt.watermark = last
	}
	rt.met.events.Add(uint64(n))
	rt.met.drops.Add(uint64(n - accepted))
	return accepted, nil
}

// processBatchFallback feeds rows through the per-event path one at a
// time — the landing spot for every batch shape the columnar path
// cannot reproduce bit for bit; rt.mu held.
func (rt *Runtime) processBatchFallback(rows []*event.Event) (int, error) {
	accepted := 0
	for _, ev := range rows {
		err := rt.process(ev)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrOutOfOrder):
		default:
			return accepted, err
		}
	}
	return accepted, nil
}

// applyBatch applies b's sorted rows to the engines, splitting into
// segments at scheduled checkpoint boundaries: the snapshot fires
// before the first row at or past ck.next, exactly where the per-event
// path fires it; rt.mu held.
func (rt *Runtime) applyBatch(b *event.Batch, rows []*event.Event) {
	for lo, hi := 0, len(rows); lo < hi; {
		ck := rt.ck
		if ck == nil {
			rt.applySegment(b, rows, lo, hi)
			return
		}
		if rows[lo].Time >= ck.next {
			rt.checkpointAtBoundary(rows[lo].Time)
		}
		end := lo + 1
		for end < hi && rows[end].Time < ck.next {
			end++
		}
		rt.applySegment(b, rows, lo, end)
		// Advance the watermark segment by segment: the next boundary's
		// snapshot must capture the watermark the per-event path would
		// hold there (the last applied row's time), not the pre-batch one.
		if t := rows[end-1].Time; t > rt.watermark {
			rt.watermark = t
		}
		lo = end
	}
}

// applySegment applies boundary-free sorted rows [lo, hi): every
// route-group source sweeps the segment in one columnar pass (run
// tracking, partition memo, pre-filter skips fused), then every
// composite source takes the rows one by one; rt.mu held. Engines are
// independent, so the engine-major order (all rows for one engine,
// then the next) emits the same per-statement results as the
// per-event row-major order — and the route-group sweeps may run on
// several goroutines (segFan), whose results the caller delivers in
// that same order after the join.
func (rt *Runtime) applySegment(b *event.Batch, rows []*event.Event, lo, hi int) {
	// Every row is an ingest epoch, exactly as applyLocked advances
	// once per event (registration cannot interleave: rt.mu is held).
	rt.epoch += uint64(hi - lo)
	rt.fan.run(rt.groups, b, rows, lo, hi)
	for _, src := range rt.direct {
		for i := lo; i < hi; i++ {
			src.eng.Process(rows[i])
		}
	}
}

// fanMinRows is the shortest segment that takes helper goroutines;
// shorter ones the caller sweeps alone, through the same code. Measured
// on lr_multi_batch's four queries (three engines, 100 000 rows, 2 vCPUs
// Intel Xeon, 10 alternating pairs a size, two seeds), helpers on every
// segment against none: the wall time per row broke even at about 40
// rows (1.05–1.18× at 8–32 rows, 0.98× at 40), won narrowly at 48–56
// rows (0.90–0.94×, 8–9 of 10) for 28–31 % more CPU, and at 64 rows by
// 0.79–0.82× (9–10 of 10) for 10–21 % more CPU; 128 rows read 0.72×,
// 1 024 rows 0.56×.
const fanMinRows = 64

// segFan sweeps a segment's route-group sources on the ProcessBatch
// caller plus min(GOMAXPROCS, sources) − 1 helper goroutines. Each
// goroutine claims, dearest first by each source's previous sweep, the
// sources whose previous sweep ran on the processor it runs on, then
// any left. A source thus stays on one processor, with its engine's
// memory in that processor's cache, although the caller resumes after
// the join on whichever thread woke it. Taking any unclaimed source
// instead moved 43–88 % of the sweeps to another processor from one
// segment to the next, against 1–2 %, and cost 8 % more CPU than
// sweeping every source on the caller, against 1 % (lr_multi_batch,
// 2 vCPUs Intel Xeon, medians over 576 rounds of laps alternating the
// two ways and no helpers in one process; the wall time per lap read
// 0.65× and 0.61× no helpers'). While inFlight is set,
// source.fanout parks what the sweeps emit, and the caller delivers it
// after the join ("One segment, every processor" in doc.go says what is
// shared and what is not). Between segments the caller owns every
// field.
type segFan struct {
	srcs     []*source // the segment's sources, dearest first
	claims   []fanClaim
	wg       sync.WaitGroup
	help     func() // a helper's body, built once: a start allocates no closure
	inFlight bool

	// the segment in flight
	b      *event.Batch
	rows   []*event.Event
	lo, hi int
}

// fanClaim is srcs[i]'s entry in a segment: where its previous sweep
// ran, read while other goroutines sweep, and whether a goroutine has
// taken it.
type fanClaim struct {
	cpu   int
	taken atomic.Bool
}

// segmentHook, set by tests only, runs before each source's sweep,
// told whether a helper goroutine runs it.
var segmentHook func(onHelper bool)

// run sweeps rows [lo, hi) through the sources of groups and delivers
// what they emitted, in groups / members order.
func (f *segFan) run(groups []*routeGroup, b *event.Batch, rows []*event.Event, lo, hi int) {
	f.srcs = f.srcs[:0]
	for _, g := range groups {
		f.srcs = append(f.srcs, g.members...)
	}
	// Dearest first, so the source taken last is a cheap one; ties keep
	// registration order.
	slices.SortStableFunc(f.srcs, func(x, y *source) int { return cmp.Compare(y.cost, x.cost) })
	helpers := 0
	if hi-lo >= fanMinRows && len(f.srcs) > 1 {
		helpers = min(runtime.GOMAXPROCS(0), len(f.srcs)) - 1
	}
	if f.help == nil {
		f.help = func() {
			defer f.wg.Done()
			f.drain(true)
		}
	}
	f.b, f.rows, f.lo, f.hi = b, rows, lo, hi
	if cap(f.claims) < len(f.srcs) {
		f.claims = make([]fanClaim, len(f.srcs))
	}
	f.claims = f.claims[:len(f.srcs)]
	for i, s := range f.srcs {
		f.claims[i].cpu = s.cpu
		f.claims[i].taken.Store(false)
	}
	f.inFlight = true
	defer f.end()
	f.wg.Add(helpers)
	for range helpers {
		go f.help()
	}
	f.drain(false)
	f.wg.Wait()
	f.inFlight = false

	for _, s := range f.srcs {
		if s.panicked != nil {
			raise(s)
		}
	}
	for _, g := range groups {
		for _, s := range g.members {
			for i := range s.parked {
				s.parked[i].st.deliver(s.parked[i].r)
			}
		}
	}
}

// end leaves the sources as a segment found them, however run returns:
// after a panic in the caller's own sweep it first joins the helpers, and
// after a panic in a callback it drops what is still parked, so a later
// segment delivers nothing twice or late.
func (f *segFan) end() {
	if f.inFlight {
		f.wg.Wait()
		f.inFlight = false
	}
	for _, s := range f.srcs {
		clear(s.parked)
		s.parked = s.parked[:0]
		s.panicked, s.panicStack = nil, nil
	}
}

// sweepPanicLog receives the stack of a panic a helper recovered; tests
// replace it.
var sweepPanicLog io.Writer = os.Stderr

// raise re-raises on the caller the panic a helper recovered from s's
// sweep, with its own value. The helper's goroutine, and with it the
// frame that failed, is gone by now, so its stack is written out first.
func raise(s *source) {
	fmt.Fprintf(sweepPanicLog, "core: batch segment sweep panicked on a helper goroutine: %v\n\n%s\n", s.panicked, s.panicStack)
	panic(s.panicked)
}

// drain sweeps sources until none is left to take.
func (f *segFan) drain(onHelper bool) {
	for {
		cpu := currentCPU()
		i := f.claim(cpu)
		if i < 0 {
			return
		}
		f.srcs[i].cpu = cpu
		f.sweep(f.srcs[i], onHelper)
	}
}

// claim takes the dearest source whose previous sweep ran on cpu, else
// the dearest left, and returns its index; -1 when all are taken.
func (f *segFan) claim(cpu int) int {
	for _, anywhere := range [2]bool{false, true} {
		for i := range f.claims {
			c := &f.claims[i]
			if (anywhere || c.cpu == cpu) && c.taken.CompareAndSwap(false, true) {
				return i
			}
		}
	}
	return -1
}

// sweep runs one source's engine over the segment, timing it for the
// next segment's order. A panic on the caller unwinds through run as it
// would without helpers; one on a helper, which would end the process,
// is kept with its stack for the caller to raise.
func (f *segFan) sweep(s *source, onHelper bool) {
	if onHelper {
		defer func() {
			if r := recover(); r != nil {
				s.panicked, s.panicStack = r, debug.Stack()
			}
		}()
	}
	if segmentHook != nil {
		segmentHook(onHelper)
	}
	start := time.Now()
	s.eng.processSegment(f.b, f.rows, f.lo, f.hi)
	s.cost = time.Since(start)
}

// processSegment sweeps one segment of sorted rows through the engine:
// the partition is looked up once per run of rows sharing a key, through
// the memo (the routing hash is computed only on a memo miss), and rows
// the pre-filter proves unable to match any state take the skip path —
// the same clock advances and Events counts as a full Graph.Process
// whose insertAt fails every vertex predicate, with no graph work. Only
// called for simple plans (route-group members).
func (e *Engine) processSegment(b *event.Batch, rows []*event.Event, lo, hi int) {
	if lo >= hi {
		return
	}
	pf := e.prefilterFor(b, lo, hi)
	t := &e.parts
	var p *partition // the previous row's, nil at a run break
	for i := lo; i < hi; i++ {
		ev := rows[i]
		k := t.read(ev)
		w := k.words()
		if p != nil && !p.has(k, w) {
			p = nil
		}
		if !e.admit(ev) {
			continue
		}
		if p == nil {
			// Created even when every row of the run is filtered, as the
			// per-event path would.
			p = t.resolve(k, w)
		}
		if pf == nil || !pf.skip(i-lo) {
			e.applyRow(ev, p)
			continue
		}
		// Pre-filter eligibility guarantees a single dependency-free
		// graph, whose foldPending/expire are no-ops between the window
		// closes admit just handled.
		g := p.graphs[0]
		g.skipRow(ev)
		e.stats.PrefilterSkips++
		// Bulk the rest of the skip span: while consecutive rows stay
		// pre-filtered and their partitions are memo hits (pure reads —
		// nothing is created), the per-row engine work collapses to one
		// counter add and one close at the span tail. Sorted rows
		// guarantee no span row is late, and window closes never read the
		// graph clocks, so the interleaving is unobservable; a memo miss
		// or a passing row ends the span and resumes per-row handling.
		spanEnd := lo + pf.passEnd(i+1-lo, hi-lo)
		j := i + 1
		for ; j < spanEnd; j++ {
			k := t.read(rows[j])
			if w := k.words(); !p.has(k, w) {
				q := t.cached(k, w)
				if q == nil {
					break
				}
				p, g = q, q.graphs[0]
			}
			g.skipRow(rows[j])
		}
		if n := uint64(j - i - 1); n > 0 {
			e.stats.Events += n
			e.stats.PrefilterSkips += n
			e.closeUpTo(rows[j-1].Time)
		}
		i = j - 1
	}
}

// skipRow mirrors the effects of a Process whose vertex predicates all
// fail: the event is counted and both graph clocks advance (prevTime
// for ordering, lastEventID for contiguous semantics), nothing else
// moves.
func (g *Graph) skipRow(ev *event.Event) {
	g.stats.Events++
	g.prevTime = ev.Time
	g.lastEventID = ev.ID
}

// Batch pre-filter
// ---------------------------------------------------------------------

type pfMode uint8

const (
	// pfPass: no provably-equivalent vectorized form — every row goes
	// through the full insertion path.
	pfPass pfMode = iota
	// pfSkipAll: the batch's event type matches no pattern state; every
	// row takes the skip path without evaluating anything.
	pfSkipAll
	// pfCols: evaluate the column predicates into the selection bitmap.
	pfCols
)

// pfPred is one vectorizable vertex predicate with its slots resolved
// against the batch schema (rs < 0 when the right-hand side is the
// constant in col.Const).
type pfPred struct {
	col    predicate.Column
	ls, rs int
}

// batchPrefilter is the per-(engine, schema) vectorized pre-filter:
// recognized vertex predicates evaluated straight off the batch's
// dense numeric columns into a pooled selection bitmap. Built once per
// schema per engine and cached (Engine.prefilters) with its bitmaps,
// so steady-state batch ingest allocates nothing.
type batchPrefilter struct {
	sch  *event.Schema
	mode pfMode
	// preds, flattened per matching state: state k's predicates are
	// preds[stateOff[k]:stateOff[k+1]]. A row must be fully processed
	// when every predicate of at least one state passes.
	preds    []pfPred
	stateOff []int
	// pass is the pooled selection bitmap (bit i set: row lo+i may
	// match and takes the full path); tmp is the per-state AND scratch.
	pass []uint64
	tmp  []uint64
}

// prefilterFor resolves (building and caching on first encounter) the
// engine's pre-filter for b's schema and evaluates it over rows
// [lo, hi). A nil return means no filtering applies (pass-through).
func (e *Engine) prefilterFor(b *event.Batch, lo, hi int) *batchPrefilter {
	sch := b.Schema()
	var pf *batchPrefilter
	for _, p := range e.prefilters {
		if p.sch == sch {
			pf = p
			break
		}
	}
	if pf == nil {
		pf = e.buildPrefilter(sch)
		e.prefilters = append(e.prefilters, pf)
	}
	switch pf.mode {
	case pfPass:
		return nil
	case pfCols:
		pf.eval(b, lo, hi)
	}
	return pf
}

// buildPrefilter derives the pre-filter of one batch schema. The skip
// path replicates a predicate-failing Graph.Process only for a single
// dependency-free graph (no negation bookkeeping, no sibling graphs),
// and every vertex predicate of every matching state must have a
// provably-equivalent column form — anything else is pass-through.
func (e *Engine) buildPrefilter(sch *event.Schema) *batchPrefilter {
	pf := &batchPrefilter{sch: sch, mode: pfPass}
	if !e.plan.Simple() || len(e.plan.Subs) != 1 {
		return pf
	}
	spec := e.plan.Subs[0]
	states := spec.Tmpl.ByType[sch.Type]
	if len(states) == 0 {
		pf.mode = pfSkipAll
		return pf
	}
	pf.stateOff = append(pf.stateOff, 0)
	for _, sIdx := range states {
		vps := spec.VertexPreds[sIdx]
		if len(vps) == 0 {
			// The state matches unconditionally; no row can be skipped.
			return &batchPrefilter{sch: sch, mode: pfPass}
		}
		for _, vp := range vps {
			c := predicate.ColumnOf(vp.Expr)
			if c == nil {
				return &batchPrefilter{sch: sch, mode: pfPass}
			}
			ls, rs, ok := c.Slots(sch)
			if !ok {
				return &batchPrefilter{sch: sch, mode: pfPass}
			}
			pf.preds = append(pf.preds, pfPred{col: *c, ls: ls, rs: rs})
		}
		pf.stateOff = append(pf.stateOff, len(pf.preds))
	}
	pf.mode = pfCols
	return pf
}

// eval fills the selection bitmap for rows [lo, hi): bit i set means
// row lo+i passes at least one state's full predicate conjunction.
func (pf *batchPrefilter) eval(b *event.Batch, lo, hi int) {
	n := hi - lo
	words := (n + 63) / 64
	if cap(pf.pass) < words {
		pf.pass = make([]uint64, words)
		pf.tmp = make([]uint64, words)
	}
	pass := pf.pass[:words]
	tmp := pf.tmp[:words]
	for i := range pass {
		pass[i] = 0
	}
	col, stride := b.NumColumn()
	for s := 0; s < len(pf.stateOff)-1; s++ {
		for i := range tmp {
			tmp[i] = ^uint64(0)
		}
		if r := n & 63; r != 0 {
			tmp[words-1] = 1<<uint(r) - 1
		}
		for pi := pf.stateOff[s]; pi < pf.stateOff[s+1]; pi++ {
			applyPred(&pf.preds[pi], col, stride, lo, n, tmp)
		}
		for i := range pass {
			pass[i] |= tmp[i]
		}
	}
}

// applyPred ANDs one column predicate into the state bitmap, sweeping
// the strided numeric column once. EvalVals matches the scalar
// evaluator bit for bit (NaN marks absence and fails every comparison
// but !=, exactly as Compiled.EvalEvent behaves on map-free rows).
func applyPred(p *pfPred, col []float64, stride, lo, n int, tmp []uint64) {
	base := lo*stride + p.ls
	if p.rs < 0 {
		c := p.col.Const
		for i := 0; i < n; i++ {
			if tmp[i>>6]&(1<<uint(i&63)) == 0 {
				continue
			}
			if !p.col.EvalVals(col[base+i*stride], c) {
				tmp[i>>6] &^= 1 << uint(i&63)
			}
		}
		return
	}
	d := p.rs - p.ls
	for i := 0; i < n; i++ {
		if tmp[i>>6]&(1<<uint(i&63)) == 0 {
			continue
		}
		l := col[base+i*stride]
		if !p.col.EvalVals(l, col[base+i*stride+d]) {
			tmp[i>>6] &^= 1 << uint(i&63)
		}
	}
}

// skip reports whether row lo+i (relative to the eval window) cannot
// match any state and may take the skip path.
func (pf *batchPrefilter) skip(i int) bool {
	if pf.mode == pfSkipAll {
		return true
	}
	return pf.pass[i>>6]&(1<<uint(i&63)) == 0
}

// passEnd returns the first row index in [from, n) whose pass bit is
// set, or n — the exclusive end of the skip span starting at from,
// found a bitmap word at a time.
func (pf *batchPrefilter) passEnd(from, n int) int {
	if pf.mode == pfSkipAll {
		return n
	}
	i := from
	for i < n {
		w := pf.pass[i>>6] >> uint(i&63)
		if w != 0 {
			i += bits.TrailingZeros64(w)
			if i > n {
				return n
			}
			return i
		}
		i = (i>>6 + 1) << 6
	}
	return n
}
