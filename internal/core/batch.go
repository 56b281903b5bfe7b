// Columnar batch ingest: Runtime.ProcessBatch applies a whole
// event.Batch with per-event overhead amortized three ways —
//
//   - one routing hash per maximal run of adjacent rows sharing a
//     partition key (instead of one per row per route group),
//   - a vectorized predicate pre-filter evaluating the vectorizable
//     vertex predicates (predicate.Column) over the batch's dense
//     numeric columns into a pooled selection bitmap, so rows that
//     cannot match any state skip graph insertion entirely,
//   - the runtime watermark advanced once per batch tail.
//
// The path is semantically invisible: results, Stats counters (modulo
// the new PrefilterSkips), checkpoint boundary placement, and summary
// fold order are bit-identical to feeding the same rows through
// Process one at a time. Everything that cannot be proven invisible
// falls back to the per-event path row by row — unsorted batches,
// replay deduplication after a restore, and a slack-armed runtime with
// checkpointing on.
package core

import (
	"errors"
	"math"
	"math/bits"

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
// With reorder slack armed, the batch splits: the in-order prefix at
// or below the reorder horizon is applied columnar, interleaved in
// (time, arrival) order with pending buffered releases, and the
// straggler tail enters the reorder buffer to be released by later
// arrivals. A runtime with both slack and a checkpoint schedule armed
// feeds rows individually (a mid-batch snapshot must capture the exact
// per-arrival buffer state).
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
	if m := rt.met; m != nil {
		m.batches.Inc()
		m.batchRows.Add(uint64(n))
	}
	rows := b.Rows()
	for i := 1; i < n; i++ {
		if rows[i].Time < rows[i-1].Time {
			return rt.processBatchFallback(rows)
		}
	}
	if rt.reorder != nil {
		if rt.ck != nil || len(rt.replayDedup) > 0 {
			return rt.processBatchFallback(rows)
		}
		return rt.processBatchReorder(b, rows)
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
	rt.applyBatch(b, rows, 0, n)
	if last := rows[n-1].Time; last > rt.watermark {
		rt.watermark = last
	}
	if m := rt.met; m != nil {
		// rt.watermark now covers the batch maximum (rows are sorted), so
		// the frontier cells stay untouched — the snapshot derives both
		// series from rt.watermark under rt.mu.
		m.events.Add(uint64(n))
		m.drops.Add(uint64(n - accepted))
	}
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

// applyBatch applies sorted rows [lo, hi) to the engines, splitting
// into segments at scheduled checkpoint boundaries: the snapshot fires
// before the first row at or past ck.next, exactly where the per-event
// path fires it; rt.mu held.
func (rt *Runtime) applyBatch(b *event.Batch, rows []*event.Event, lo, hi int) {
	for lo < hi {
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
// member engine sweeps the segment in one columnar pass (run tracking,
// partition memo, pre-filter skips fused); rt.mu held. Engines are
// independent, so the engine-major order (all rows for one engine,
// then the next) emits the same per-statement results as the
// per-event row-major order.
func (rt *Runtime) applySegment(b *event.Batch, rows []*event.Event, lo, hi int) {
	// Every row is an ingest epoch, exactly as applyLocked advances
	// once per event (registration cannot interleave: rt.mu is held).
	rt.shareIdx.AdvanceN(uint64(hi - lo))
	for _, g := range rt.groups {
		for _, st := range g.members {
			st.eng.processSegment(b, rows, lo, hi)
		}
	}
	for _, st := range rt.direct {
		for i := lo; i < hi; i++ {
			st.eng.Process(rows[i])
		}
	}
}

// routeSlot is one partition-key attribute resolved against a batch
// schema: dense slot indexes (or -1), mirroring Accessor's reads.
type routeSlot struct{ ns, ss int }

// sameKeyAt reports whether batch row i carries the same partition key
// as row i-1 — kind and value, in Accessor precedence order (string
// presence wins over numeric, ""/NaN mark absence, exactly as
// hashRoute reads a row).
func sameKeyAt(slots []routeSlot, num []float64, nw int, strv []string, sw, i int) bool {
	for _, s := range slots {
		var v, pv string
		if s.ss >= 0 {
			v, pv = strv[i*sw+s.ss], strv[(i-1)*sw+s.ss]
		}
		if v != "" || pv != "" {
			if v != pv {
				return false
			}
			continue
		}
		if s.ns >= 0 {
			f, g := num[i*nw+s.ns], num[(i-1)*nw+s.ns]
			if math.IsNaN(f) != math.IsNaN(g) {
				return false
			}
			if !math.IsNaN(f) && math.Float64bits(f) != math.Float64bits(g) {
				return false
			}
		}
	}
	return true
}

// keyWordsAt reads batch row i's partition key into at most two packed
// slot words plus a memo fingerprint folded over every slot. Words are
// prefix-faithful — equal keys always produce equal words, so a word
// mismatch is a definitive key mismatch. When exact is true (at most
// two slots, each a string of six or fewer bytes or absent) the words
// are also injective: equal words of two exact rows PROVE equal keys,
// and the memo and run tracking skip value verification entirely.
// Longer strings, numeric slots, and wider keys clear exact and fall
// back to the exact compares (sameKeyAt, matchKeyAt). A string slot
// word packs length<<56 | kind<<48 | up to six leading bytes; numeric
// slots use the raw float bits XOR a kind marker (fingerprint-only —
// float bits can mimic any pattern, hence inexact); absent slots use
// the bare kind marker (top byte zero, disjoint from every string).
func keyWordsAt(slots []routeSlot, num []float64, nw int, strv []string, sw, i int) (fp, w0, w1 uint64, exact bool) {
	const mix = 0x9E3779B97F4A7C15
	fp = 0x2545F4914F6CDD1D
	exact = len(slots) <= 2
	for k, s := range slots {
		w := uint64(pkMissing)
		if s.ss >= 0 && strv[i*sw+s.ss] != "" {
			v := strv[i*sw+s.ss]
			w = uint64(len(v))<<56 | uint64(pkStr)<<48
			for j := 0; j < len(v) && j < 6; j++ {
				w |= uint64(v[j]) << (8 * j)
			}
			if len(v) > 6 {
				exact = false
			}
		} else if s.ns >= 0 && !math.IsNaN(num[i*nw+s.ns]) {
			w = math.Float64bits(num[i*nw+s.ns]) ^ uint64(pkNum)<<48
			exact = false
		}
		fp = (fp ^ w) * mix
		if k == 0 {
			w0 = w
		} else if k == 1 {
			w1 = w
		}
	}
	// Fold the high half down: multiplication only carries differences
	// upward, and the memo indexes by the low bits.
	return fp ^ fp>>32, w0, w1, exact
}

// hashRowAt is hashRoute for batch row i read straight off the dense
// columns; must hash exactly the bytes hashRoute hashes. The batch
// path only needs it on a partition-memo miss (partition chains are
// keyed by this hash, shared with the per-event path).
func hashRowAt(slots []routeSlot, num []float64, nw int, strv []string, sw, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range slots {
		if s.ss >= 0 {
			if v := strv[i*sw+s.ss]; v != "" {
				h = hashByte(h, pkStr)
				for j := 0; j < len(v); j++ {
					h = hashByte(h, v[j])
				}
				continue
			}
		}
		if s.ns >= 0 {
			if f := num[i*nw+s.ns]; !math.IsNaN(f) {
				h = hashByte(h, pkNum)
				h = hashU64(h, math.Float64bits(f))
				continue
			}
		}
		h = hashByte(h, pkMissing)
	}
	return h
}

// processBatchReorder merges a sorted batch into a slack-armed
// runtime: everything at or below the final horizon (the horizon after
// the whole batch has arrived) releases during this call, interleaved
// with pending buffered events in (time, arrival) order — pending
// events win timestamp ties, their arrival stamps predate every batch
// row — and the straggler tail enters the buffer. Checkpointing is
// off on this path (ProcessBatch falls back per-row otherwise), so no
// mid-merge snapshot can observe the shortcut; rt.mu held.
func (rt *Runtime) processBatchReorder(b *event.Batch, rows []*event.Event) (int, error) {
	buf := rt.reorder
	// Apply a restored in-flight release first, as process does.
	buf.Settle()
	n := len(rows)
	// Rows behind the horizon drop without touching any engine. For a
	// sorted batch the horizon the per-event feed would test each row
	// against can only be the initial one (later rows only raise it by
	// at most their own timestamp), so the drops form a prefix.
	lo := 0
	for lo < n && rows[lo].Time < buf.Horizon() {
		lo++
	}
	if lo > 0 {
		buf.NoteDropped(uint64(lo))
	}
	finalHorizon := buf.Horizon()
	if h := rows[n-1].Time - buf.Slack(); h > finalHorizon {
		finalHorizon = h
	}
	i := lo
	for i < n && rows[i].Time <= finalHorizon {
		pt, pending := buf.PeekTime()
		if pending && pt <= rows[i].Time {
			// Pending event first: pt <= rows[i].Time <= finalHorizon.
			rt.applyReleased(buf.PopRelease())
			continue
		}
		// Maximal chunk of batch rows strictly ahead of the next pending
		// event, applied columnar.
		limit := finalHorizon
		if pending && pt-1 < limit {
			limit = pt - 1
		}
		j := i + 1
		for j < n && rows[j].Time <= limit {
			j++
		}
		rt.applyBatch(b, rows, i, j)
		if t := rows[j-1].Time; t > rt.watermark {
			rt.watermark = t
		}
		buf.Bypass(rows[j-1].Time)
		i = j
	}
	// Pending events at or below the final horizon outlasting the batch
	// rows release now — per-event they'd release as the straggler tail
	// raised maxSeen.
	for {
		pt, ok := buf.PeekTime()
		if !ok || pt > finalHorizon {
			break
		}
		rt.applyReleased(buf.PopRelease())
	}
	// The tail stays inside the disorder window: every time is above
	// the final horizon, so the pushes drop nothing and release nothing.
	for ; i < n; i++ {
		buf.Push(rows[i])
	}
	if m := rt.met; m != nil {
		// The buffered tail stays ahead of the released frontier, so only
		// the offered high-water cell moves; the released watermark is
		// rt.watermark under rt.mu.
		m.events.Add(uint64(n))
		m.drops.Add(uint64(lo))
		m.maxSeen.SetMax(rows[n-1].Time)
	}
	return n - lo, nil
}

// processSegment sweeps one segment of sorted rows through the engine
// in a single columnar pass: per row the packed key words both track
// partition-key runs (a word change breaks the run; exact words prove
// continuation without a compare) and resolve the partition through
// the direct-mapped memo (the FNV-1a routing hash is computed only on
// a memo miss), and rows the pre-filter proves unable to match any
// state take the skip path — the same clock advances and Events
// counts as a full Graph.Process whose insertAt fails every vertex
// predicate, with no graph work. Only called for simple plans
// (route-group members).
func (e *Engine) processSegment(b *event.Batch, rows []*event.Event, lo, hi int) {
	if lo >= hi {
		return
	}
	pf := e.prefilterFor(b, lo, hi)
	if e.partCache == nil {
		e.partCache = make([]partCacheEnt, partCacheSize)
	}
	slots := e.routeSlotsFor(b.Schema())
	num, nw := b.NumColumn()
	strv, sw := b.StrColumn()
	var p *partition
	var pw0, pw1 uint64
	pexact := false
	for i := lo; i < hi; i++ {
		fp, w0, w1, exact := keyWordsAt(slots, num, nw, strv, sw, i)
		if p != nil && (w0 != pw0 || w1 != pw1 ||
			!(exact && pexact) && !sameKeyAt(slots, num, nw, strv, sw, i)) {
			p = nil // run break: the key provably changed
		}
		pw0, pw1, pexact = w0, w1, exact
		ev := rows[i]
		if ev.Time < e.prevTime {
			e.stats.OutOfOrder++
			continue
		}
		e.stats.Events++
		e.closeUpTo(ev.Time)
		if p == nil {
			// One lookup per run; created even when every row of the
			// run is filtered, as the per-event dispatch would. The
			// direct-mapped memo front-runs the chain probe —
			// partitions are never removed, so a hit (two exact words,
			// or word-verified against the stored key off the columns)
			// is always the partition the probe would return; only a
			// miss pays the routing hash.
			ent := &e.partCache[fp&(partCacheSize-1)]
			if ent.p != nil && ent.w0 == w0 && ent.w1 == w1 &&
				(exact && ent.exact || matchKeyAt(&ent.p.pk, slots, num, nw, strv, sw, i)) {
				p = ent.p
			} else {
				p = e.partitionFor(hashRowAt(slots, num, nw, strv, sw, i), ev)
				ent.w0, ent.w1, ent.exact, ent.p = w0, w1, exact, p
			}
		}
		if pf != nil && pf.skip(i-lo) {
			// Mirror the effects of a Graph.Process whose predicates
			// all fail: the event is counted and both graph clocks
			// advance (prevTime for ordering, lastEventID for
			// contiguous semantics), nothing else moves. Pre-filter
			// eligibility guarantees a single dependency-free graph,
			// whose foldPending/expire are no-ops between the window
			// closes closeUpTo just handled.
			g := p.graphs[0]
			g.stats.Events++
			g.prevTime = ev.Time
			g.lastEventID = ev.ID
			e.stats.PrefilterSkips++
			// Bulk the rest of the skip span: while consecutive rows
			// stay pre-filtered and their runs' partitions are memo
			// hits (pure reads — nothing is created), the per-row
			// engine work collapses to one counter add and one close
			// at the span tail. Sorted rows guarantee no span row is
			// late, and window closes never read the graph clocks, so
			// the interleaving is unobservable; a memo miss or a
			// passing row ends the span and resumes per-row handling.
			spanEnd := lo + pf.passEnd(i+1-lo, hi-lo)
			j := i + 1
			for j < spanEnd {
				fpj, w0j, w1j, exj := keyWordsAt(slots, num, nw, strv, sw, j)
				if w0j != pw0 || w1j != pw1 ||
					!(exj && pexact) && !sameKeyAt(slots, num, nw, strv, sw, j) {
					ent := &e.partCache[fpj&(partCacheSize-1)]
					if ent.p == nil || ent.w0 != w0j || ent.w1 != w1j ||
						!(exj && ent.exact) && !matchKeyAt(&ent.p.pk, slots, num, nw, strv, sw, j) {
						break
					}
					p = ent.p
					g = p.graphs[0]
				}
				pw0, pw1, pexact = w0j, w1j, exj
				rj := rows[j]
				g.stats.Events++
				g.prevTime = rj.Time
				g.lastEventID = rj.ID
				j++
			}
			if n := uint64(j - i - 1); n > 0 {
				e.stats.Events += n
				e.stats.PrefilterSkips += n
				e.closeUpTo(rows[j-1].Time)
			}
			i = j - 1
			continue
		}
		for _, idx := range e.order {
			p.graphs[idx].Process(ev)
		}
	}
}

// partCacheSize is the direct-mapped partition-memo size (power of
// two; 32KB per engine that has seen batch ingest — sized so the
// Linear Road shapes' ~1k live partitions mostly stay resident).
const partCacheSize = 1024

// partCacheEnt is one (key words → partition) memo entry, indexed by
// the fingerprint's low bits. exact records whether the filling row's
// words were injective (see keyWordsAt): a probe whose words match an
// exact entry exactly is a proven hit, no key compare needed.
type partCacheEnt struct {
	w0, w1 uint64
	exact  bool
	p      *partition
}

// routeSlotCache is the engine's partition-key slot resolution for one
// batch schema (one entry per distinct schema seen, like prefilters).
type routeSlotCache struct {
	sch   *event.Schema
	slots []routeSlot
}

// routeSlotsFor resolves (caching per schema) the engine's routing
// accessors against a batch schema.
func (e *Engine) routeSlotsFor(sch *event.Schema) []routeSlot {
	for _, c := range e.routeSlotCaches {
		if c.sch == sch {
			return c.slots
		}
	}
	slots := make([]routeSlot, len(e.routeAcc))
	for i := range e.routeAcc {
		a := e.routeAcc[i].Attr()
		slots[i] = routeSlot{ns: sch.NumSlot(a), ss: sch.StrSlot(a)}
	}
	e.routeSlotCaches = append(e.routeSlotCaches, routeSlotCache{sch: sch, slots: slots})
	return slots
}

// matchKeyAt is keyMatches for batch row i read straight off the dense
// columns — same kind precedence, same absence markers.
func matchKeyAt(pk *partKey, slots []routeSlot, num []float64, nw int, strv []string, sw, i int) bool {
	for k, s := range slots {
		if s.ss >= 0 {
			if v := strv[i*sw+s.ss]; v != "" {
				if pk.kinds[k] != pkStr || pk.strs[k] != v {
					return false
				}
				continue
			}
		}
		if s.ns >= 0 {
			if f := num[i*nw+s.ns]; !math.IsNaN(f) {
				if pk.kinds[k] != pkNum || pk.nums[k] != math.Float64bits(f) {
					return false
				}
				continue
			}
		}
		if pk.kinds[k] != pkMissing {
			return false
		}
	}
	return true
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
