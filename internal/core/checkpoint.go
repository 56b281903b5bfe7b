// Checkpoint/restore: serializes a Runtime's full recoverable state —
// statement registrations, shared-entry topology, per-partition graph
// panes with their B-tree structure and watermark-versioned summaries,
// invalidation cursors, result buffers, and watermarks — into the
// versioned body framed by internal/checkpoint's Store.
//
// The contract is bit-identity: restoring a checkpoint written at
// window boundary B and replaying every event with Time >= B yields
// the same results, the same Stats counters, and the same summary
// float folds as the uninterrupted run. To make that hold the exact
// B-tree node structure and each node's summary payload are
// serialized (rebuilding trees would change fold order and rebuild
// counters), and restore fills pooled payloads by direct field
// assignment so no Add/Merge path charges stats twice — GraphStats
// are restored wholesale instead.
//
// Scheduled checkpoints fire inside process before the triggering
// event is applied: every engine is advanced to the boundary B (which
// closes exactly the windows the triggering event would have closed),
// so no event with Time in [B, trigger) exists and the replayed
// suffix starting at the trigger is exactly the unprocessed stream.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/btree"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/reorder"
)

// ckVersion is the core body format version (the Store frames the body
// with magic and checksum; this word versions the body layout).
// Version 2 added the session-meta blob to the header and the reorder
// buffer section (slack, watermarks, pending in-flight events) to the
// body, so a restored runtime rehydrates its disorder window instead
// of silently flushing it. Version 3 dropped the per-statement
// stream-transaction flag and the engines' pending same-timestamp
// batch, which only the deleted §7 scheduler fork used.
const ckVersion = 3

// SaveFunc persists one snapshot. replayFrom is the inclusive
// event-time lower bound the feeder must replay after a restore;
// snapshot writes the body bytes. The callback runs with the runtime
// lock held — it must not call back into the Runtime.
type SaveFunc func(replayFrom event.Time, snapshot func(io.Writer) error) error

// ckState is the armed checkpoint schedule.
type ckState struct {
	every event.Time // boundary interval, > 0
	next  event.Time // first event time that triggers a checkpoint
	save  SaveFunc
	onErr func(error) // scheduled-save failures degrade loudly here

	// Observability of the last successful write (runCheckpoint): the
	// fields live here rather than in cells because they are read under
	// rt.mu at snapshot time only.
	lastDur  time.Duration
	lastUnix int64 // wall clock (ns); 0 before the first success
}

// SetCheckpoint arms watermark-aligned checkpointing: before applying
// the first event with Time >= the next multiple of every, the runtime
// advances all engines to that boundary and hands a snapshot to save.
// from < 0 means a fresh runtime (first boundary at every); a restored
// runtime passes its replayFrom so the schedule resumes where it left
// off. Save failures are reported to onErr (may be nil) and do not
// stop ingestion — the previous checkpoint generation remains valid.
func (rt *Runtime) SetCheckpoint(every, from event.Time, save SaveFunc, onErr func(error)) error {
	if every <= 0 {
		return errors.New("greta: checkpoint interval must be positive")
	}
	if save == nil {
		return errors.New("greta: checkpoint save function is nil")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	next := every
	if from >= 0 {
		next = from/every*every + every
	}
	rt.ck = &ckState{every: every, next: next, save: save, onErr: onErr}
	return nil
}

// SetCheckpointMeta registers an opaque session-meta provider: f is
// invoked at snapshot-encode time (runtime lock held — it must not
// call back into the Runtime) and its bytes travel inside the
// checkpoint header, surfacing again as RestoreInfo.Meta. The serving
// layer uses it to persist session identity and sequence cursors next
// to the engine state they describe. nil clears the provider.
func (rt *Runtime) SetCheckpointMeta(f func() []byte) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ckMeta = f
}

// checkpointAtBoundary runs a scheduled checkpoint; rt.mu held, t is
// the triggering (not yet applied) event time.
func (rt *Runtime) checkpointAtBoundary(t event.Time) {
	ck := rt.ck
	b := t / ck.every * ck.every
	// Advance every engine to the boundary: closes the same windows
	// the triggering event would close, and is idempotent for engines
	// shared by several statements.
	for _, st := range rt.stmts {
		st.eng.AdvanceTo(b)
	}
	ck.next = b + ck.every
	err := rt.runCheckpoint(ck, b)
	if err != nil && ck.onErr != nil {
		ck.onErr(err)
	}
}

// countingWriter counts the snapshot bytes flowing to the store.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// runCheckpoint runs one snapshot write (scheduled boundary or manual)
// with full instrumentation: write duration, snapshot bytes, trace
// begin/commit/fail. rt.mu held. Timing and allocation here are fine —
// this is a boundary, not the steady per-event path (the alloc guard's
// measured windows avoid boundaries for exactly this reason).
func (rt *Runtime) runCheckpoint(ck *ckState, replayFrom event.Time) error {
	rt.fireTrace(TraceEvent{Kind: TraceCheckpointBegin, Boundary: replayFrom, Watermark: rt.watermark})
	var cw countingWriter
	start := time.Now()
	err := ck.save(replayFrom, func(w io.Writer) error {
		cw.w, cw.n = w, 0
		return rt.encodeLocked(&cw, replayFrom)
	})
	dur := time.Since(start)
	if err != nil {
		if m := rt.met; m != nil {
			m.ckFails.Inc()
		}
		rt.fireTrace(TraceEvent{Kind: TraceCheckpointFail, Boundary: replayFrom, Watermark: rt.watermark, Dur: dur, Err: err})
		return err
	}
	ck.lastDur = dur
	ck.lastUnix = nowNanos()
	if m := rt.met; m != nil {
		m.ckWrites.Inc()
		m.ckBytes.Add(uint64(cw.n))
		m.ckLastBytes.Set(cw.n)
		m.ckLastBoundary.Set(replayFrom)
		m.ckLastUnix.Set(ck.lastUnix)
		m.ckDur.Observe(dur)
	}
	rt.fireTrace(TraceEvent{Kind: TraceCheckpointCommit, Boundary: replayFrom, Watermark: rt.watermark, Bytes: cw.n, Dur: dur})
	return nil
}

// CheckpointArmed reports whether a scheduled checkpoint cadence is
// armed (SetCheckpoint). Serving layers with frame-granular ingest
// cursors (netstream batch frames) use it to decide whether a snapshot
// can fire mid-frame — in which case they must track per-row progress
// so replay after restore stays exactly-once.
func (rt *Runtime) CheckpointArmed() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ck != nil
}

// CheckpointNow persists an immediate snapshot with replayFrom =
// watermark+1. Unlike boundary checkpoints it does not advance
// engines, so the exactness contract is weaker: replay is exact when
// event timestamps strictly increase (or the caller quiesced at a
// timestamp boundary); otherwise events sharing the watermark
// timestamp that arrive after the snapshot are replayed into state
// that already contains their predecessors' windows closed. The
// scheduled path has no such caveat.
func (rt *Runtime) CheckpointNow() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.running {
		return ErrRunning
	}
	ck := rt.ck
	if ck == nil {
		return errors.New("greta: checkpointing is not configured")
	}
	replay := rt.watermark + 1
	return rt.runCheckpoint(ck, replay)
}

// Plan returns the plan the statement registered with.
func (st *Stmt) Plan() *Plan { return st.srcPlan }

// NoRetain reports whether the statement registered in
// drop-on-delivery mode (StmtConfig.NoRetain).
func (st *Stmt) NoRetain() bool { return st.noRetain }

// ---------------------------------------------------------------------
// Event and schema tables
// ---------------------------------------------------------------------

// evTable interns the events referenced by serialized state (vertices,
// reorder-buffer pending events). The runtime shares one *Event across all
// engines, so deduplication is by pointer; references are assigned in
// first-encounter order while the body is encoded, and the table
// itself is written before the body in the file.
type evTable struct {
	refs    map[*event.Event]uint32
	list    []*event.Event
	schRefs map[*event.Schema]uint32
	schemas []*event.Schema
}

func newEvTable() *evTable {
	return &evTable{refs: map[*event.Event]uint32{}, schRefs: map[*event.Schema]uint32{}}
}

func (t *evTable) ref(ev *event.Event) uint32 {
	if r, ok := t.refs[ev]; ok {
		return r
	}
	r := uint32(len(t.list))
	t.refs[ev] = r
	t.list = append(t.list, ev)
	if ev.Sch != nil {
		if _, ok := t.schRefs[ev.Sch]; !ok {
			t.schRefs[ev.Sch] = uint32(len(t.schemas))
			t.schemas = append(t.schemas, ev.Sch)
		}
	}
	return r
}

func (t *evTable) encode(enc *checkpoint.Encoder) {
	enc.U32(uint32(len(t.schemas)))
	for _, s := range t.schemas {
		enc.String(string(s.Type))
		enc.U32(uint32(len(s.Numeric)))
		for _, a := range s.Numeric {
			enc.String(a)
		}
		enc.U32(uint32(len(s.Strings)))
		for _, a := range s.Strings {
			enc.String(a)
		}
	}
	enc.U32(uint32(len(t.list)))
	var nums, strs []string
	for _, ev := range t.list {
		enc.U64(ev.ID)
		enc.String(string(ev.Type))
		enc.I64(ev.Time)
		// The attributes the event has, sorted by name, however it carries
		// them: a map-free batch row writes the bytes its map-carried twin
		// does, and decode's Bind rebuilds the slots from the maps.
		nums, strs = ev.AttrNames(nums, strs)
		enc.U32(uint32(len(nums)))
		for _, k := range nums {
			v, _ := ev.Attr(k)
			enc.String(k)
			enc.F64(v)
		}
		enc.U32(uint32(len(strs)))
		for _, k := range strs {
			v, _ := ev.StrAttr(k)
			enc.String(k)
			enc.String(v)
		}
		if ev.Sch != nil {
			enc.Bool(true)
			enc.U32(t.schRefs[ev.Sch])
		} else {
			enc.Bool(false)
		}
	}
}

func decodeSchemas(d *checkpoint.Decoder) []*event.Schema {
	n := d.Len(12)
	out := make([]*event.Schema, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s := &event.Schema{Type: event.Type(d.String())}
		nn := d.Len(4)
		for j := 0; j < nn; j++ {
			s.Numeric = append(s.Numeric, d.String())
		}
		ns := d.Len(4)
		for j := 0; j < ns; j++ {
			s.Strings = append(s.Strings, d.String())
		}
		out = append(out, s)
	}
	return out
}

func decodeEvents(d *checkpoint.Decoder, schemas []*event.Schema) ([]*event.Event, error) {
	n := d.Len(26)
	out := make([]*event.Event, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ev := &event.Event{ID: d.U64(), Type: event.Type(d.String()), Time: d.I64()}
		na := d.Len(13)
		if na > 0 {
			ev.Attrs = make(map[string]float64, na)
		}
		for j := 0; j < na; j++ {
			k := d.String()
			ev.Attrs[k] = d.F64()
		}
		ns := d.Len(9)
		if ns > 0 {
			ev.Str = make(map[string]string, ns)
		}
		for j := 0; j < ns; j++ {
			k := d.String()
			ev.Str[k] = d.String()
		}
		if d.Bool() {
			si := int(d.U32())
			if d.Err() != nil {
				return nil, d.Err()
			}
			if si >= len(schemas) {
				return nil, d.Corrupt("schema ref %d out of range", si)
			}
			schemas[si].Bind(ev)
		}
		out = append(out, ev)
	}
	return out, d.Err()
}

// ---------------------------------------------------------------------
// Payloads, summaries, results
// ---------------------------------------------------------------------

func encodeBigInt(enc *checkpoint.Encoder, x *big.Int) {
	switch x.Sign() {
	case 0:
		enc.U8(0)
	case 1:
		enc.U8(1)
	default:
		enc.U8(2)
	}
	enc.Bytes(x.Bytes())
}

func decodeBigInt(d *checkpoint.Decoder, x *big.Int) {
	sign := d.U8()
	b := d.Bytes()
	switch sign {
	case 0:
		x.SetInt64(0)
	case 1:
		x.SetBytes(b)
	case 2:
		x.SetBytes(b)
		x.Neg(x)
	default:
		d.Corrupt("invalid big.Int sign byte %d", sign)
	}
}

func encodeBigFloat(enc *checkpoint.Encoder, x *big.Float) {
	b, err := x.GobEncode()
	if err != nil {
		enc.Fail(err)
		return
	}
	enc.Bytes(b)
}

func decodeBigFloat(d *checkpoint.Decoder, x *big.Float) {
	b := d.Bytes()
	if d.Err() != nil {
		return
	}
	if err := x.GobDecode(b); err != nil {
		d.Corrupt("big.Float: %v", err)
	}
}

// encodePayload writes a payload self-describingly (exact-mode big
// slots are flagged), so one codec serves pooled graph payloads and
// standalone result payloads.
func encodePayload(enc *checkpoint.Encoder, p *aggregate.Payload) {
	enc.U64(p.Count)
	enc.Bool(p.XCount != nil)
	if p.XCount != nil {
		encodeBigInt(enc, p.XCount)
	}
	enc.I64(p.MaxStart)
	enc.U32(uint32(len(p.Slots)))
	for i := range p.Slots {
		s := &p.Slots[i]
		enc.U64(s.N)
		enc.F64(s.F)
		enc.Bool(s.X != nil)
		if s.X != nil {
			encodeBigInt(enc, s.X)
		}
		enc.Bool(s.XF != nil)
		if s.XF != nil {
			encodeBigFloat(enc, s.XF)
		}
	}
}

// decodePayloadInto fills a pool-shaped payload in place, validating
// the blob against the definition's shape. No aggregation entry point
// is called, so restore has no stats side effects (GraphStats are
// restored wholesale).
func decodePayloadInto(d *checkpoint.Decoder, p *aggregate.Payload) error {
	p.Count = d.U64()
	hasXC := d.Bool()
	if d.Err() == nil && hasXC != (p.XCount != nil) {
		return d.Corrupt("payload XCount shape mismatch")
	}
	if hasXC {
		decodeBigInt(d, p.XCount)
	}
	p.MaxStart = d.I64()
	n := d.Len(10)
	if d.Err() == nil && n != len(p.Slots) {
		return d.Corrupt("payload has %d slots, definition has %d", n, len(p.Slots))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		s := &p.Slots[i]
		s.N = d.U64()
		s.F = d.F64()
		hasX := d.Bool()
		if d.Err() == nil && hasX != (s.X != nil) {
			return d.Corrupt("slot %d exact-int shape mismatch", i)
		}
		if hasX {
			decodeBigInt(d, s.X)
		}
		hasXF := d.Bool()
		if d.Err() == nil && hasXF != (s.XF != nil) {
			return d.Corrupt("slot %d exact-float shape mismatch", i)
		}
		if hasXF {
			decodeBigFloat(d, s.XF)
		}
	}
	return d.Err()
}

// decodePayloadNew materializes a standalone payload shaped by the
// blob itself (emitted results own their payloads; no pool or def is
// in play).
func decodePayloadNew(d *checkpoint.Decoder) *aggregate.Payload {
	p := &aggregate.Payload{}
	p.Count = d.U64()
	if d.Bool() {
		p.XCount = new(big.Int)
		decodeBigInt(d, p.XCount)
	}
	p.MaxStart = d.I64()
	n := d.Len(10)
	if n > 0 {
		p.Slots = make([]aggregate.SlotVal, n)
	}
	for i := range p.Slots {
		s := &p.Slots[i]
		s.N = d.U64()
		s.F = d.F64()
		if d.Bool() {
			s.X = new(big.Int)
			decodeBigInt(d, s.X)
		}
		if d.Bool() {
			s.XF = new(big.Float)
			decodeBigFloat(d, s.XF)
		}
	}
	return p
}

func encodeResults(enc *checkpoint.Encoder, rs []Result) {
	enc.U32(uint32(len(rs)))
	for i := range rs {
		r := &rs[i]
		enc.String(r.Group)
		enc.I64(r.Wid)
		enc.I64(r.WindowStart)
		enc.I64(r.WindowEnd)
		enc.U32(uint32(len(r.Values)))
		for _, v := range r.Values {
			enc.F64(v)
		}
		enc.Bool(r.Payload != nil)
		if r.Payload != nil {
			encodePayload(enc, r.Payload)
		}
		enc.I64(r.Emitted.UnixNano())
	}
}

func decodeResults(d *checkpoint.Decoder) []Result {
	n := d.Len(41)
	if n == 0 {
		return nil
	}
	out := make([]Result, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var r Result
		r.Group = d.String()
		r.Wid = d.I64()
		r.WindowStart = d.I64()
		r.WindowEnd = d.I64()
		nv := d.Len(8)
		if nv > 0 {
			r.Values = make([]float64, nv)
		}
		for j := range r.Values {
			r.Values[j] = d.F64()
		}
		if d.Bool() {
			r.Payload = decodePayloadNew(d)
		}
		r.Emitted = time.Unix(0, d.I64())
		out = append(out, r)
	}
	return out
}

func encodeSum(enc *checkpoint.Encoder, s *vertexSum) {
	enc.I64(s.agg.FirstWid)
	enc.U32(uint32(len(s.agg.Sums)))
	for _, p := range s.agg.Sums {
		enc.Bool(p != nil)
		if p != nil {
			encodePayload(enc, p)
		}
	}
	enc.U32(uint32(len(s.agg.Last)))
	for _, v := range s.agg.Last {
		enc.U32(v)
	}
	enc.U32(s.agg.N)
	enc.F64(s.minKey)
	enc.F64(s.maxKey)
	enc.I64(s.minTime)
	enc.I64(s.maxTime)
	enc.U64(s.wmVer)
	enc.U32(s.fallback)
	enc.Bool(s.bad)
}

func decodeSum(d *checkpoint.Decoder, g *Graph) (*vertexSum, error) {
	s := &vertexSum{}
	s.agg.FirstWid = d.I64()
	n := d.Len(1)
	if n > 0 {
		s.agg.Sums = make([]*aggregate.Payload, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		if d.Bool() {
			p := g.cs.pool.Get()
			if err := decodePayloadInto(d, p); err != nil {
				return nil, err
			}
			s.agg.Sums[i] = p
		}
	}
	nl := d.Len(4)
	if d.Err() == nil && nl != n {
		return nil, d.Corrupt("summary Last length %d != window count %d", nl, n)
	}
	if nl > 0 {
		s.agg.Last = make([]uint32, nl)
	}
	for i := range s.agg.Last {
		s.agg.Last[i] = d.U32()
	}
	s.agg.N = d.U32()
	s.minKey = d.F64()
	s.maxKey = d.F64()
	s.minTime = d.I64()
	s.maxTime = d.I64()
	s.wmVer = d.U64()
	s.fallback = d.U32()
	s.bad = d.Bool()
	return s, d.Err()
}

// ---------------------------------------------------------------------
// Vertices and trees
// ---------------------------------------------------------------------

func encodeVertex(enc *checkpoint.Encoder, tab *evTable, v *Vertex) {
	enc.U32(tab.ref(v.Ev))
	enc.I64(v.FirstWid)
	enc.Bool(v.closed)
	enc.U32(uint32(len(v.Aggs)))
	for _, p := range v.Aggs {
		enc.Bool(p != nil)
		if p != nil {
			encodePayload(enc, p)
		}
	}
}

func decodeVertex(d *checkpoint.Decoder, events []*event.Event, g *Graph, state int) (*Vertex, error) {
	ref := int(d.U32())
	firstWid := d.I64()
	closed := d.Bool()
	k := d.Len(1)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if ref >= len(events) {
		return nil, d.Corrupt("event ref %d out of range", ref)
	}
	if k == 0 {
		return nil, d.Corrupt("vertex with zero windows")
	}
	v := g.getVertex(k)
	v.Ev = events[ref]
	v.State = state
	v.FirstWid = firstWid
	v.closed = closed
	for i := 0; i < k && d.Err() == nil; i++ {
		if d.Bool() {
			p := g.cs.pool.Get()
			if err := decodePayloadInto(d, p); err != nil {
				return nil, err
			}
			v.Aggs[i] = p
		}
	}
	return v, d.Err()
}

// encodeTree writes the exact node structure pre-order: item count and
// items, child count, and (augmented trees only) the node summary.
// Serializing structure rather than re-inserting on restore is what
// keeps summary float folds, tree shape, and rebuild counters
// bit-identical to the uninterrupted run.
func encodeTree(enc *checkpoint.Encoder, tab *evTable, tr *vtree, augmented bool) {
	nodes := 0
	tr.DumpNodes(func([]vitem, *vertexSum, int) bool { nodes++; return true })
	enc.U32(uint32(nodes))
	tr.DumpNodes(func(items []vitem, sum *vertexSum, children int) bool {
		enc.U32(uint32(len(items)))
		for i := range items {
			enc.F64(items[i].Key)
			encodeVertex(enc, tab, items[i].Val)
		}
		enc.U32(uint32(children))
		if augmented {
			enc.Bool(sum != nil)
			if sum != nil {
				encodeSum(enc, sum)
			}
		}
		return true
	})
}

func decodeTree(d *checkpoint.Decoder, events []*event.Event, g *Graph, state int, augmented bool) (*vtree, error) {
	nodeCount := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	var aug btree.Summarizer[*Vertex, *vertexSum]
	if augmented {
		aug = g.cs.augs[state]
	}
	if nodeCount == 0 {
		if augmented {
			return btree.NewAugmented(&g.cs.nodeFree, aug), nil
		}
		return btree.NewWithFreeList(&g.cs.nodeFree), nil
	}
	seen := 0
	next := func() ([]vitem, *vertexSum, int, error) {
		if err := d.Err(); err != nil {
			return nil, nil, 0, err
		}
		if seen >= nodeCount {
			return nil, nil, 0, d.Corrupt("tree has more nodes than the %d declared", nodeCount)
		}
		seen++
		nItems := d.Len(22)
		if err := d.Err(); err != nil {
			return nil, nil, 0, err
		}
		items := make([]vitem, 0, nItems)
		for i := 0; i < nItems; i++ {
			key := d.F64()
			v, err := decodeVertex(d, events, g, state)
			if err != nil {
				return nil, nil, 0, err
			}
			items = append(items, vitem{Key: key, ID: v.Ev.ID, Val: v})
		}
		children := int(d.U32())
		var sum *vertexSum
		if augmented && d.Bool() {
			var err error
			if sum, err = decodeSum(d, g); err != nil {
				return nil, nil, 0, err
			}
		}
		return items, sum, children, d.Err()
	}
	tr, err := btree.BuildNodes(&g.cs.nodeFree, aug, next)
	if err != nil {
		return nil, err
	}
	if seen != nodeCount {
		return nil, d.Corrupt("tree has %d nodes, %d declared", seen, nodeCount)
	}
	return tr, nil
}

// ---------------------------------------------------------------------
// Graphs and partitions
// ---------------------------------------------------------------------

func encodeGraph(enc *checkpoint.Encoder, tab *evTable, g *Graph) {
	st := &g.stats
	enc.U64(st.Events)
	enc.U64(st.Vertices)
	enc.U64(st.Inserted)
	enc.U64(st.Edges)
	enc.U64(st.Payloads)
	enc.U64(st.ScanVisits)
	enc.U64(st.SummaryFolds)
	enc.U64(st.SummaryRebuilds)
	enc.I64(g.prevTime)
	enc.U64(g.lastEventID)
	enc.U64(g.wmVer)

	wids := make([]int64, 0, len(g.results))
	for wid := range g.results {
		wids = append(wids, wid)
	}
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	enc.U32(uint32(len(wids)))
	for _, wid := range wids {
		enc.I64(wid)
		encodePayload(enc, g.results[wid])
	}

	wids = wids[:0]
	for wid := range g.endWids {
		wids = append(wids, wid)
	}
	sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
	enc.U32(uint32(len(wids)))
	for _, wid := range wids {
		enc.I64(wid)
	}

	enc.U32(uint32(len(g.deps)))
	for _, l := range g.deps {
		enc.U32(uint32(len(l.pending)))
		for i := range l.pending {
			rec := &l.pending[i]
			enc.I64(rec.end)
			enc.I64(rec.firstWid)
			enc.U32(uint32(len(rec.starts)))
			for _, s := range rec.starts {
				enc.I64(s)
			}
		}
		wids = wids[:0]
		for wid := range l.maxStart {
			wids = append(wids, wid)
		}
		sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
		enc.U32(uint32(len(wids)))
		for _, wid := range wids {
			enc.I64(wid)
			enc.I64(l.maxStart[wid])
		}
		wids = wids[:0]
		for wid := range l.minEnd {
			wids = append(wids, wid)
		}
		sort.Slice(wids, func(i, j int) bool { return wids[i] < wids[j] })
		enc.U32(uint32(len(wids)))
		for _, wid := range wids {
			enc.I64(wid)
			enc.I64(l.minEnd[wid])
		}
	}

	enc.U32(uint32(len(g.panes)))
	for _, pn := range g.panes {
		enc.I64(pn.idx)
		states := make([]int, 0, len(pn.trees))
		for s := range pn.trees {
			states = append(states, s)
		}
		sort.Ints(states)
		enc.U32(uint32(len(states)))
		for _, s := range states {
			tr := pn.trees[s]
			enc.U32(uint32(s))
			enc.Bool(tr.Augmented())
			encodeTree(enc, tab, tr, tr.Augmented())
		}
	}
}

func decodeGraph(d *checkpoint.Decoder, events []*event.Event, g *Graph) error {
	st := &g.stats
	st.Events = d.U64()
	st.Vertices = d.U64()
	st.Inserted = d.U64()
	st.Edges = d.U64()
	st.Payloads = d.U64()
	st.ScanVisits = d.U64()
	st.SummaryFolds = d.U64()
	st.SummaryRebuilds = d.U64()
	g.prevTime = d.I64()
	g.lastEventID = d.U64()
	g.wmVer = d.U64()

	nr := d.Len(9)
	if nr > 0 {
		g.results = make(map[int64]*aggregate.Payload, nr)
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		wid := d.I64()
		p := g.cs.pool.Get()
		if err := decodePayloadInto(d, p); err != nil {
			return err
		}
		g.results[wid] = p
	}

	ne := d.Len(8)
	if ne > 0 {
		g.endWids = make(map[int64]bool, ne)
	}
	for i := 0; i < ne; i++ {
		g.endWids[d.I64()] = true
	}

	nd := d.Len(1)
	if d.Err() == nil && nd != len(g.deps) {
		return d.Corrupt("graph has %d dependency links, plan wires %d", nd, len(g.deps))
	}
	for i := 0; i < nd && d.Err() == nil; i++ {
		l := g.deps[i]
		np := d.Len(16)
		for j := 0; j < np && d.Err() == nil; j++ {
			var rec invalRecord
			rec.end = d.I64()
			rec.firstWid = d.I64()
			ns := d.Len(8)
			if ns > 0 {
				rec.starts = make([]int64, ns)
			}
			for k := range rec.starts {
				rec.starts[k] = d.I64()
			}
			l.pending = append(l.pending, rec)
		}
		nms := d.Len(16)
		for j := 0; j < nms; j++ {
			wid := d.I64()
			l.maxStart[wid] = d.I64()
		}
		nme := d.Len(16)
		for j := 0; j < nme; j++ {
			wid := d.I64()
			l.minEnd[wid] = d.I64()
		}
	}

	np := d.Len(12)
	prevIdx := int64(0)
	for i := 0; i < np && d.Err() == nil; i++ {
		idx := d.I64()
		if i > 0 && idx <= prevIdx {
			return d.Corrupt("pane indices not strictly increasing")
		}
		prevIdx = idx
		pn := &pane{idx: idx, start: idx * g.paneSize, end: (idx + 1) * g.paneSize, trees: map[int]*vtree{}}
		nt := d.Len(6)
		for j := 0; j < nt && d.Err() == nil; j++ {
			state := int(d.U32())
			augmented := d.Bool()
			if err := d.Err(); err != nil {
				return err
			}
			if state < 0 || state >= len(g.cs.augs) {
				return d.Corrupt("tree state %d out of range", state)
			}
			if _, dup := pn.trees[state]; dup {
				return d.Corrupt("duplicate tree for state %d", state)
			}
			if want := g.cs.augs[state] != nil && !g.forceScan; augmented != want {
				return d.Corrupt("tree augmentation mismatch for state %d", state)
			}
			tr, err := decodeTree(d, events, g, state, augmented)
			if err != nil {
				return err
			}
			pn.trees[state] = tr
			pn.vertices += tr.Len()
		}
		g.panes = append(g.panes, pn)
	}
	return d.Err()
}

func encodePartKey(enc *checkpoint.Encoder, pk partKey) {
	enc.U32(uint32(len(pk)))
	for i := range pk {
		a := &pk[i]
		enc.U8(a.kind)
		switch a.kind {
		case pkNum:
			enc.U64(a.num)
		case pkStr:
			enc.String(a.str)
		}
	}
}

func decodePartKey(d *checkpoint.Decoder, want int) (partKey, error) {
	n := d.Len(1)
	if d.Err() == nil && n != want {
		return nil, d.Corrupt("partition key has %d attributes, plan has %d", n, want)
	}
	pk := make(partKey, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		a := keyAttr{kind: d.U8()}
		switch a.kind {
		case pkMissing:
		case pkNum:
			a.num = d.U64()
		case pkStr:
			a.str = d.String()
		default:
			return nil, d.Corrupt("invalid partition key kind %d", a.kind)
		}
		pk = append(pk, a)
	}
	return pk, d.Err()
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

func encodeEngine(enc *checkpoint.Encoder, tab *evTable, e *Engine) {
	simple := e.plan.Simple()
	enc.Bool(simple)
	enc.I64(e.prevTime)
	s := &e.stats
	enc.U64(s.Events)
	enc.U64(s.OutOfOrder)
	enc.U64(s.Inserted)
	enc.U64(s.Edges)
	enc.U64(s.ScanVisits)
	enc.U64(s.SummaryFolds)
	enc.U64(s.SummaryRebuilds)
	enc.U64(s.PeakVertices)
	enc.U64(s.PeakPayloads)
	enc.I64(int64(s.Partitions))
	enc.U64(uint64(e.emitted))
	encodeResults(enc, e.results)
	if simple {
		enc.U32(uint32(len(e.parts.all())))
		for _, p := range e.parts.all() {
			enc.String(p.key)
			encodePartKey(enc, p.pk)
			for _, g := range p.graphs {
				encodeGraph(enc, tab, g)
			}
		}
	} else {
		// Branches, then products (a composite plan has at least one), each
		// run behind its count. The merger has no section: it is empty
		// whenever a snapshot can be taken (Engine.release).
		enc.U32(uint32(e.branches))
		for slot, se := range e.subs {
			if slot == e.branches {
				enc.U32(uint32(len(e.subs) - e.branches))
			}
			encodeEngine(enc, tab, se)
		}
	}
}

func decodeEngine(d *checkpoint.Decoder, events []*event.Event, e *Engine) error {
	simple := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if simple != e.plan.Simple() {
		return d.Corrupt("engine shape mismatch (checkpointed plan differs)")
	}
	e.prevTime = d.I64()
	s := &e.stats
	s.Events = d.U64()
	s.OutOfOrder = d.U64()
	s.Inserted = d.U64()
	s.Edges = d.U64()
	s.ScanVisits = d.U64()
	s.SummaryFolds = d.U64()
	s.SummaryRebuilds = d.U64()
	s.PeakVertices = d.U64()
	s.PeakPayloads = d.U64()
	s.Partitions = int(d.I64())
	e.emitted = int(d.U64())
	e.results = decodeResults(d)
	if simple {
		np := d.Len(8)
		for i := 0; i < np && d.Err() == nil; i++ {
			key := d.String()
			pk, err := decodePartKey(d, len(e.partAttrs))
			if err != nil {
				return err
			}
			for _, g := range e.parts.add(pk.hash(), key, pk).graphs {
				if err := decodeGraph(d, events, g); err != nil {
					return err
				}
			}
		}
	} else {
		if nbr := d.Len(1); d.Err() == nil && nbr != e.branches {
			return d.Corrupt("engine has %d branches, plan has %d", nbr, e.branches)
		}
		for slot, se := range e.subs {
			if slot == e.branches {
				if n, npr := d.Len(1), len(e.subs)-e.branches; d.Err() == nil && n != npr {
					return d.Corrupt("engine has %d products, plan has %d", n, npr)
				}
			}
			if err := decodeEngine(d, events, se); err != nil {
				return err
			}
			// Sub-engines retain nothing, so their result lists are written
			// empty. A body from before composite plans emitted per window
			// lists every window the sub-engine had closed; those partials
			// were never composed, so they go to the merger, which delivers
			// them at the next window close.
			for _, r := range se.results {
				e.merge.Add(slot, r.Group, r.Wid, r.Payload)
			}
			se.results = nil
		}
	}
	return d.Err()
}

// ---------------------------------------------------------------------
// Runtime encode
// ---------------------------------------------------------------------

// encodeLocked serializes the full recoverable runtime state; rt.mu
// held. The statement/entry body is encoded into a scratch buffer
// first so event references are assigned before the event table (which
// precedes the body in the file) is written.
func (rt *Runtime) encodeLocked(w io.Writer, replayFrom event.Time) error {
	tab := newEvTable()
	var body bytes.Buffer
	be := checkpoint.NewEncoder(&body)

	var entries []*sharedEntry
	entryRef := map[*sharedEntry]int{}
	for _, st := range rt.stmts {
		if st.entry != nil {
			if _, ok := entryRef[st.entry]; !ok {
				entryRef[st.entry] = len(entries)
				entries = append(entries, st.entry)
			}
		}
	}

	be.U32(uint32(len(rt.stmts)))
	for _, st := range rt.stmts {
		be.String(st.id)
		be.String(st.srcPlan.Query.String())
		be.U8(uint8(st.srcPlan.Mode))
		ref := int64(-1)
		force := st.eng.forceScan
		if st.entry != nil {
			ref = int64(entryRef[st.entry])
			force = st.entry.force
		}
		be.Bool(force)
		be.Bool(st.entry != nil || st.shareNode != nil)
		be.Bool(st.noRetain)
		be.I64(ref)
		be.U64(uint64(st.resultCount))
		encodeResults(be, st.results)
		if ref < 0 {
			encodeEngine(be, tab, st.eng)
		}
	}
	be.U32(uint32(len(entries)))
	for _, e := range entries {
		be.U32(uint32(len(e.subs)))
		encodeEngine(be, tab, e.host.eng)
	}
	// Reorder section: the disorder window travels with the snapshot.
	// Pending events are interned in the event table like any vertex
	// reference, listed in canonical release order (time, arrival). A
	// release in flight (popped from the buffer, not yet applied — it
	// is what fired this boundary) leads the list: it is first in
	// release order and would otherwise vanish from both replay modes.
	if b := rt.reorder; b != nil {
		be.Bool(true)
		s := b.Snapshot()
		pend := s.Pending
		if rt.inflight != nil {
			pend = append([]*event.Event{rt.inflight}, pend...)
		}
		be.I64(s.Slack)
		be.I64(s.MaxSeen)
		be.I64(s.Released)
		be.U64(s.Dropped)
		be.U32(uint32(len(pend)))
		for _, ev := range pend {
			be.U32(tab.ref(ev))
		}
	} else {
		be.Bool(false)
	}
	if err := be.Err(); err != nil {
		return err
	}

	he := checkpoint.NewEncoder(w)
	he.U32(ckVersion)
	he.I64(replayFrom)
	var every event.Time
	if rt.ck != nil {
		every = rt.ck.every
	}
	he.I64(every)
	he.I64(rt.watermark)
	he.U64(uint64(rt.nextID))
	var meta []byte
	if rt.ckMeta != nil {
		meta = rt.ckMeta()
	}
	he.Bytes(meta)
	tab.encode(he)
	if err := he.Err(); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

// RestoreInfo describes a restored checkpoint: the inclusive
// event-time replay bound and the checkpoint interval the runtime was
// armed with when the snapshot was written (0 if none — e.g. a body
// encoded without an armed schedule).
type RestoreInfo struct {
	ReplayFrom event.Time
	Every      event.Time
	// Meta is the opaque session-meta blob the snapshot was written
	// with (SetCheckpointMeta); nil when none.
	Meta []byte
	// ReorderSlack and ReorderPending describe the rehydrated disorder
	// window: the armed slack (0 when off) and how many in-flight
	// events were restored into the buffer.
	ReorderSlack   event.Time
	ReorderPending int
}

// RestoreRuntime rebuilds a Runtime from checkpoint body bytes (as
// returned by checkpoint.Store.Load). It returns the runtime and the
// replay bound: feeding every original event with Time >=
// info.ReplayFrom reproduces the uninterrupted run bit for bit.
// Statement plans are recompiled from their canonical query text;
// shared entries are rebuilt with their original subscriber order so
// union payload slot layouts match; result callbacks are not restored
// (re-register them via Stmt.OnResult), and checkpointing is not
// re-armed (call SetCheckpoint with info.Every). Corrupt input yields
// an error wrapping checkpoint.ErrCorrupt, never a panic.
func RestoreRuntime(data []byte) (*Runtime, RestoreInfo, error) {
	d := checkpoint.NewDecoder(data)
	if v := d.U32(); d.Err() == nil && v != ckVersion {
		return nil, RestoreInfo{}, d.Corrupt("unsupported checkpoint version %d", v)
	}
	replayFrom := d.I64()
	every := d.I64()
	wm := d.I64()
	nextID := d.U64()
	meta := d.Bytes()
	if len(meta) == 0 {
		meta = nil
	} else {
		meta = append([]byte(nil), meta...)
	}
	schemas := decodeSchemas(d)
	events, err := decodeEvents(d, schemas)
	if err != nil {
		return nil, RestoreInfo{}, err
	}

	rt := NewRuntime()
	rt.mu.Lock()
	defer rt.mu.Unlock()

	type pendingEntry struct {
		e    *sharedEntry
		subs []*Stmt
	}
	var entries []*pendingEntry

	nst := d.Len(1)
	for i := 0; i < nst; i++ {
		id := d.String()
		qtext := d.String()
		mode := aggregate.Mode(d.U8())
		force := d.Bool()
		shared := d.Bool()
		noRetain := d.Bool()
		ref := d.I64()
		resultCount := d.U64()
		results := decodeResults(d)
		if err := d.Err(); err != nil {
			return nil, RestoreInfo{}, err
		}
		q, err := query.Parse(qtext)
		if err != nil {
			return nil, RestoreInfo{}, fmt.Errorf("checkpoint: statement %q: %w", id, err)
		}
		plan, err := NewPlan(q, mode)
		if err != nil {
			return nil, RestoreInfo{}, fmt.Errorf("checkpoint: statement %q: %w", id, err)
		}
		cfg := StmtConfig{ID: id, ForceVertexScan: force, Share: shared, NoRetain: noRetain}
		if ref < 0 {
			st := rt.adoptLocked(newStmtEngine(plan, cfg), id)
			st.srcPlan = plan
			st.noRetain = noRetain
			st.results = results
			st.resultCount = int(resultCount)
			if shared && shareable(plan) {
				st.shareNode = rt.shareIdx.Put(shareKeyOf(plan, cfg), &shareRec{cand: st})
			}
			if err := decodeEngine(d, events, st.eng); err != nil {
				return nil, RestoreInfo{}, err
			}
		} else {
			if ref > int64(len(entries)) {
				return nil, RestoreInfo{}, d.Corrupt("entry ref %d out of order", ref)
			}
			st := &Stmt{rt: rt, srcPlan: plan, noRetain: noRetain, parPrev: -1}
			st.results = results
			st.resultCount = int(resultCount)
			rt.enrollLocked(st, id)
			if ref == int64(len(entries)) {
				e := &sharedEntry{rt: rt, query: plan.Query, mode: mode, force: force}
				e.node = rt.shareIdx.Put(shareKeyOf(plan, cfg), &shareRec{entry: e})
				entries = append(entries, &pendingEntry{e: e})
			}
			pe := entries[ref]
			st.entry = pe.e
			pe.subs = append(pe.subs, st)
		}
	}

	nent := d.Len(5)
	if d.Err() == nil && nent != len(entries) {
		return nil, RestoreInfo{}, d.Corrupt("entry count %d != %d referenced", nent, len(entries))
	}
	for _, pe := range entries {
		nSubs := int(d.U32())
		if err := d.Err(); err != nil {
			return nil, RestoreInfo{}, err
		}
		if nSubs != len(pe.subs) {
			return nil, RestoreInfo{}, d.Corrupt("entry has %d subscribers, %d statements reference it", nSubs, len(pe.subs))
		}
		// Rebuild the union engine with the original subscriber order,
		// replicating attachShared's promote step: the host statement
		// (never enrolled) carries the engine inside its route group.
		eng, def, outs, err := pe.e.buildUnion(pe.subs)
		if err != nil {
			return nil, RestoreInfo{}, fmt.Errorf("checkpoint: rebuild shared entry: %w", err)
		}
		host := &Stmt{rt: rt, id: "~" + pe.e.node.Key(), parPrev: -1}
		host.grp = rt.routeGroupFor(eng)
		host.grp.members = append(host.grp.members, host)
		host.eng = eng
		pe.e.host = host
		pe.e.subs = pe.subs
		pe.e.def = def
		for i, sub := range pe.subs {
			sub.outs = outs[i]
			sub.eng = eng
		}
		if err := decodeEngine(d, events, eng); err != nil {
			return nil, RestoreInfo{}, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, RestoreInfo{}, err
	}
	info := RestoreInfo{ReplayFrom: replayFrom, Every: every, Meta: meta}
	if d.Bool() {
		snap := &reorder.Snapshot{
			Slack:    d.I64(),
			MaxSeen:  d.I64(),
			Released: d.I64(),
			Dropped:  d.U64(),
		}
		np := d.Len(4)
		for i := 0; i < np && d.Err() == nil; i++ {
			ref := int(d.U32())
			if d.Err() != nil {
				break
			}
			if ref >= len(events) {
				return nil, RestoreInfo{}, d.Corrupt("reorder pending ref %d out of range", ref)
			}
			snap.Pending = append(snap.Pending, events[ref])
		}
		if err := d.Err(); err != nil {
			return nil, RestoreInfo{}, err
		}
		if snap.Slack <= 0 {
			return nil, RestoreInfo{}, d.Corrupt("reorder section with non-positive slack %d", snap.Slack)
		}
		rt.reorder = reorder.Restore(snap, rt.applyReleased)
		if len(snap.Pending) > 0 {
			rt.replayDedup = make(map[uint64]struct{}, len(snap.Pending))
			for _, ev := range snap.Pending {
				rt.replayDedup[ev.ID] = struct{}{}
			}
		}
		info.ReorderSlack = snap.Slack
		info.ReorderPending = len(snap.Pending)
	}
	if err := d.Err(); err != nil {
		return nil, RestoreInfo{}, err
	}
	if d.Remaining() != 0 {
		return nil, RestoreInfo{}, d.Corrupt("%d trailing bytes after checkpoint body", d.Remaining())
	}

	rt.watermark = wm
	rt.nextID = int(nextID)
	if meta != nil {
		// Re-encoding a restored runtime without a fresh provider keeps
		// the snapshot's blob (round-trip identity); the serving layer
		// overwrites it via SetCheckpointMeta once the session rebinds.
		rt.ckMeta = func() []byte { return meta }
	}
	for _, st := range rt.stmts {
		st.parPrev = wm
	}
	for _, pe := range entries {
		pe.e.host.parPrev = wm
	}
	// Restored graphs are warm by definition: advance the share epoch
	// so none of them accepts new subscribers.
	rt.shareIdx.Advance()
	return rt, info, nil
}
