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
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"time"
	"weak"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/btree"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
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

// SnapshotSink is where a snapshot leaves the runtime: Start takes the
// snapshot's parts in file order and returns at once, and Wait reports
// the write they began — how long it took, and its error. The parts are
// the sink's until Wait returns, and at most one write is in flight.
// After Wait the runtime encodes the next snapshot into the same
// storage, so a sink keeps no reference to the parts past it.
// *checkpoint.Store is the sink; tests substitute their own.
type SnapshotSink interface {
	Start(parts ...[]byte)
	Wait() (time.Duration, error)
}

// ckState is the armed checkpoint schedule.
type ckState struct {
	every event.Time   // boundary interval, > 0
	next  event.Time   // first event time that triggers a checkpoint
	sink  SnapshotSink // takes each snapshot off the ingest path
	onErr func(error)  // scheduled-save failures degrade loudly here

	// The snapshot sink is writing, reported when it settles: its replay
	// bound, size and encode time. busy is false when none is in flight.
	busy    bool
	flight  event.Time
	fBytes  int64
	fEncode time.Duration

	// lastDur is the last successful write's latency (endCheckpoint):
	// read under rt.mu at snapshot time only, so it needs no cell.
	lastDur time.Duration
}

// WithCheckpoint arms watermark-aligned checkpointing: before applying
// the first event with Time >= the next multiple of every, the runtime
// advances all engines to that boundary, encodes a snapshot and hands
// it to sink.Start. The write is waited for at the next boundary,
// CheckpointNow or Close, where its trace, metrics and any onErr call
// (onErr may be nil) are delivered, rt.mu held; one write is in flight
// at most. A restored runtime's schedule resumes where its snapshot
// left off, and every 0 keeps the interval the snapshot was written
// under. Failures do not stop ingestion — the previous checkpoint
// generation remains valid.
func WithCheckpoint(every event.Time, sink SnapshotSink, onErr func(error)) Option {
	return func(rt *Runtime) { rt.ck = &ckState{every: every, sink: sink, onErr: onErr} }
}

// SetCheckpointMeta registers an opaque session-meta provider: f is
// invoked at snapshot-encode time (runtime lock held — it must not
// call back into the Runtime) and its bytes travel inside the
// checkpoint header, surfacing again as RestoreInfo.Meta. The serving
// layer uses it to persist session identity and sequence cursors next
// to the engine state they describe. A snapshot that fires inside a
// ProcessBatch call holds the batch's first batchRows rows, of which
// it accepted batchAccepted (the rest were dropped as late); both are
// 0 inside Process and between calls. nil clears the provider.
func (rt *Runtime) SetCheckpointMeta(f func(batchRows, batchAccepted int) []byte) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ckMeta = f
}

// checkpointAtBoundary runs a scheduled checkpoint; rt.mu held, t is
// the triggering (not yet applied) event time.
func (rt *Runtime) checkpointAtBoundary(t event.Time) {
	rt.settleCheckpoint()
	ck := rt.ck
	b := t / ck.every * ck.every
	// Advance every engine to the boundary: closes the same windows
	// the triggering event would close, and is idempotent for engines
	// shared by several statements.
	for _, st := range rt.stmts {
		st.src.eng.AdvanceTo(b)
	}
	ck.next = b + ck.every
	if err := rt.runCheckpoint(ck, b); err != nil && ck.onErr != nil {
		ck.onErr(err)
	}
}

// settleCheckpoint waits for the scheduled write in flight, if any, and
// reports a failure to onErr; rt.mu held.
func (rt *Runtime) settleCheckpoint() {
	if ck := rt.ck; ck != nil {
		if err := rt.awaitCheckpoint(ck); err != nil && ck.onErr != nil {
			ck.onErr(err)
		}
	}
}

// runCheckpoint takes one snapshot (scheduled boundary or manual) and
// hands it to the sink; rt.mu held. It returns once the write is
// started, or with the encode's error, and awaitCheckpoint reports the
// rest: write duration, snapshot bytes, the commit or fail trace.
// Timing and allocation here are fine — this is a boundary, not the
// steady per-event path (the alloc guard's measured windows avoid
// boundaries for exactly this reason).
func (rt *Runtime) runCheckpoint(ck *ckState, replayFrom event.Time) error {
	rt.fireTrace(TraceEvent{Kind: TraceCheckpointBegin, Boundary: replayFrom, Watermark: rt.watermark})
	start := time.Now()
	parts, err := rt.snapshotLocked(replayFrom)
	if err != nil {
		return rt.endCheckpoint(ck, replayFrom, 0, time.Since(start), 0, err)
	}
	ck.sink.Start(parts[:]...)
	ck.busy, ck.flight, ck.fBytes, ck.fEncode = true, replayFrom, int64(rt.ckSize), time.Since(start)
	return nil
}

// awaitCheckpoint waits for the write in flight, if any, and reports it;
// rt.mu held.
func (rt *Runtime) awaitCheckpoint(ck *ckState) error {
	if !ck.busy {
		return nil
	}
	ck.busy = false
	write, err := ck.sink.Wait()
	return rt.endCheckpoint(ck, ck.flight, ck.fBytes, ck.fEncode, write, err)
}

// endCheckpoint reports a finished write: metrics, the last-success
// fields and the commit or fail trace; it returns err. The write's
// duration is the encode's plus the sink's.
func (rt *Runtime) endCheckpoint(ck *ckState, replayFrom event.Time, n int64, encode, write time.Duration, err error) error {
	m := rt.met
	dur := encode + write
	if err != nil {
		m.ckFails.Inc()
		rt.fireTrace(TraceEvent{Kind: TraceCheckpointFail, Boundary: replayFrom, Watermark: rt.watermark, Dur: dur, Encode: encode, Err: err})
		return err
	}
	ck.lastDur = dur
	m.ckWrites.Inc()
	m.ckBytes.Add(uint64(n))
	m.ckLastBytes.Set(n)
	m.ckLastBoundary.Set(replayFrom)
	m.ckLastUnix.Set(nowNanos())
	m.ckDur.Observe(dur)
	rt.fireTrace(TraceEvent{Kind: TraceCheckpointCommit, Boundary: replayFrom, Watermark: rt.watermark, Bytes: n, Dur: dur, Encode: encode})
	return nil
}

// CheckpointNow persists an immediate snapshot with replayFrom =
// watermark+1 and returns once it is durable (or has failed), after the
// scheduled write in flight, if any. Unlike boundary checkpoints it
// does not advance engines, so the exactness contract is weaker: replay
// is exact when event timestamps strictly increase (or the caller
// quiesced at a timestamp boundary); otherwise events sharing the
// watermark timestamp that arrive after the snapshot are replayed into
// state that already contains their predecessors' windows closed. The
// scheduled path has no such caveat.
func (rt *Runtime) CheckpointNow() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.usable(); err != nil {
		return err
	}
	ck := rt.ck
	if ck == nil {
		return errors.New("greta: checkpointing is not configured")
	}
	rt.settleCheckpoint()
	if err := rt.runCheckpoint(ck, rt.watermark+1); err != nil {
		return err
	}
	return rt.awaitCheckpoint(ck)
}

// Plan returns the plan the statement registered with.
func (st *Stmt) Plan() *Plan { return st.srcPlan }

// ---------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------
//
// Every struct below is described once, by a function that walks its
// fields in file order over a checkpoint.Walker: encoding writes them,
// decoding fills them. What one direction alone does — drawing from a
// pool, validating a shape against the plan, interning an event — is a
// guarded line inside the walk. A walk that is entered after a failure
// does nothing (counts read as 0, presence flags as absent).

// ckWalk is one pass over a snapshot: the codec, the table the event
// references go through, the sorted-key scratch and the pane being
// walked.
type ckWalk struct {
	checkpoint.Walker
	tab    evTable
	wids   []int64
	states []int
	pn     *pane // the pane whose trees are walked
}

// evTable lists the events serialized state refers to (vertices, the
// reorder buffer's pending events) and their schemas. The runtime
// shares one *Event across all engines, so encoding interns by pointer,
// in first-encounter order while the body is walked; the table itself
// precedes the body in the file, so decoding has it when the body's
// references arrive.
type evTable struct {
	refs    map[*event.Event]uint32
	list    []*event.Event
	schRefs map[*event.Schema]uint32
	schemas []*event.Schema
}

// newEvTable returns an encoding table presized for n events.
func newEvTable(n int) evTable {
	return evTable{
		refs: make(map[*event.Event]uint32, n), list: make([]*event.Event, 0, n),
		schRefs: map[*event.Schema]uint32{},
	}
}

func (t *evTable) intern(ev *event.Event) uint32 {
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

// ref walks a reference to an event of the table.
func (t *evTable) ref(w *checkpoint.Walker, ev **event.Event) {
	var r uint32
	if w.Encoding() {
		r = t.intern(*ev)
	}
	if w.U32(&r); w.Decoding() {
		if int(r) >= len(t.list) {
			w.Corrupt("event ref %d out of range", r)
			return
		}
		*ev = t.list[r]
	}
}

func walkNames(w *checkpoint.Walker, names *[]string) {
	n := w.Len(len(*names), 4)
	if w.Decoding() && n > 0 {
		*names = make([]string, n)
	}
	for i := range *names {
		w.String(&(*names)[i])
	}
}

func (t *evTable) walkSchemas(w *checkpoint.Walker) {
	n := w.Len(len(t.schemas), 12)
	for i := 0; i < n && w.Err() == nil; i++ {
		if w.Decoding() {
			t.schemas = append(t.schemas, &event.Schema{})
		}
		s := t.schemas[i]
		w.String((*string)(&s.Type))
		walkNames(w, &s.Numeric)
		walkNames(w, &s.Strings)
	}
}

// walkEvents walks the attributes an event has, sorted by name, however
// it carries them: a map-free batch row writes the bytes its map-carried
// twin does, and decoding fills the maps and lets Bind rebuild the slots.
// A map-free bound event — every netstream event and batch row — is
// written straight from its slots in its schema's name order; one that
// carries maps asks AttrNames.
func (t *evTable) walkEvents(w *checkpoint.Walker) {
	n := w.Len(len(t.list), 26)
	var numBuf, strBuf [8]string // AttrNames' scratch, for events with few attributes
	nums, strs := numBuf[:0], strBuf[:0]
	var ord []int32
	if w.Encoding() {
		ord = t.slotOrders()
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		if w.Decoding() {
			t.list = append(t.list, &event.Event{})
		}
		ev := t.list[i]
		w.U64(&ev.ID)
		w.String((*string)(&ev.Type))
		w.I64(&ev.Time)
		var si uint32
		if ev.Sch != nil && w.Encoding() {
			si = t.schRefs[ev.Sch]
		}
		if w.Encoding() && len(ev.Attrs) == 0 && len(ev.Str) == 0 && ev.Sch != nil && ord[si] >= 0 {
			writeSlots(w, ev, ord[ord[si]:])
		} else {
			nums, strs = walkAttrs(w, ev, nums, strs)
		}
		bound := ev.Sch != nil
		if w.Bool(&bound); bound {
			if w.U32(&si); w.Decoding() {
				if int(si) >= len(t.schemas) {
					w.Corrupt("schema ref %d out of range", si)
					return
				}
				t.schemas[si].Bind(ev)
			}
		}
	}
}

// walkAttrs walks the attributes of an event that carries maps, or of
// any event being decoded: the names AttrNames lists (nums and strs are
// its scratch, returned for reuse), each read with Attr / StrAttr.
func walkAttrs(w *checkpoint.Walker, ev *event.Event, nums, strs []string) ([]string, []string) {
	if w.Encoding() {
		nums, strs = ev.AttrNames(nums, strs)
	}
	nn := w.Len(len(nums), 13)
	if w.Decoding() && nn > 0 {
		ev.Attrs = make(map[string]float64, nn)
	}
	for j := 0; j < nn; j++ {
		var k string
		var v float64
		if w.Encoding() {
			k = nums[j]
			v, _ = ev.Attr(k)
		}
		w.String(&k)
		if w.F64(&v); w.Decoding() {
			ev.Attrs[k] = v
		}
	}
	ns := w.Len(len(strs), 9)
	if w.Decoding() && ns > 0 {
		ev.Str = make(map[string]string, ns)
	}
	for j := 0; j < ns; j++ {
		var k, v string
		if w.Encoding() {
			k = strs[j]
			v, _ = ev.StrAttr(k)
		}
		w.String(&k)
		if w.String(&v); w.Decoding() {
			ev.Str[k] = v
		}
	}
	return nums, strs
}

// writeSlots encodes a map-free bound event's attributes as walkAttrs
// would, straight from its slots: run lists its schema's numeric, then
// string slot indexes in name order (slotOrders), and absent slots are
// skipped.
func writeSlots(w *checkpoint.Walker, ev *event.Event, run []int32) {
	sch := ev.Sch
	num, str := run[:len(sch.Numeric)], run[len(sch.Numeric):len(sch.Numeric)+len(sch.Strings)]
	n := 0
	for _, j := range num {
		if _, ok := slotNum(ev, j); ok {
			n++
		}
	}
	w.Len(n, 0)
	for _, j := range num {
		if v, ok := slotNum(ev, j); ok {
			w.String(&sch.Numeric[j])
			w.F64(&v)
		}
	}
	n = 0
	for _, j := range str {
		if _, ok := slotStr(ev, j); ok {
			n++
		}
	}
	w.Len(n, 0)
	for _, j := range str {
		if v, ok := slotStr(ev, j); ok {
			w.String(&sch.Strings[j])
			w.String(&v)
		}
	}
}

// slotNum returns numeric slot j of ev and whether it holds a value
// (not the NaN marker).
func slotNum(ev *event.Event, j int32) (float64, bool) {
	if int(j) < len(ev.Num) && !math.IsNaN(ev.Num[j]) {
		return ev.Num[j], true
	}
	return 0, false
}

// slotStr is slotNum for string slot j ("" marks absence).
func slotStr(ev *event.Event, j int32) (string, bool) {
	if int(j) < len(ev.StrV) && ev.StrV[j] != "" {
		return ev.StrV[j], true
	}
	return "", false
}

// slotOrders computes, once per snapshot, the order walkEvents writes a
// map-free event's slots in: for each schema of the table its numeric,
// then its string slot indexes, each sorted by name. ord[i] is where
// schema i's run starts, or -1 when the schema lists a name twice (its
// events take the AttrNames path, which merges the two).
func (t *evTable) slotOrders() []int32 {
	size := len(t.schemas)
	for _, sch := range t.schemas {
		size += len(sch.Numeric) + len(sch.Strings)
	}
	ord := make([]int32, len(t.schemas), size)
	for i, sch := range t.schemas {
		ord[i] = int32(len(ord))
		for _, names := range [2][]string{sch.Numeric, sch.Strings} {
			run := len(ord)
			for j := range names {
				ord = append(ord, int32(j))
			}
			idx := ord[run:]
			slices.SortFunc(idx, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
			for k := 1; k < len(idx); k++ {
				if names[idx[k]] == names[idx[k-1]] {
					ord[i] = -1
				}
			}
		}
	}
	return ord
}

// opt walks the presence byte in front of an optional value and reports
// whether the value follows; decoding allocates it.
func opt[T any](w *checkpoint.Walker, p **T) bool {
	has := *p != nil
	if w.Bool(&has); w.Decoding() && has && *p == nil {
		*p = new(T)
	}
	return has
}

// shape walks the presence byte in front of an exact-mode value that a
// payload's definition has (has) or has not, and reports whether the
// value follows. A decoded byte must agree with the definition.
func shape(w *checkpoint.Walker, has bool) bool {
	b := has
	if w.Bool(&b); w.Decoding() && b != has {
		w.Corrupt("exact-value shape mismatch")
	}
	return has
}

// walkPlanned walks a count the plan fixes, which a decoded one must
// equal.
func walkPlanned(w *checkpoint.Walker, want int, what string) {
	if n := w.Len(want, 1); w.Decoding() && n != want {
		w.Corrupt("snapshot has %d %s, the plan %d", n, what, want)
	}
}

func walkBigInt(w *checkpoint.Walker, x *big.Int) {
	sign := [3]uint8{2, 0, 1}[x.Sign()+1] // negative, zero, positive
	var mag []byte
	if w.Encoding() {
		mag = x.Bytes()
	}
	w.U8(&sign)
	if w.Bytes(&mag); w.Decoding() {
		switch sign {
		case 0:
			x.SetInt64(0)
		case 1:
			x.SetBytes(mag)
		case 2:
			x.SetBytes(mag)
			x.Neg(x)
		default:
			w.Corrupt("invalid big.Int sign byte %d", sign)
		}
	}
}

func walkBigFloat(w *checkpoint.Walker, x *big.Float) {
	var b []byte
	if w.Encoding() {
		var err error
		if b, err = x.GobEncode(); err != nil {
			w.Fail(err)
		}
	}
	if w.Bytes(&b); w.Decoding() {
		if err := x.GobDecode(b); err != nil {
			w.Corrupt("big.Float: %v", err)
		}
	}
}

// walkPayload walks a payload of def. The bytes describe their own
// shape — a slot count, and a flag in front of each exact-mode big value
// (the exact trend count, a COUNT(E) slot's integer, a SUM slot's float)
// — and a decoded one must be def's: the payload, a pool's or a block's
// or def.New's, is filled in place. No aggregation entry point is
// called, so restore has no stats side effects (GraphStats are restored
// wholesale).
func walkPayload(w *checkpoint.Walker, def *aggregate.Def, p *aggregate.Payload) {
	xcount, _ := def.Exact(p, len(def.Slots))
	w.U64(&p.Count)
	if shape(w, xcount != nil) {
		walkBigInt(w, xcount)
	}
	w.I64(&p.MaxStart)
	if n := w.Len(len(def.Slots), 10); w.Decoding() && n != len(def.Slots) {
		w.Corrupt("payload has %d slots, definition has %d", n, len(def.Slots))
		return
	}
	for i := 0; i < len(def.Slots) && w.Err() == nil; i++ {
		walkSlotVal(w, def.Slots[i].Kind, def.Val(p, i))
		x, xf := def.Exact(p, i)
		if shape(w, x != nil) {
			walkBigInt(w, x)
		}
		if shape(w, xf != nil) {
			walkBigFloat(w, xf)
		}
	}
}

// walkSlotVal walks a slot value of kind k as the pair (count, float):
// (v, 0) for a COUNT(E) slot, (0, v) for a SUM, MIN or MAX slot. A
// decoded pair must have a zero where its kind keeps none.
func walkSlotVal(w *checkpoint.Walker, k aggregate.SlotKind, v *aggregate.SlotVal) {
	var (
		n uint64
		f float64
	)
	if k == aggregate.SlotCountE {
		n = v.N()
	} else {
		f = v.F()
	}
	w.U64(&n)
	if w.F64(&f); !w.Decoding() {
		return
	}
	switch {
	case k == aggregate.SlotCountE && math.Float64bits(f) != 0:
		w.Corrupt("%v slot holds a float value", k)
	case k != aggregate.SlotCountE && n != 0:
		w.Corrupt("%v slot holds a count", k)
	case k == aggregate.SlotCountE:
		v.SetN(n)
	default:
		v.SetF(f)
	}
}

// skipPayload reads past one payload in walkPayload's layout without a
// definition to check it against.
func skipPayload(w *checkpoint.Walker) {
	var (
		u  uint64
		f  float64
		x  big.Int
		xf big.Float
		b  bool
	)
	w.U64(&u)
	if w.Bool(&b); b {
		walkBigInt(w, &x)
	}
	w.U64(&u)
	for i, n := 0, w.Len(0, 10); i < n && w.Err() == nil; i++ {
		w.U64(&u)
		w.F64(&f)
		if w.Bool(&b); b {
			walkBigInt(w, &x)
		}
		if w.Bool(&b); b {
			walkBigFloat(w, &xf)
		}
	}
}

// walkResults walks a delivery record's results, their payloads of def.
// Decoding with a nil def reads past the payloads and leaves them nil; a
// record encoded with a nil def must list no payload.
func walkResults(w *checkpoint.Walker, def *aggregate.Def, rs *[]Result) {
	n := w.Len(len(*rs), 41)
	if w.Decoding() && n > 0 {
		*rs = make([]Result, n)
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		r := &(*rs)[i]
		w.String(&r.Group)
		w.I64(&r.Wid)
		w.I64(&r.WindowStart)
		w.I64(&r.WindowEnd)
		nv := w.Len(len(r.Values), 8)
		if w.Decoding() && nv > 0 {
			r.Values = make([]float64, nv)
		}
		for j := range r.Values {
			w.F64(&r.Values[j])
		}
		has := r.Payload != nil
		switch w.Bool(&has); {
		case has && def == nil:
			skipPayload(w)
		case has:
			if w.Decoding() {
				r.Payload = def.New()
			}
			walkPayload(w, def, r.Payload)
		}
		at := r.Emitted.UnixNano()
		if w.I64(&at); w.Decoding() {
			r.Emitted = time.Unix(0, at)
		}
	}
}

// walkPooled walks an optional payload of g's definition; decoding
// draws it from the pool.
func (g *Graph) walkPooled(w *checkpoint.Walker, p **aggregate.Payload) {
	has := *p != nil
	if w.Bool(&has); !has {
		return
	}
	if w.Decoding() {
		*p = g.cs.pool.Get()
	}
	walkPayload(w, g.def, *p)
}

func (g *Graph) walkSum(w *checkpoint.Walker, s *vertexSum) {
	w.I64(&s.agg.FirstWid)
	n := w.Len(len(s.agg.Sums), 1)
	if w.Decoding() && n > 0 {
		s.agg.Sums = make([]*aggregate.Payload, n)
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		g.walkPooled(w, &s.agg.Sums[i])
	}
	nl := w.Len(len(s.agg.Last), 4)
	if w.Decoding() {
		if nl != n {
			w.Corrupt("summary Last length %d != window count %d", nl, n)
			return
		}
		s.agg.Last = make([]uint32, nl)
	}
	for i := 0; i < nl; i++ {
		w.U32(&s.agg.Last[i])
	}
	w.U32(&s.agg.N)
	w.F64(&s.minKey)
	w.F64(&s.maxKey)
	w.I64(&s.minTime)
	w.I64(&s.maxTime)
	w.U64(&s.wmVer)
	w.U32(&s.fallback)
	w.Bool(&s.bad)
}

// walkVertex walks one vertex of state in pane c.pn. Decoding draws it
// from the pool once the fixed fields are read: the window count that
// sizes it is the last of them. The event's time must lie in the pane,
// and the first window and the count must be the ones the time falls
// into — what insertAt gives every vertex.
func (g *Graph) walkVertex(c *ckWalk, state int, pv **Vertex) {
	var ev *event.Event
	var firstWid int64
	var closed bool
	k := 0
	if c.Encoding() {
		v := *pv
		ev, firstWid, closed, k = v.Ev, c.pn.firstWid, v.closed, len(v.Aggs)
	}
	c.tab.ref(&c.Walker, &ev)
	c.I64(&firstWid)
	c.Bool(&closed)
	if k = c.Len(k, 1); c.Decoding() {
		if ev.Time < c.pn.start || ev.Time >= c.pn.end {
			c.Corrupt("vertex at time %d in pane [%d, %d)", ev.Time, c.pn.start, c.pn.end)
			return
		}
		if lo, hi := g.win.Wids(ev.Time); firstWid != lo || int64(k) != hi-lo+1 {
			c.Corrupt("vertex at time %d has windows %d+%d, its time falls into %d+%d", ev.Time, firstWid, k, lo, hi-lo+1)
			return
		}
		v := g.getVertex(k)
		v.Ev, v.Time, v.State, v.closed = ev, ev.Time, int32(state), closed
		*pv = v
	}
	for i := 0; i < k && c.Err() == nil; i++ {
		v := *pv
		has := v.Present.Has(i)
		if c.Bool(&has); !has {
			continue
		}
		if c.Decoding() {
			v.Present.Set(i)
		}
		walkPayload(&c.Walker, g.def, &v.Aggs[i])
	}
}

// walkNode walks one Vertex Tree node: its items, its child count and
// (augmented trees only) its subtree summary. A decoded item's key must
// be the one this plan sorts the state by, bit for bit: a snapshot
// taken under another plan is refused, not folded over in the wrong
// order.
func (g *Graph) walkNode(c *ckWalk, state int, augmented bool, items *[]vitem, sum **vertexSum, children *int) {
	n := c.Len(len(*items), 22)
	if c.Decoding() {
		*items = make([]vitem, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		it := &(*items)[i]
		c.F64(&it.Key)
		if g.walkVertex(c, state, &it.Val); c.Decoding() {
			it.ID = it.Val.Ev.ID
			want, genuine := g.sortKey(state, it.Val.Ev)
			it.Val.fallback = !genuine
			if math.Float64bits(it.Key) != math.Float64bits(want) {
				c.Corrupt("plan mismatch: state %d item keyed %v, the plan's sort attribute reads %v", state, it.Key, want)
			}
		}
	}
	nc := uint32(*children)
	if c.U32(&nc); c.Decoding() {
		*children = int(nc)
	}
	if augmented && opt(&c.Walker, sum) {
		g.walkSum(&c.Walker, *sum)
	}
}

// walkTree walks the exact node structure pre-order behind its node
// count. Serializing structure rather than re-inserting on restore is
// what keeps summary float folds, tree shape, and rebuild counters
// bit-identical to the uninterrupted run.
func (g *Graph) walkTree(c *ckWalk, state int, augmented bool, tr **vtree) {
	nodes := 0
	if c.Encoding() {
		(*tr).DumpNodes(func([]vitem, *vertexSum, int) bool { nodes++; return true })
	}
	nodes = c.Len(nodes, 8)
	if c.Encoding() {
		(*tr).DumpNodes(func(items []vitem, sum *vertexSum, children int) bool {
			g.walkNode(c, state, augmented, &items, &sum, &children)
			return true
		})
		return
	}
	var aug btree.Summarizer[*Vertex, *vertexSum]
	if augmented {
		aug = g.cs.augs[state]
	}
	if *tr = btree.NewAugmented(&g.cs.nodeFree, aug); nodes == 0 {
		return
	}
	seen := 0
	t, err := btree.BuildNodes(&g.cs.nodeFree, aug, func() (items []vitem, sum *vertexSum, children int, _ error) {
		if seen++; seen > nodes {
			c.Corrupt("tree has more nodes than the %d declared", nodes)
		}
		g.walkNode(c, state, augmented, &items, &sum, &children)
		return items, sum, children, c.Err()
	})
	if err == nil && seen != nodes {
		c.Corrupt("tree has %d nodes, %d declared", seen, nodes)
	} else if err != nil {
		c.Corrupt("%v", err)
	}
	*tr = t
}

// walkWidTimes walks an invalidation watermark per window, in ascending
// wid order.
func walkWidTimes(c *ckWalk, m map[int64]int64) {
	if c.Encoding() {
		c.wids = c.wids[:0]
		for wid := range m {
			c.wids = append(c.wids, wid)
		}
		slices.Sort(c.wids)
	}
	for i, n := 0, c.Len(len(c.wids), 16); i < n; i++ {
		var wid, t int64
		if c.Encoding() {
			wid = c.wids[i]
			t = m[wid]
		}
		c.I64(&wid)
		if c.I64(&t); c.Decoding() {
			m[wid] = t
		}
	}
}

// walkFinals walks finals as two sections: the windows with an
// incremental final and each one's payload, then every window with an END
// vertex. Both list wids strictly ascending, and a decoded section must
// too.
func (g *Graph) walkFinals(c *ckWalk) {
	incremental := 0
	for _, f := range g.finals {
		if f.p != nil {
			incremental++
		}
	}
	j := 0
	for i, n := 0, c.Len(incremental, 9); i < n && c.Err() == nil; i++ {
		var f final
		if c.Encoding() {
			for g.finals[j].p == nil {
				j++
			}
			f, j = g.finals[j], j+1
		}
		if c.I64(&f.wid); c.Decoding() {
			if k := len(g.finals); k > 0 && f.wid <= g.finals[k-1].wid {
				c.Corrupt("final of window %d follows window %d", f.wid, g.finals[k-1].wid)
				return
			}
			f.p = g.cs.pool.Get()
			g.finals = append(g.finals, f)
		}
		if f.p != nil { // nil once a decode failed
			walkPayload(&c.Walker, g.def, f.p)
		}
	}
	j = 0
	for i, n := 0, c.Len(len(g.finals), 8); i < n && c.Err() == nil; i++ {
		var wid int64
		if c.Encoding() {
			wid = g.finals[i].wid
		}
		if c.I64(&wid); !c.Decoding() {
			continue
		}
		if i > 0 && wid <= g.finals[j-1].wid { // j-1: the previous wid's entry
			c.Corrupt("window %d with an END vertex follows window %d", wid, g.finals[j-1].wid)
			return
		}
		for j < len(g.finals) && g.finals[j].wid < wid {
			j++
		}
		if j == len(g.finals) || g.finals[j].wid != wid {
			g.finals = slices.Insert(g.finals, j, final{wid: wid})
		}
		j++
	}
}

func (g *Graph) walk(c *ckWalk) {
	st := &g.stats
	c.U64(&st.Events)
	c.U64(&st.Vertices)
	c.U64(&st.Inserted)
	c.U64(&st.Edges)
	c.U64(&st.Payloads)
	c.U64(&st.ScanVisits)
	c.U64(&st.SummaryFolds)
	c.U64(&st.SummaryRebuilds)
	c.I64(&g.prevTime)
	c.U64(&g.lastEventID)
	c.U64(&g.wmVer)

	g.walkFinals(c)

	walkPlanned(&c.Walker, len(g.deps), "dependency links")
	for _, l := range g.deps {
		np := c.Len(len(l.pending), 16)
		if c.Decoding() {
			l.pending = make([]invalRecord, np)
		}
		for i := 0; i < np && c.Err() == nil; i++ {
			rec := &l.pending[i]
			c.I64(&rec.end)
			c.I64(&rec.firstWid)
			ns := c.Len(len(rec.starts), 8)
			if c.Decoding() && ns > 0 {
				rec.starts = make([]int64, ns)
			}
			for j := range rec.starts {
				c.I64(&rec.starts[j])
			}
		}
		walkWidTimes(c, l.maxStart)
		walkWidTimes(c, l.minEnd)
	}

	np := c.Len(len(g.panes), 12)
	for i := 0; i < np && c.Err() == nil; i++ {
		if c.Decoding() {
			g.panes = append(g.panes, &pane{trees: make([]*vtree, len(g.spec.Tmpl.States))})
		}
		pn := g.panes[i]
		if c.I64(&pn.idx); c.Decoding() {
			if i > 0 && pn.idx <= g.panes[i-1].idx {
				c.Corrupt("pane indices not strictly increasing")
				return
			}
			g.place(pn, pn.idx)
		}
		c.pn = pn
		if c.Encoding() {
			c.states = c.states[:0]
			for state, tr := range pn.trees {
				if tr != nil {
					c.states = append(c.states, state)
				}
			}
		}
		nt := c.Len(len(c.states), 6)
		for j := 0; j < nt && c.Err() == nil; j++ {
			var state uint32
			var tr *vtree
			var augmented bool
			if c.Encoding() {
				state = uint32(c.states[j])
				tr = pn.trees[c.states[j]]
				augmented = tr.Augmented()
			}
			c.U32(&state)
			if c.Bool(&augmented); c.Decoding() {
				if int(state) >= len(g.cs.augs) {
					c.Corrupt("tree state %d out of range", state)
				} else if pn.trees[int(state)] != nil {
					c.Corrupt("duplicate tree for state %d", state)
				} else if want := g.cs.augs[state] != nil && !g.forceScan; augmented != want {
					c.Corrupt("tree augmentation mismatch for state %d", state)
				}
			}
			if c.Err() != nil {
				return
			}
			if g.walkTree(c, int(state), augmented, &tr); c.Decoding() {
				pn.trees[int(state)] = tr
				pn.vertices += tr.Len()
			}
		}
	}
}

// walkPartKey walks a partition key; a decoded one has want attributes.
func walkPartKey(w *checkpoint.Walker, pk *partKey, want int) {
	n := w.Len(len(*pk), 1)
	if w.Decoding() {
		if n != want {
			w.Corrupt("partition key has %d attributes, plan has %d", n, want)
			return
		}
		*pk = make(partKey, n)
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		a := &(*pk)[i]
		switch w.U8(&a.kind); a.kind {
		case pkMissing:
		case pkNum:
			w.U64(&a.num)
		case pkStr:
			w.String(&a.str)
		default:
			w.Corrupt("invalid partition key kind %d", a.kind)
		}
	}
}

// walk walks the engine behind its emission count and results: its own, or
// — a source's engine outside a union — its one subscriber's delivery record.
func (e *Engine) walk(c *ckWalk, count *int, results *[]Result) {
	simple := e.plan.Simple()
	if c.Bool(&simple); c.Decoding() && simple != e.plan.Simple() {
		c.Corrupt("engine shape mismatch (checkpointed plan differs)")
		return
	}
	c.I64(&e.prevTime)
	if c.Decoding() {
		e.floor = math.MinInt64 // restored vertices may predate the restore's watermark
	}
	s := &e.stats
	c.U64(&s.Events)
	c.U64(&s.OutOfOrder)
	c.U64(&s.Inserted)
	c.U64(&s.Edges)
	c.U64(&s.ScanVisits)
	c.U64(&s.SummaryFolds)
	c.U64(&s.SummaryRebuilds)
	c.U64(&s.PeakVertices)
	c.U64(&s.PeakPayloads)
	c.Int(&s.Partitions)
	c.Int(count)
	walkResults(&c.Walker, e.plan.Def(), results)
	if simple {
		parts := e.parts.all()
		np := c.Len(len(parts), 8)
		for i := 0; i < np && c.Err() == nil; i++ {
			p := new(partition)
			if c.Encoding() {
				p = parts[i]
			}
			c.String(&p.key)
			if walkPartKey(&c.Walker, &p.pk, len(e.partAttrs)); c.Decoding() {
				p = e.parts.add(p.pk.hash(), p.key, p.pk)
			}
			for _, g := range p.graphs {
				g.walk(c)
			}
		}
		return
	}
	// Branches, then products (a composite plan has at least one), each
	// run behind its count. The merger has no section: it is empty
	// whenever a snapshot can be taken (Engine.closeUpTo).
	walkPlanned(&c.Walker, e.branches, "branches")
	for slot, se := range e.subs {
		if slot == e.branches {
			walkPlanned(&c.Walker, len(e.subs)-slot, "products")
		}
		if se.walk(c, &se.emitted, &se.results); c.Decoding() {
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
}

// ckHeader leads the file: the version word, the replay bound, the
// armed interval (0 if none — e.g. a body encoded without a schedule),
// the runtime's cursors and the opaque session-meta blob.
type ckHeader struct {
	replayFrom, every, watermark event.Time
	nextID                       int
	meta                         []byte
}

func (h *ckHeader) walk(w *checkpoint.Walker) {
	v := uint32(ckVersion)
	if w.U32(&v); w.Decoding() && v != ckVersion {
		w.Corrupt("unsupported checkpoint version %d", v)
	}
	w.I64(&h.replayFrom)
	w.I64(&h.every)
	w.I64(&h.watermark)
	w.Int(&h.nextID)
	w.Bytes(&h.meta)
}

// stmtRec is one statement's record: how to register it again, and what
// it has delivered, its results following the record. The subscribers of
// a union source say which (entry >= 0, numbered in first-subscriber
// order), and the entries' engines are written after the statements. Any
// other statement (entry -1) lists no results and is followed by its
// source's engine, and what it has delivered is written there — where an
// engine's own emission count and retained results go.
type stmtRec struct {
	id, query               string
	mode                    uint8
	force, shared, noRetain bool
	entry                   int64
	resultCount             int
	results                 []Result
}

func (r *stmtRec) walk(w *checkpoint.Walker) {
	w.String(&r.id)
	w.String(&r.query)
	w.U8(&r.mode)
	w.Bool(&r.force)
	w.Bool(&r.shared)
	w.Bool(&r.noRetain)
	w.I64(&r.entry)
	w.Int(&r.resultCount)
}

// walkReorder walks the reorder section: the disorder window travels
// with the snapshot, its pending events interned in the event table
// like any vertex reference, in canonical release order (time,
// arrival). nil is a runtime without a buffer.
func (c *ckWalk) walkReorder(s **reorder.Snapshot) {
	if !opt(&c.Walker, s) {
		return
	}
	sn := *s
	c.I64(&sn.Slack)
	c.I64(&sn.MaxSeen)
	c.I64(&sn.Released)
	c.U64(&sn.Dropped)
	n := c.Len(len(sn.Pending), 4)
	if c.Decoding() {
		if sn.Slack <= 0 {
			c.Corrupt("reorder section with non-positive slack %d", sn.Slack)
		}
		sn.Pending = make([]*event.Event, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		c.tab.ref(&c.Walker, &sn.Pending[i])
	}
}

// ckSpare is the storage a snapshot encodes into: the body's slice, the
// event table and the reorder section's pending list. The runtime holds
// the last one only weakly (Runtime.spare), so it costs nothing once a
// collection has reclaimed it.
type ckSpare struct {
	buf     []byte
	tab     evTable
	pending []*event.Event
}

// takeSpare returns the storage the next snapshot encodes into: the last
// snapshot's, unless the collector has reclaimed it or a write still
// holds its bytes (the parts are the sink's until Wait), and otherwise
// new storage sized from the last snapshot; rt.mu held.
func (rt *Runtime) takeSpare() *ckSpare {
	if sp := rt.spare.Value(); sp != nil && (rt.ck == nil || !rt.ck.busy) {
		return sp
	}
	return &ckSpare{buf: make([]byte, 0, rt.ckSize+rt.ckSize/8), tab: newEvTable(rt.ckEvents)}
}

// keepSpare hands the storage a snapshot encoded into back for the next
// one, its table and pending list cleared so that it refers to no event;
// rt.mu held.
func (rt *Runtime) keepSpare(sp *ckSpare) {
	t := &sp.tab
	clear(t.refs)
	clear(t.schRefs)
	clear(t.list)
	clear(t.schemas)
	clear(sp.pending)
	sp.buf, sp.pending, t.list, t.schemas = sp.buf[:0], sp.pending[:0], t.list[:0], t.schemas[:0]
	rt.spare = weak.Make(sp)
}

// snapshotLocked serializes the full recoverable runtime state; rt.mu
// held. The statement/entry body is walked first, so event references
// are assigned before the header and event table are walked behind it
// in the same slice — the spare's (takeSpare), as are the event table
// and pending list — and the two runs are returned in file order:
// header and table, then body.
func (rt *Runtime) snapshotLocked(replayFrom event.Time) ([2][]byte, error) {
	sp := rt.takeSpare()
	c := ckWalk{Walker: checkpoint.Encode(sp.buf), tab: sp.tab}

	var entries []*source
	c.Len(len(rt.stmts), 1)
	for _, st := range rt.stmts {
		src := st.src
		rec := stmtRec{
			id: st.id, query: st.srcPlan.Query.String(), mode: uint8(st.srcPlan.Mode),
			force: src.force, shared: src.key != "", noRetain: st.noRetain, entry: -1,
		}
		n, rs, _ := st.record()
		if !src.union {
			rec.walk(&c.Walker)
			walkResults(&c.Walker, nil, &rec.results)
			src.eng.walk(&c, &n, &rs)
			continue
		}
		if rec.entry = int64(slices.Index(entries, src)); rec.entry < 0 {
			rec.entry = int64(len(entries))
			entries = append(entries, src)
		}
		rec.resultCount, rec.results = n, rs
		rec.walk(&c.Walker)
		walkResults(&c.Walker, src.eng.plan.Def(), &rec.results)
	}
	c.Len(len(entries), 5)
	for _, src := range entries {
		n := uint32(len(src.subs))
		c.U32(&n)
		src.eng.walk(&c, &src.eng.emitted, &src.eng.results)
	}
	var snap *reorder.Snapshot
	pending := sp.pending
	if rt.reorder != nil {
		// A release in flight (popped from the buffer, not yet applied — it
		// is what fired this boundary) leads the pending list: it is first
		// in release order and would otherwise vanish from both replay modes.
		if rt.inflight != nil {
			pending = append(pending, rt.inflight)
		}
		snap = rt.reorder.Snapshot(pending)
		pending = snap.Pending
	}
	c.walkReorder(&snap)

	body := len(c.Out())
	h := ckHeader{replayFrom: replayFrom, watermark: rt.watermark, nextID: rt.nextID}
	if rt.ck != nil {
		h.every = rt.ck.every
	}
	if rt.ckMeta != nil {
		h.meta = rt.ckMeta(rt.batch.rows, rt.batch.accepted)
	}
	h.walk(&c.Walker)
	c.tab.walkSchemas(&c.Walker)
	c.tab.walkEvents(&c.Walker)
	buf, events := c.Out(), len(c.tab.list)
	sp.buf, sp.tab, sp.pending = buf, c.tab, pending
	rt.keepSpare(sp)
	if err := c.Err(); err != nil {
		return [2][]byte{}, err
	}
	rt.ckSize, rt.ckEvents = len(buf), events
	return [2][]byte{buf[body:], buf[:body]}, nil
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
}

// RestoreRuntime rebuilds a Runtime from checkpoint body bytes (as
// returned by checkpoint.Store.Load). It returns the runtime and the
// replay bound: feeding every original event with Time >=
// info.ReplayFrom reproduces the uninterrupted run bit for bit.
// Statement plans are recompiled from their canonical query text and
// subscribe in their original order, so union payload slot layouts
// match; result callbacks are not restored (re-register them via
// Stmt.OnResult). opts configure the runtime as NewRuntime's do (an
// invalid one panics), and a WithCheckpoint schedule resumes at
// info.ReplayFrom. Corrupt input — a
// snapshot taken under a plan this build would not choose included —
// yields an error wrapping checkpoint.ErrCorrupt, never a panic.
func RestoreRuntime(data []byte, opts ...Option) (*Runtime, RestoreInfo, error) {
	c := ckWalk{Walker: checkpoint.Decode(data)}
	var h ckHeader
	h.walk(&c.Walker)
	c.tab.walkSchemas(&c.Walker)
	c.tab.walkEvents(&c.Walker)

	rt := newRuntime(opts, &h)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	info, err := rt.restoreLocked(&c, &h)
	if err != nil {
		return nil, RestoreInfo{}, err
	}
	return rt, info, nil
}

// restoreLocked rebuilds a fresh runtime's statements, sources and
// reorder buffer from the body c stands at, behind header h; rt.mu held.
// Statements subscribe through the routine Register uses, in recorded
// order, so a union's slot layout is the one the snapshot was taken
// under.
func (rt *Runtime) restoreLocked(c *ckWalk, h *ckHeader) (RestoreInfo, error) {
	info := RestoreInfo{ReplayFrom: h.replayFrom, Every: h.every, Meta: h.meta}
	rt.watermark = h.watermark
	var entries []*source
	// A union subscriber's results are payloads of the union's definition,
	// which is final once its last subscriber is in: they are read past
	// here and read again, from where they start, after the statements.
	type unionResults struct {
		st *Stmt
		at checkpoint.Walker
	}
	var unions []unionResults
	for i, n := 0, c.Len(0, 1); i < n && c.Err() == nil; i++ {
		var rec stmtRec
		rec.walk(&c.Walker)
		at := c.Walker
		if walkResults(&c.Walker, nil, &rec.results); c.Err() != nil {
			break
		}
		_, plan, err := Compile(rec.query, rec.mode == uint8(aggregate.ModeExact))
		if err != nil {
			return info, fmt.Errorf("checkpoint: statement %q: %w", rec.id, err)
		}
		cfg := StmtConfig{ID: rec.id, ForceVertexScan: rec.force, Share: rec.shared, NoRetain: rec.noRetain}
		key := shareKey(plan, cfg)
		var into *source
		switch ref := rec.entry; {
		case ref > int64(len(entries)):
			c.Corrupt("entry ref %d out of order", ref)
		case ref >= 0 && key == "":
			c.Corrupt("statement %q subscribes to an entry and cannot share", rec.id)
		case ref >= 0 && ref < int64(len(entries)):
			if into = entries[ref]; into.key != key {
				c.Corrupt("statement %q does not form the trends of entry %d", rec.id, ref)
			}
		}
		if c.Err() != nil {
			break
		}
		st, err := rt.subscribe(into, key, plan, cfg)
		if err == nil && rec.entry == int64(len(entries)) {
			// The first recorded subscriber of a union, alone if it shrank.
			entries = append(entries, st.src)
			err = st.src.unite()
		}
		if err != nil {
			return info, fmt.Errorf("checkpoint: statement %q: %w", rec.id, err)
		}
		if rec.entry < 0 {
			st.src.eng.walk(c, &rec.resultCount, &rec.results)
		} else {
			unions = append(unions, unionResults{st, at})
		}
		if rec.resultCount < len(rec.results) {
			c.Corrupt("statement %q counts %d deliveries and lists %d", rec.id, rec.resultCount, len(rec.results))
		}
		st.base, st.results = rec.resultCount-len(rec.results), rec.results
	}
	for _, u := range unions {
		if c.Err() != nil {
			break
		}
		walkResults(&u.at, u.st.Def(), &u.st.results)
		c.Fail(u.at.Err())
	}

	if n := c.Len(0, 5); c.Decoding() && n != len(entries) {
		c.Corrupt("entry count %d != %d referenced", n, len(entries))
	}
	for _, src := range entries {
		var n uint32
		if c.U32(&n); c.Decoding() && int(n) != len(src.subs) {
			c.Corrupt("entry has %d subscribers, %d statements reference it", n, len(src.subs))
		}
		src.eng.walk(c, &src.eng.emitted, &src.eng.results)
	}

	var snap *reorder.Snapshot
	if c.walkReorder(&snap); c.Decoding() && c.Remaining() != 0 {
		c.Corrupt("%d trailing bytes after checkpoint body", c.Remaining())
	}
	if err := c.Err(); err != nil {
		return info, err
	}
	if snap != nil {
		rt.reorder = reorder.Restore(snap, rt.applyReleased)
		if len(snap.Pending) > 0 {
			rt.replayDedup = make(map[uint64]struct{}, len(snap.Pending))
			for _, ev := range snap.Pending {
				rt.replayDedup[ev.ID] = struct{}{}
			}
		}
	}
	rt.nextID = h.nextID
	if meta := h.meta; meta != nil {
		// Re-encoding a restored runtime without a fresh provider keeps
		// the snapshot's blob (round-trip identity); the serving layer
		// overwrites it via SetCheckpointMeta once the session rebinds.
		rt.ckMeta = func(int, int) []byte { return meta }
	}
	// Restored graphs are warm by definition: a new epoch, so none of
	// them accepts new subscribers.
	rt.epoch++
	return info, nil
}
