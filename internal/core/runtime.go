package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"strings"
	"sync"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/obs"
	"github.com/greta-cep/greta/internal/reorder"
)

// Sentinel errors returned by Runtime operations.
var (
	// ErrClosed reports an operation on a closed runtime.
	ErrClosed = errors.New("greta: runtime closed")
	// ErrOutOfOrder reports an event older than the runtime watermark;
	// the event was counted and dropped for every registered statement
	// (paper §2 delegates out-of-order repair upstream).
	ErrOutOfOrder = errors.New("greta: out-of-order event dropped")
	// ErrStatementClosed reports an operation on a closed statement.
	ErrStatementClosed = errors.New("greta: statement closed")
	// ErrRunning reports a registration attempt while RunParallel owns
	// the runtime.
	ErrRunning = errors.New("greta: runtime is running in parallel mode")
)

// NewHandle wraps a statement in greta's Handle. Package greta sets it at
// init, so the cluster coordinator hands out the type a Runtime does.
var NewHandle func(*Stmt) any

// OrderError is the structured form of an out-of-order drop: the
// offending event's timestamp and the watermark it violated (the
// runtime watermark, or the reorder horizon when slack is armed).
// errors.Is(err, ErrOutOfOrder) matches it, so existing callers keep
// working; errors.As extracts the diagnostics.
type OrderError struct {
	EventTime event.Time
	Watermark event.Time
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("greta: out-of-order event dropped: event time %d < watermark %d",
		e.EventTime, e.Watermark)
}

func (e *OrderError) Unwrap() error { return ErrOutOfOrder }

// Runtime is a long-lived multi-query GRETA host: one shared ingest
// path feeding any number of registered statements. Each event is
// schema-bound upstream, hashed once per distinct partition-attribute
// signature, and fanned out to every registered statement's
// partitions. Statements can be registered and closed at any point
// mid-stream; a statement registered at watermark T sees only events
// at or after T.
//
// Process, Register, Close, and statement Close are safe to call from
// different goroutines (a mutex serializes them); Process itself must
// be called from one goroutine at a time for the in-order invariant to
// be meaningful.
type Runtime struct {
	mu        sync.Mutex
	closed    bool
	running   bool // RunParallel owns the stream
	watermark event.Time

	// groups deduplicate the per-event routing hash: sources whose
	// plans share a partition-attribute signature share one FNV-1a
	// computation (the shared-node idiom of multi-query CEP engines,
	// applied to the ingest path). A group leaves with its last member.
	groups []*routeGroup
	// direct holds the sources of composite plans
	// (disjunction/conjunction, §9), whose sub-engines route internally.
	direct []*source
	stmts  []*Stmt // all live statements, registration order

	// shared maps a sharing key to the source registered under it last,
	// and epoch counts ingested events: a source takes new subscribers
	// only in the epoch it was created in, while its graph is provably
	// cold (see share.go).
	shared map[string]*source
	epoch  uint64

	nextID int

	// fan sweeps a batch segment's route-group sources on several
	// goroutines (batch.go); between segments it holds only scratch.
	fan segFan

	// ck is the armed checkpoint schedule, nil when checkpointing is
	// off (see checkpoint.go). The trigger in process is two loads and
	// a compare — nothing on the steady path allocates or syscalls.
	ck *ckState

	// reorder, when non-nil, buffers bounded out-of-order arrivals
	// (SetReorderSlack): Process feeds the buffer, released events flow
	// through applyLocked in time order, and registrations, statement
	// closes, and Runtime.Close act as barriers. Events behind the
	// buffer's horizon are dropped with an OrderError before touching
	// any engine.
	reorder *reorder.Buffer
	// inflight is the released event currently being applied (set only
	// inside a reorder drain): it has been popped from the buffer but
	// has not touched the engines, so a checkpoint fired by its own
	// boundary crossing must still persist it — it leads the snapshot's
	// pending list, first in release order.
	inflight *event.Event
	// replayDedup holds the IDs of events that were pending in the
	// reorder buffer when the restored checkpoint was written: they are
	// already re-buffered, so a time-based replay feeding them again
	// skips them once. Empties itself; nil on non-restored runtimes.
	replayDedup map[uint64]struct{}

	// ckMeta supplies the opaque session-meta blob embedded in each
	// checkpoint header (SetCheckpointMeta); nil writes an empty blob.
	ckMeta func() []byte
	// ckSize is the last snapshot's length: it sizes the next one's slice
	// once, and nothing snapshot-sized is held in between.
	ckSize int

	// parDebug captures streaming-merge instrumentation from the last
	// RunParallel, read from its merger (test hook).
	parDebug *parallelDebug

	// met holds the hot-path metric cells (armed by default; nil after
	// DisableMetrics). Every touch on the ingest path is a nil-check
	// plus a plain atomic — see metrics.go for the 0-alloc contract.
	met    *rtMetrics
	obsReg *obs.Registry
	// trace is the lifecycle hook (SetTraceHook); fires under rt.mu on
	// lifecycle paths only, never per event.
	trace func(TraceEvent)
}

// routeGroup is one distinct partition-attribute signature and the
// sources sharing it.
type routeGroup struct {
	sig     string
	acc     []event.Accessor
	members []*source
}

// Stmt is one registered statement: a subscriber of the source whose
// graph serves it (share.go), its lifecycle state inside a Runtime, and
// the one record of what it was handed.
type Stmt struct {
	rt  *Runtime
	id  string
	src *source

	// srcPlan is the plan the statement registered with; outs maps its
	// RETURN clause into the payload of a union source (nil otherwise).
	srcPlan *Plan
	outs    []aggregate.SpecSlot

	// The delivery record (doc.go), behind mu: results holds deliveries
	// base, base+1, … in emission order; cursors counts a noRetain
	// statement's live readers. closed is written with rt.mu held too, so
	// lifecycle code reads it under either lock.
	mu       sync.Mutex
	more     sync.Cond // a delivery, or the close; L is &mu
	results  []Result
	base     int
	noRetain bool
	cursors  int
	onRes    func(Result)
	closed   bool

	// frozen is the stats snapshot taken when the statement detached from
	// a source that runs on for its other subscribers.
	frozen *Stats

	// onClose, when set, is Close: it is handed the local close.
	onClose func(closeLocal func() error) error
}

// tailMax bounds what a NoRetain statement holds for its live cursors — the
// mode's contract is bounded memory: a reader further behind loses the oldest.
const tailMax = 4096

// newRuntime builds an empty runtime without metric cells — all a
// ShardHost needs: events bypass its runtime's ingest path, so nothing
// would ever move or scrape them.
func newRuntime() *Runtime {
	return &Runtime{watermark: -1, shared: map[string]*source{}}
}

// NewRuntime builds an empty runtime. Metrics are armed from birth:
// the cells exist before the first event, so arming costs nothing on
// the hot path beyond the atomics themselves.
func NewRuntime() *Runtime {
	rt := newRuntime()
	rt.obsReg = obs.NewRegistry()
	rt.met = newRTMetrics(rt.obsReg)
	rt.registerCollector()
	return rt
}

// StmtConfig carries per-registration options.
type StmtConfig struct {
	// ID names the statement (result tagging); empty picks "q<n>".
	ID string
	// ForceVertexScan disables the summary fast path (differential
	// tests and debugging). Part of the sharing signature: forced and
	// folding statements never share a graph.
	ForceVertexScan bool
	// Share enters the statement into the shared sub-plan network:
	// statements whose trend-formation signatures match (pattern,
	// predicates, window, partition-by, semantics, mode — everything
	// but the RETURN aggregates) are served by one shared graph.
	Share bool
	// NoRetain drops results after delivery (OnResult callback and the
	// per-statement fan-out) instead of retaining them for Delivered(),
	// bounding memory on unbounded streams. Stats.Results still counts
	// every emission.
	NoRetain bool
	// Exact asks for exact arithmetic: the cluster coordinator compiles
	// with it, and greta's Runtime refuses it for a native plan.
	Exact bool
}

// Register subscribes a statement for plan to a graph on the shared
// ingest. The statement sees events from the current watermark onward;
// windows that ended before registration are never emitted. With
// cfg.Share set, the statement joins the graph a statement with the same
// trend-formation signature opened in this ingest epoch, if there is
// one, and otherwise opens the graph the next such statement joins.
func (rt *Runtime) Register(plan *Plan, cfg StmtConfig) (*Stmt, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err := rt.registrable(); err != nil {
		return nil, err
	}
	if cfg.ID != "" && rt.hasID(cfg.ID) {
		return nil, fmt.Errorf("greta: statement id %q already registered", cfg.ID)
	}
	// Registration is a reorder barrier: pending buffered events apply
	// first, so the new statement's watermark cut lands after every
	// event that arrived before the registration.
	rt.reorderBarrierLocked()
	key := shareKey(plan, cfg)
	into := rt.shared[key]
	if into != nil && into.epoch != rt.epoch {
		into = nil // warm: it serves its subscribers and takes no more
	}
	st, err := rt.subscribe(into, key, plan, cfg)
	if err != nil {
		return nil, err
	}
	rt.fireTrace(TraceEvent{Kind: TraceStatementRegister, Stmt: st.id, Watermark: rt.watermark})
	return st, nil
}

func (rt *Runtime) registrable() error {
	if rt.closed {
		return ErrClosed
	}
	if rt.running {
		return ErrRunning
	}
	return nil
}

// hasID reports whether a live statement already uses id (a closed
// statement's id is reusable). rt.mu held.
func (rt *Runtime) hasID(id string) bool {
	for _, st := range rt.stmts {
		if st.id == id {
			return true
		}
	}
	return false
}

// enrollLocked assigns the statement's id and adds it to the live set;
// rt.mu held. The caller has already rejected duplicate explicit ids;
// generated ids skip any the user claimed.
func (rt *Runtime) enrollLocked(st *Stmt, id string) {
	for id == "" || rt.hasID(id) {
		id = fmt.Sprintf("q%d", rt.nextID)
		rt.nextID++
	}
	st.id = id
	rt.stmts = append(rt.stmts, st)
}

// routeGroupFor returns (creating if needed) the route group of eng's
// partition-attribute signature; rt.mu held.
func (rt *Runtime) routeGroupFor(eng *Engine) *routeGroup {
	sig := strings.Join(eng.partAttrs, "\x1f")
	for _, g := range rt.groups {
		if g.sig == sig {
			return g
		}
	}
	g := &routeGroup{sig: sig, acc: keyAccessors(eng.partAttrs)}
	rt.groups = append(rt.groups, g)
	return g
}

// Process offers one event to every registered statement. The routing
// hash is computed once per distinct partition-attribute signature and
// forwarded, so N statements over the same grouping cost one hash.
// Events must arrive in non-decreasing time order: an older event is
// counted and dropped by every statement and ErrOutOfOrder is
// returned. After Close it returns ErrClosed.
func (rt *Runtime) Process(ev *event.Event) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.process(ev)
}

func (rt *Runtime) process(ev *event.Event) error {
	if rt.closed {
		return ErrClosed
	}
	if rt.running {
		return ErrRunning
	}
	if m := rt.met; m != nil {
		m.events.Inc()
	}
	if b := rt.reorder; b != nil {
		// Offered time runs ahead of the released frontier here, so the
		// high-water cell needs the RMW; the direct path below derives
		// the offered maximum from rt.watermark instead.
		if m := rt.met; m != nil {
			m.maxSeen.SetMax(ev.Time)
		}
		// Apply a restored in-flight release (pending at or below the
		// horizon) before considering the incoming event — exactly where
		// the interrupted run left off. A no-op on live buffers.
		b.Settle()
		if len(rt.replayDedup) > 0 {
			if _, ok := rt.replayDedup[ev.ID]; ok {
				// Replay of an event already rehydrated into the buffer.
				delete(rt.replayDedup, ev.ID)
				return nil
			}
		}
		if !b.Push(ev) {
			// Beyond-slack arrival: dropped before reaching any engine
			// (engines only ever see the released, in-order stream), so
			// per-statement OutOfOrder counters do not move — the caller
			// accounts for slack drops, as the netstream layer always has.
			if m := rt.met; m != nil {
				m.drops.Inc()
			}
			return &OrderError{EventTime: ev.Time, Watermark: b.Horizon()}
		}
		return nil
	}
	return rt.applyLocked(ev)
}

// applyLocked applies one in-order (or watermark-checked) event to the
// engines; rt.mu held. This is the landing point for both the direct
// path and reorder-buffer releases.
func (rt *Runtime) applyLocked(ev *event.Event) error {
	// Watermark-aligned checkpoint: the boundary B <= ev.Time is fully
	// determined before ev is applied, so the snapshot plus a replay of
	// events >= B reproduces this run bit for bit (ev itself is the
	// first replayed event).
	if ck := rt.ck; ck != nil && ev.Time >= ck.next {
		rt.checkpointAtBoundary(ev.Time)
	}
	// A new ingest epoch: every engine sees this event (even a dropped
	// one is counted), so no existing graph is cold any more and none
	// may accept new subscribers.
	rt.epoch++
	late := ev.Time < rt.watermark
	// Forward even when late: each engine's own cursor rejects the
	// event and counts the drop in its stats, exactly as the
	// single-engine path always has.
	for _, g := range rt.groups {
		h := HashRoute(g.acc, ev)
		for _, src := range g.members {
			src.eng.ProcessRouted(ev, h)
		}
	}
	for _, src := range rt.direct {
		src.eng.Process(ev)
	}
	if late {
		if m := rt.met; m != nil {
			m.drops.Inc()
		}
		return &OrderError{EventTime: ev.Time, Watermark: rt.watermark}
	}
	rt.watermark = ev.Time
	return nil
}

// applyReleased is the reorder buffer's sink: releases are in time
// order and at or past the watermark by construction, so the late path
// cannot trigger; rt.mu is held for the enclosing Push. The event is
// marked in-flight around the application so a boundary checkpoint it
// triggers still captures it (see Runtime.inflight).
func (rt *Runtime) applyReleased(ev *event.Event) {
	rt.inflight = ev
	_ = rt.applyLocked(ev)
	rt.inflight = nil
}

// SetReorderSlack arms a bounded reorder buffer in front of the
// engines: events may arrive up to slack time units behind the maximum
// timestamp seen and are re-sorted (equal timestamps keep arrival
// order) before application; later arrivals are dropped with an
// OrderError. Registrations, statement closes, Barrier, and Close
// flush the buffer first; scheduled checkpoints instead persist the
// pending events inside the snapshot, so a restored runtime rehydrates
// its disorder window. Must be called before the first event; slack 0
// disarms. A runtime with slack armed runs RunParallel sequentially.
func (rt *Runtime) SetReorderSlack(slack event.Time) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.running {
		return ErrRunning
	}
	if slack < 0 {
		return errors.New("greta: reorder slack must be non-negative")
	}
	if rt.watermark >= 0 || (rt.reorder != nil && rt.reorder.Pending() > 0) {
		return errors.New("greta: reorder slack must be configured before the first event")
	}
	if slack == 0 {
		rt.reorder = nil
		return nil
	}
	rt.reorder = reorder.New(slack, rt.applyReleased)
	return nil
}

// ReorderSlack returns the armed slack (0 when off).
func (rt *Runtime) ReorderSlack() event.Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.reorder == nil {
		return 0
	}
	return rt.reorder.Slack()
}

// ReorderPending returns the number of events currently held in the
// reorder buffer.
func (rt *Runtime) ReorderPending() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.reorder == nil {
		return 0
	}
	return rt.reorder.Pending()
}

// Barrier flushes the reorder buffer, applying every pending event in
// order. A no-op without slack. Use it to force alignment before
// reading results mid-stream; lifecycle operations barrier implicitly.
func (rt *Runtime) Barrier() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrClosed
	}
	if rt.running {
		return ErrRunning
	}
	rt.reorderBarrierLocked()
	return nil
}

// reorderBarrierLocked drains the reorder buffer; rt.mu held.
func (rt *Runtime) reorderBarrierLocked() {
	if rt.reorder != nil {
		rt.reorder.Flush()
	}
}

// Run consumes the stream until it is exhausted or ctx is cancelled.
// Out-of-order events are counted and dropped; any other Process error
// aborts. Run does not close the
// runtime — more statements or streams may follow; call Close to
// flush open windows at end of life.
func (rt *Runtime) Run(ctx context.Context, s event.Stream) error {
	done := ctx.Done()
	for ev := s.Next(); ev != nil; ev = s.Next() {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if err := rt.Process(ev); err != nil && !errors.Is(err, ErrOutOfOrder) {
			return err
		}
	}
	return nil
}

// Watermark returns the largest event time the runtime has accepted
// (-1 before the first event).
func (rt *Runtime) Watermark() event.Time {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.watermark
}

// Statements returns the live statements in registration order.
func (rt *Runtime) Statements() []*Stmt {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*Stmt(nil), rt.stmts...)
}

// RouteGroups returns the number of distinct partition-attribute
// signatures among the live simple-plan statements — each costs one
// routing hash per event, however many statements share it.
func (rt *Runtime) RouteGroups() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.groups)
}

// RuntimeStats summarizes the runtime's multi-query topology, live
// statements only: how many are registered, how many distinct routing
// hashes the ingest computes per event (a signature leaves the count
// with its last statement), and how far sharing collapsed the statement
// set — SharedStatements statements subscribe to SharedGraphs graphs
// built for more than one subscriber (a graph that shrank to one still
// counts; the remaining statements have a graph compiled from their own
// plan). SharedGraphs < SharedStatements means sharing is engaged.
type RuntimeStats struct {
	Statements       int
	RouteGroups      int
	SharedStatements int
	SharedGraphs     int
}

// Stats reports the runtime's current multi-query topology.
func (rt *Runtime) Stats() RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.statsLocked()
}

func (rt *Runtime) statsLocked() RuntimeStats {
	rs := RuntimeStats{Statements: len(rt.stmts), RouteGroups: len(rt.groups)}
	for _, st := range rt.stmts {
		if st.src.union {
			rs.SharedStatements++
			if st.src.subs[0] == st {
				rs.SharedGraphs++
			}
		}
	}
	return rs
}

// ParallelDebug reports streaming-merge instrumentation from the last
// RunParallel: the peak number of simultaneously pending (unmerged)
// windows in the merger, and the total results still buffered in
// worker engines at flush (zero when streaming delivery works).
func (rt *Runtime) ParallelDebug() (maxPendingWindows, workerRetainedResults int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.parDebug == nil {
		return 0, 0
	}
	return rt.parDebug.maxPending, rt.parDebug.workerRetained
}

// Close flushes every registered statement (emitting all open
// windows) and rejects further events. Idempotent.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil
	}
	// End-of-stream barrier: apply the disorder window before the final
	// flush, then reject further events.
	rt.reorderBarrierLocked()
	rt.closed = true
	for _, st := range rt.stmts {
		st.finish(false)
	}
	rt.stmts = nil
	return nil
}

// ID returns the statement's identifier.
func (st *Stmt) ID() string { return st.id }

// Engine exposes the engine of the statement's source (stats, DOT, the
// merger a partitioned run emits through). It retains no results and
// its callback is the source's: Stmt.OnResult, Stmt.Delivered and
// Stmt.Stats are the per-statement view.
func (st *Stmt) Engine() *Engine { return st.src.eng }

// OnResult registers the statement's result callback; nil clears it. A
// result goes to the callback installed when it is delivered.
func (st *Stmt) OnResult(f func(Result)) {
	st.mu.Lock()
	st.onRes = f
	st.mu.Unlock()
}

// deliver is how every result reaches every statement: appended to the
// record — counted, and held unless the statement drops on delivery and
// nothing is reading — then handed to the callback, outside the lock.
func (st *Stmt) deliver(r Result) {
	st.mu.Lock()
	switch {
	case st.noRetain && st.cursors == 0:
		st.base++
	case st.noRetain && len(st.results) >= tailMax: // a reader lags: the oldest goes
		st.results[0] = Result{}
		st.results, st.base = st.results[1:], st.base+1
		fallthrough
	default:
		st.results = append(st.results, r)
	}
	f := st.onRes
	st.more.Broadcast()
	st.mu.Unlock()
	if f != nil {
		f(r)
	}
}

// Stream returns a cursor over the record as a blocking iterator: it
// yields deliveries in emission order, waits for more, and returns once
// the statement is closed and drained. A retaining statement's replays
// the record from the start; a NoRetain statement's starts at the next
// delivery after this call — the record holds a tail from here until the
// iterator returns — and skips what it fell more than tailMax behind.
func (st *Stmt) Stream() iter.Seq[Result] {
	st.mu.Lock()
	start, tail := 0, st.noRetain
	if tail {
		start = st.base + len(st.results)
		st.cursors++
	}
	st.mu.Unlock()
	return func(yield func(Result) bool) {
		pos := start
		defer func() {
			st.mu.Lock()
			if tail { // give the tail back; run again, the iterator has nothing to read
				tail, start = false, math.MaxInt
				if st.cursors--; st.cursors == 0 {
					st.base, st.results = st.base+len(st.results), nil
				}
			}
			st.mu.Unlock()
		}()
		for {
			st.mu.Lock()
			for pos >= st.base+len(st.results) && !st.closed {
				st.more.Wait()
			}
			if pos >= st.base+len(st.results) {
				st.mu.Unlock()
				return
			}
			pos = max(pos, st.base) // what fell off the tail is skipped
			r := st.results[pos-st.base]
			pos++
			st.mu.Unlock()
			if !yield(r) {
				return
			}
		}
	}
}

// record returns how many results were delivered, the ones the statement
// retains — the record itself, append-only: read it freely, copy before
// writing; nothing under NoRetain, whose tail belongs to its cursors —
// and whether it is closed.
func (st *Stmt) record() (n int, rs []Result, closed bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n = st.base + len(st.results); !st.noRetain {
		rs = st.results
	}
	return n, rs, st.closed
}

// Delivered returns a copy of the retained results in emission order.
func (st *Stmt) Delivered() []Result {
	_, rs, _ := st.record()
	return slices.Clone(rs)
}

// Stats returns the statement's runtime statistics: the counters of its
// source's engine — identical to what a private engine over the same
// stream would have accumulated — with Results its own delivery count
// and SharedStatements as Stats documents it. A statement that left a
// source still serving others reports the snapshot frozen at its close.
func (st *Stmt) Stats() Stats {
	if st.frozen != nil {
		return *st.frozen
	}
	s := st.src.eng.Stats()
	s.Results, _, _ = st.record()
	if st.src.union {
		s.SharedStatements = len(st.src.subs)
	}
	return s
}

// Close detaches the statement from the shared ingest, flushing its
// open windows (their results are emitted through the usual delivery
// path). Other statements are not perturbed — a subscriber leaving
// others behind flushes from a peek of their graph. Returns
// ErrStatementClosed if already closed. A close hook (SetCloseHook) runs
// instead and calls the local close itself.
func (st *Stmt) Close() error {
	if st.onClose != nil {
		return st.onClose(st.closeLocal)
	}
	return st.closeLocal()
}

// SetCloseHook makes Close run f with the local close: a cluster
// coordinator's statement closes on its host first. Set it before the
// statement's handle escapes.
func (st *Stmt) SetCloseHook(f func(closeLocal func() error) error) { st.onClose = f }

func (st *Stmt) closeLocal() error {
	st.rt.mu.Lock()
	defer st.rt.mu.Unlock()
	if st.closed {
		return ErrStatementClosed
	}
	if st.rt.running {
		return ErrRunning
	}
	// Closing is a reorder barrier: the statement's final windows count
	// every event that arrived before the close.
	st.rt.reorderBarrierLocked()
	st.rt.stmts = deleteFrom(st.rt.stmts, st)
	st.finish(true)
	return nil
}

// finish is the one way a statement ends; rt.mu held. A statement
// leaving alone while its source serves others emits its open windows
// from a peek and freezes its stats; otherwise — the last subscriber, or
// every subscriber at once when the runtime closes — the source is
// retired, its one destructive flush reaching whoever still subscribes.
func (st *Stmt) finish(alone bool) {
	if src := st.src; alone && len(src.subs) > 1 {
		src.peekFlush(st)
		s := st.Stats()
		st.frozen = &s
		src.subs = deleteFrom(src.subs, st)
	} else {
		src.retire()
	}
	st.mu.Lock()
	st.closed = true
	st.more.Broadcast()
	st.mu.Unlock()
	st.rt.fireTrace(TraceEvent{Kind: TraceStatementClose, Stmt: st.id, Watermark: st.rt.watermark})
}

func deleteFrom[T comparable](list []T, x T) []T {
	if i := slices.Index(list, x); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}
