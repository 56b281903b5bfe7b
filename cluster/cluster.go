// Package cluster turns the single-process parallel runtime
// (greta.Runtime.RunParallel) into a multi-process topology over
// netstream: one coordinator process drives N shard processes, each
// hosting one or more worker slots — the distributed analogue of
// RunParallel's N workers.
//
// The worker and the merger are RunParallel's, not copies of them: a
// shard session hosts the same core.ShardHost worker slots RunParallel
// runs in-process, and the coordinator merges their partials through
// the same core.SlotMerge and folds their counters through the same
// Stmt.FoldRemoteStats — only the transport (netstream frames instead
// of channels) differs. The coordinator computes the per-route-group
// FNV-1a partition hash once per event (core.HashRoute — shards never
// rehash) and forwards the event to the slot hash % N0, where N0 is the
// worker-slot count fixed at Connect. Statement registrations fan out
// to every slot under the watermark contract: the coordinator's global
// watermark rides the registration frame, so every slot cuts the new
// statement at the same instant. Per-statement window barriers precede
// the event that closes the window, as in RunParallel's feed loop;
// slots release their partial windows and acknowledge over TCP, and the
// merger emits in slot order — float results are bit-identical to a
// single-process RunParallel with the same worker count.
//
// Events travel as columnar batch frames (one frame-level sequence
// number each) over resumable netstream sessions: a broken shard link
// redials, resumes, and replays its unacknowledged tail in both
// directions, so every frame — events, barriers, registrations —
// applies exactly once. Per-slot barrier acknowledgements roll up into
// a global low-watermark (LowWatermark). Shards can be added cold
// (AddShard) and populated by draining another shard (Drain): the
// donor snapshots its slots behind a barrier and the destination
// adopts them, home indices intact, so the merge protocol never
// notices the migration.
//
// Deliberately not distributed: the shared sub-plan network (cluster
// statements register exclusively), reorder slack, and unpartitioned
// or composite statements — the latter run inline on the coordinator
// (sequential semantics, results emitted inside Process as each window
// closes), just as RunParallel keeps them on its feed goroutine.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/obs"
	"github.com/greta-cep/greta/internal/window"
	"github.com/greta-cep/greta/netstream"
)

// Config describes the cluster a Connect builds.
type Config struct {
	// Shards lists the shard server addresses. The initial topology
	// hosts one worker slot per shard; the slot count (the partition
	// modulus N0) is fixed for the cluster's lifetime, so adding shards
	// later redistributes existing slots rather than re-hashing keys.
	Shards []string
	// SendWindow bounds the per-link resend ring for resume replay
	// (frames, not events; default 65536). The ring keeps each frame's
	// encoded bytes and overwrites the oldest in place, so a full ring
	// costs a frame no more than a filling one. It retains at most
	// SendWindow frames: with full batch frames that is about
	// SendWindow x BatchRows x the encoded bytes of one row (tens of
	// bytes; Metrics.FrameBytes / Metrics.Events measures it) per link —
	// size it to the longest outage a link must survive, not larger.
	SendWindow int
	// ResumeTimeout bounds how long a broken link keeps redialing
	// before the cluster fails (default 10s).
	ResumeTimeout time.Duration
	// BatchRows caps the rows buffered per link before a frame is
	// flushed (default 512). Barriers, registrations, and lifecycle
	// commands always flush first — frames never straddle them.
	BatchRows int
	// MetricsAddr, when set, serves the coordinator's observability
	// surface (/metrics, /metrics.json, /debug/pprof/) on this address
	// for the cluster's lifetime; Connect fails if it cannot be bound.
	// ":0" picks a free port — read it back from Coordinator.MetricsAddr.
	MetricsAddr string
	// TraceHook, when set, receives the coordinator's lifecycle trace
	// events: greta.TraceBarrierEmit on every window-close fan-out,
	// greta.TraceShardAdd and greta.TraceShardDrain on membership
	// changes. It fires with the coordinator's lock held — it must
	// return quickly and must not call back into the Coordinator.
	TraceHook func(greta.TraceEvent)
}

// ServeShard configures a netstream Server as a cluster shard: shard
// links enabled, resumable sessions with a generous linger and replay
// window. The caller serves it: go srv.Serve(ln).
func ServeShard() *netstream.Server {
	return &netstream.Server{
		AllowShard:   true,
		Linger:       time.Minute,
		ResumeWindow: 1 << 20,
		// Adopt frames carry whole slot snapshots in one line.
		MaxLine: 1 << 30,
	}
}

// Coordinator is the cluster's feed half: it owns statement
// registration, routes events to worker slots over shard links, drives
// the per-statement window barrier schedule, and merges the slots'
// partial windows into final results — RunParallel's coordinator and
// merger roles, across process boundaries.
//
// A Coordinator is safe for concurrent use; operations that span a
// network round trip (Register, Handle.Close, Drain, Close) serialize.
// Result callbacks fire with the coordinator's lock held — on link
// reader goroutines, or inside Process for inline statements — and
// must not call back into the Coordinator.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	// rt registers every statement locally: partitioned units use their
	// local engine only as the merge/emit/stats surface (it never sees
	// events); inline statements process every event on it.
	rt *core.Runtime

	n0       int     // worker-slot modulus, fixed at Connect
	links    []*link // shard links, by shard index
	slotLink []int   // worker slot → hosting link index
	slotAck  []int64 // worker slot → latest acked barrier time

	units   map[int]*unit // unit index → live partitioned unit
	unitID  map[string]*unit
	order   []int // live unit indices, ascending (barrier order)
	inline  []*core.Stmt
	groups  []*routeGroup
	grpSig  map[string]int
	nextSI  int
	wm      int64 // global watermark (-1 before the first event)
	rowCap  int
	sendWin int
	resumeT time.Duration

	// routing scratch and the bounded cache of row shapes (batch.go).
	touched []int
	shapes  event.ShapeCache

	warnings []string
	busy     bool // serializes multi-step operations that wait mid-flight
	closed   bool
	err      error

	// observability (see metrics.go): pre-registered cells, the scrape
	// registry and optional listener, in-flight barrier RTT tracking,
	// and the lifecycle trace hook.
	met         *coMetrics
	reg         *obs.Registry
	metLn       net.Listener
	trace       func(greta.TraceEvent)
	barPend     map[barKey]*barWait
	lastHandoff time.Duration
}

// routeGroup is one partition-attribute signature: the shared
// accessors the hash is computed with, and how many live units use it.
type routeGroup struct {
	acc  []event.Accessor
	refs int
}

// unit is one live partitioned statement: its barrier cursor, its
// slot-order merger (the one RunParallel uses), and the per-slot stats
// fold bookkeeping.
type unit struct {
	si, gi  int
	st      *core.Stmt
	win     window.Spec
	parPrev int64

	merge     *core.SlotMerge
	statsSeen []bool
	statsLeft int
	regPend   map[*link]bool
}

// Handle is the statement handle Register returns.
//
// Deprecated: use greta.Handle, which this names.
type Handle = greta.Handle

// WithExactArithmetic compiles the statement in exact (math/big)
// arithmetic on the coordinator and every slot: greta.WithExactArithmetic
// as a RegisterOption, which a greta.Runtime refuses for a native statement.
func WithExactArithmetic() greta.RegisterOption {
	return func(c *core.StmtConfig) { c.Exact = true }
}

// Connect dials every shard, establishes resumable sessions, and fixes
// the cluster's worker-slot topology: len(cfg.Shards) slots, slot i on
// shard i. It fails if any shard is unreachable under ctx or rejects
// the handshake.
func Connect(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	co := &Coordinator{
		rt:      core.NewRuntime(),
		n0:      len(cfg.Shards),
		units:   map[int]*unit{},
		unitID:  map[string]*unit{},
		grpSig:  map[string]int{},
		wm:      -1,
		rowCap:  cfg.BatchRows,
		sendWin: cfg.SendWindow,
		resumeT: cfg.ResumeTimeout,
		trace:   cfg.TraceHook,
	}
	co.reg = obs.NewRegistry()
	co.met = newCoMetrics(co.reg)
	co.registerCollector()
	if cfg.MetricsAddr != "" {
		ln, err := obs.Serve(cfg.MetricsAddr, co.reg)
		if err != nil {
			return nil, fmt.Errorf("cluster: metrics listener: %w", err)
		}
		co.metLn = ln
	}
	co.cond = sync.NewCond(&co.mu)
	if co.rowCap <= 0 {
		co.rowCap = 512
	}
	if co.sendWin <= 0 {
		co.sendWin = 1 << 16
	}
	if co.resumeT <= 0 {
		co.resumeT = 10 * time.Second
	}
	co.slotLink = make([]int, co.n0)
	co.slotAck = make([]int64, co.n0)
	for w := range co.slotAck {
		co.slotLink[w] = w
		co.slotAck[w] = -1
	}
	for i, addr := range cfg.Shards {
		l, err := co.dialLink(ctx, i, addr, []int{i})
		if err != nil {
			_ = co.Close()
			return nil, err
		}
		co.links = append(co.links, l)
		co.mu.Lock()
		co.fireTrace(greta.TraceEvent{Kind: greta.TraceShardAdd, Shard: i, Watermark: co.wm})
		co.mu.Unlock()
	}
	return co, nil
}

// waitIdleLocked blocks while a multi-step operation holds the busy
// slot, then reports whether the cluster still takes work. co.mu held.
func (co *Coordinator) waitIdleLocked() error {
	for co.busy && !co.closed {
		co.cond.Wait()
	}
	if co.closed {
		return greta.ErrClosed
	}
	return co.err
}

// begin acquires the multi-step-operation slot under co.mu.
func (co *Coordinator) begin() error {
	if err := co.waitIdleLocked(); err != nil {
		return err
	}
	co.busy = true
	return nil
}

func (co *Coordinator) end() {
	co.busy = false
	co.cond.Broadcast()
}

// waitLocked blocks until pred holds, a link fails, or the cluster
// closes. co.mu held; pred is evaluated under it.
func (co *Coordinator) waitLocked(pred func() bool) error {
	for !pred() {
		if co.err != nil {
			return co.err
		}
		if co.closed {
			return greta.ErrClosed
		}
		co.cond.Wait()
	}
	return nil
}

// fail records the first fatal cluster error and wakes every waiter.
// co.mu held.
func (co *Coordinator) fail(err error) {
	if co.err == nil {
		co.err = err
	}
	co.cond.Broadcast()
}

// Err returns the first fatal cluster error (a link beyond resume, a
// shard-reported fault), or nil.
func (co *Coordinator) Err() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

// Warnings returns non-fatal shard diagnostics collected so far.
func (co *Coordinator) Warnings() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	return slices.Clone(co.warnings)
}

// Slots returns the cluster's worker-slot count N0 — the partition
// modulus, fixed at Connect. Results are bit-identical to
// RunParallel with Slots workers.
func (co *Coordinator) Slots() int { return co.n0 }

// Shards returns the current shard-link count (drained links
// included).
func (co *Coordinator) Shards() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.links)
}

// Watermark returns the global event-time frontier (-1 before the
// first event).
func (co *Coordinator) Watermark() greta.Time {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.wm
}

// LowWatermark returns the cluster's merge frontier: the smallest
// barrier time every worker slot has acknowledged (-1 before the
// first acknowledged barrier). Windows at or below it are fully
// merged and emitted.
func (co *Coordinator) LowWatermark() greta.Time { return co.Metrics().LowWatermark }

// activeLinks returns the links that still host (or may come to host)
// worker slots — every command fan-out targets exactly these.
func (co *Coordinator) activeLinks() []*link {
	ls := make([]*link, 0, len(co.links))
	for _, l := range co.links {
		if !l.drained && !l.closing {
			ls = append(ls, l)
		}
	}
	return ls
}

// Register compiles and registers a statement. Partitioned statements
// (simple plans with at least one partition attribute) fan out to
// every worker slot stamped with the current watermark and are
// processed cluster-wide; anything else runs inline on the
// coordinator. Registration returns after every shard acknowledges.
// The options are greta's; WithSharing(true) is refused with
// greta.ErrUnsupportedOption, as cluster statements register exclusively.
func (co *Coordinator) Register(src string, opts ...greta.RegisterOption) (*greta.Handle, error) {
	var cfg core.StmtConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Share {
		return nil, fmt.Errorf("%w: WithSharing(true) on a cluster statement", greta.ErrUnsupportedOption)
	}
	_, plan, err := core.Compile(src, cfg.Exact)
	if err != nil {
		return nil, err
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.begin(); err != nil {
		return nil, err
	}
	defer co.end()
	st, err := co.rt.Register(plan, cfg)
	if err != nil {
		return nil, err
	}
	h := core.NewHandle(st).(*greta.Handle)
	st.SetCloseHook(co.closeHook(st))
	if !st.Partitioned() {
		co.inline = append(co.inline, st)
		return h, nil
	}

	sig := strings.Join(st.RouteAttrs(), "\x1f")
	gi, ok := co.grpSig[sig]
	if !ok {
		gi = len(co.groups)
		co.groups = append(co.groups, &routeGroup{acc: st.RouteAccessors()})
		co.grpSig[sig] = gi
	}
	co.groups[gi].refs++
	u := &unit{
		si: co.nextSI, gi: gi, st: st,
		win: st.WindowSpec(), parPrev: co.wm,
		merge:     core.NewSlotMerge(st.Engine(), co.n0, nil),
		statsSeen: make([]bool, co.n0),
		statsLeft: co.n0,
		regPend:   map[*link]bool{},
	}
	co.nextSI++
	co.units[u.si] = u
	co.unitID[st.ID()] = u
	co.order = append(co.order, u.si)

	// Buffered rows precede the registration on every link, and the
	// registration frame carries the global watermark so each slot cuts
	// the new statement at the same instant.
	co.flushAllLocked()
	for _, l := range co.activeLinks() {
		u.regPend[l] = true
		l.send(netstream.WireEvent{
			Cmd: "sreg", SI: u.si, GI: u.gi, Query: plan.Query.String(), ID: st.ID(),
			Exact: cfg.Exact, Time: co.wm,
		})
	}
	if err := co.waitLocked(func() bool { return len(u.regPend) == 0 }); err != nil {
		return nil, err
	}
	return h, nil
}

// Process offers one event to the cluster: barriers for every window
// the event's time closes fan out first (RunParallel's ordering), then
// inline statements process it, then it is routed — one hash per live
// route group — into the owning slots' batch frames. Late events are
// dropped, charged to every statement's OutOfOrder, and reported as a
// *greta.OrderError (errors.Is ErrOutOfOrder), as the single-process
// paths do.
func (co *Coordinator) Process(ev *greta.Event) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.waitIdleLocked(); err != nil {
		return err
	}
	co.met.events.Inc()
	if ev.Time < co.wm {
		co.met.drops.Inc()
		for _, si := range co.order {
			co.units[si].st.AddOutOfOrder(1)
		}
		for _, st := range co.inline {
			st.AddOutOfOrder(1)
		}
		return &greta.OrderError{EventTime: ev.Time, Watermark: co.wm}
	}
	co.wm = ev.Time
	co.rt.ObserveTime(ev.Time)

	// Window barriers precede the event that closes the window, so
	// every slot releases wid before any post-window event.
	for _, si := range co.order {
		u := co.units[si]
		if _, hi, ok := u.win.ClosedBy(u.parPrev, ev.Time); ok {
			co.flushAllLocked()
			co.trackBarrierLocked(u.si, hi)
			co.fireTrace(greta.TraceEvent{Kind: greta.TraceBarrierEmit,
				Stmt: u.st.ID(), Boundary: greta.Time(hi), Watermark: ev.Time})
			for _, l := range co.activeLinks() {
				l.send(netstream.WireEvent{Cmd: "barrier", SI: u.si, Time: ev.Time, Hi: hi})
			}
		}
		u.parPrev = ev.Time
	}
	for _, st := range co.inline {
		st.Engine().Process(ev)
	}
	if len(co.groups) > 0 {
		co.routeLocked(ev)
	}
	return nil
}

// routeLocked hashes ev once per live route group, gathers each
// target link's (group, hash) pairs, and copies the event's values —
// once per link — into the columns of the owning links' pending batch
// frames. co.mu held.
func (co *Coordinator) routeLocked(ev *greta.Event) {
	co.touched = co.touched[:0]
	for gi, g := range co.groups {
		if g.refs == 0 {
			continue
		}
		h := core.HashRoute(g.acc, ev)
		li := co.slotLink[int(h%uint64(co.n0))]
		l := co.links[li]
		if len(l.pairs) == 0 {
			co.touched = append(co.touched, li)
		}
		l.pairs = append(l.pairs, pair{gi: gi, h: h})
	}
	if len(co.touched) == 0 {
		return
	}
	shape := co.shapes.Of(ev)
	for _, li := range co.touched {
		l := co.links[li]
		l.buf.add(l, shape, ev, l.pairs)
		l.pairs = l.pairs[:0]
		if len(l.buf.f.Times) >= co.rowCap {
			l.buf.flush(l)
		}
	}
}

// flushAllLocked flushes every link's buffered batch frame. co.mu
// held.
func (co *Coordinator) flushAllLocked() {
	for _, l := range co.links {
		l.buf.flush(l)
	}
}

// closeHook is st's Close: an inline statement leaves the feed; a live
// unit is closed on every slot (rows flushed, sclose fanned out, every
// slot's release merged and stats folded) before the local close.
func (co *Coordinator) closeHook(st *core.Stmt) func(func() error) error {
	return func(closeLocal func() error) error {
		co.mu.Lock()
		defer co.mu.Unlock()
		if err := co.begin(); err != nil {
			return err
		}
		defer co.end()
		if i := slices.Index(co.inline, st); i >= 0 {
			co.inline = slices.Delete(co.inline, i, i+1)
		}
		if u := co.unitID[st.ID()]; u != nil && u.st == st {
			co.flushAllLocked()
			for _, l := range co.activeLinks() {
				l.send(netstream.WireEvent{Cmd: "sclose", SI: u.si})
			}
			if err := co.waitLocked(u.done); err != nil {
				return err
			}
			co.dropUnitLocked(u)
		}
		return closeLocal()
	}
}

// done reports whether every slot has fully released and folded the
// unit.
func (u *unit) done() bool { return u.statsLeft == 0 && u.merge.Done() }

// dropUnitLocked removes a fully-closed unit from the live set.
func (co *Coordinator) dropUnitLocked(u *unit) {
	delete(co.units, u.si)
	delete(co.unitID, u.st.ID())
	if i := slices.Index(co.order, u.si); i >= 0 {
		co.order = slices.Delete(co.order, i, i+1)
	}
	co.groups[u.gi].refs--
	for k := range co.barPend {
		if k.si == u.si {
			delete(co.barPend, k)
		}
	}
}

// Close ends the stream: every unit's open windows flush on every
// slot, the merged tails emit, slot stats fold, sessions finish
// gracefully, and every link goroutine exits. Safe to call twice.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	for co.busy && !co.closed {
		co.cond.Wait()
	}
	if co.closed {
		err := co.err
		co.mu.Unlock()
		return err
	}
	co.busy = true
	if co.err == nil {
		co.flushAllLocked()
		for _, l := range co.activeLinks() {
			l.send(netstream.WireEvent{Cmd: "eos"})
		}
		for _, si := range slices.Clone(co.order) {
			u := co.units[si]
			if err := co.waitLocked(u.done); err != nil {
				break
			}
			co.dropUnitLocked(u)
		}
	}
	rtErr := co.rt.Close()
	for _, l := range co.links {
		if !l.closing {
			l.finish()
		}
	}
	co.closed = true
	co.busy = false
	err := cmp.Or(co.err, rtErr)
	co.cond.Broadcast()
	links := slices.Clone(co.links)
	co.mu.Unlock()

	for _, l := range links {
		<-l.readerDone
		_ = l.c.Close() // the session is over (co.err says if it failed); a break may have closed it
	}
	if co.metLn != nil {
		err = cmp.Or(err, co.metLn.Close())
	}
	return err
}

// AddShard dials a new shard and joins it to the cluster cold: it
// hosts no worker slots until a Drain hands it some, but from now on
// receives every registration and barrier so adopted slots stay
// current. Returns the new shard's link index.
func (co *Coordinator) AddShard(ctx context.Context, addr string) (int, error) {
	co.mu.Lock()
	if err := co.begin(); err != nil {
		co.mu.Unlock()
		return 0, err
	}
	idx := len(co.links)
	co.mu.Unlock()

	l, err := co.dialLink(ctx, idx, addr, nil)

	co.mu.Lock()
	defer co.mu.Unlock()
	defer co.end()
	if err != nil {
		return 0, err
	}
	co.links = append(co.links, l)
	co.fireTrace(greta.TraceEvent{Kind: greta.TraceShardAdd, Shard: idx, Watermark: co.wm})
	// Nothing is replayed onto the cold shard: from here on activeLinks
	// sends it every sreg, barrier and sclose, and the snapshots it adopts
	// bring the statements registered before it joined.
	return idx, nil
}

// Drain migrates every worker slot of shard from onto shard to: the
// donor snapshots each slot's full engine state behind the frames
// already sent, the destination adopts them under the same home
// indices, and the key ranges (hash % N0 == slot) move with them. The
// donor's session then finishes; the link index remains (drained).
// The merge protocol is undisturbed: released frontiers, pending
// partials, and stats folds are keyed by slot, not by shard.
func (co *Coordinator) Drain(from, to int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.begin(); err != nil {
		return err
	}
	defer co.end()
	if from == to || from < 0 || from >= len(co.links) || to < 0 || to >= len(co.links) {
		return fmt.Errorf("cluster: bad drain %d -> %d", from, to)
	}
	lf, lt := co.links[from], co.links[to]
	if lf.drained || lt.drained || lf.closing || lt.closing {
		return fmt.Errorf("cluster: drain %d -> %d: shard already drained", from, to)
	}
	t0 := time.Now()
	co.flushAllLocked()
	lf.send(netstream.WireEvent{Cmd: "handoff"})
	if err := co.waitLocked(func() bool { return lf.handoff != nil }); err != nil {
		return err
	}
	blobs := lf.handoff
	lf.handoff = nil
	adopts := lt.adopts
	lt.send(netstream.WireEvent{Cmd: "adopt", Blobs: blobs, EvID: lf.handoffEvID})
	if err := co.waitLocked(func() bool { return lt.adopts > adopts }); err != nil {
		return err
	}
	for ws := range blobs {
		w, err := strconv.Atoi(ws)
		if err != nil || w < 0 || w >= co.n0 {
			co.fail(fmt.Errorf("cluster: drain: bad slot key %q", ws))
			return co.err
		}
		co.slotLink[w] = to
	}
	lf.drained = true
	lf.finish()
	d := time.Since(t0)
	co.met.handoffs.Inc()
	co.met.handoffDur.Observe(d)
	co.lastHandoff = d
	co.fireTrace(greta.TraceEvent{Kind: greta.TraceShardDrain, Shard: from,
		Watermark: co.wm, Dur: d})
	return nil
}

// BreakLink severs shard i's TCP connection without warning — a fault
// injection surface for tests and drills. The link redials, resumes
// the session, and replays the unacknowledged tail in both directions;
// the stream continues exactly-once.
func (co *Coordinator) BreakLink(i int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if i < 0 || i >= len(co.links) {
		return fmt.Errorf("cluster: no shard link %d", i)
	}
	// Already-closed is fine: the link is broken either way (a kill can
	// land while a previous break's resume is still in flight).
	_ = co.links[i].c.Close()
	return nil
}
