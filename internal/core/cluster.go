package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/window"
)

// This file is the partitioned-execution seam: the worker slot
// (ShardHost) and the statement-side hooks that RunParallel drives over
// channels and a cluster coordinator drives over netstream sessions.
// Worker, merger (SlotMerge, parallel.go), and stats fold are the same
// code on both transports, so a multi-process run is bit-identical to
// RunParallel with the same slot count by construction.

// MarshalPayload serializes a partial (or final) aggregate payload
// with the checkpoint codec: float slots travel as IEEE bit patterns
// and exact-mode big values verbatim, so a merge over the wire is
// bit-identical to an in-process one.
func MarshalPayload(p *aggregate.Payload) ([]byte, error) {
	// 21 bytes and 18 a slot is the whole blob unless exact-mode values
	// follow their flags.
	w := checkpoint.Encode(make([]byte, 0, 21+18*len(p.Slots)))
	if walkPayload(&w, p, false); w.Err() != nil {
		return nil, w.Err()
	}
	return w.Out(), nil
}

// UnmarshalPayload reverses MarshalPayload.
func UnmarshalPayload(b []byte) (*aggregate.Payload, error) {
	w := checkpoint.Decode(b)
	p := &aggregate.Payload{}
	if walkPayload(&w, p, false); w.Err() != nil {
		return nil, w.Err()
	}
	return p, nil
}

// Partitioned reports whether the statement is a parallel unit: a
// simple plan with at least one partition attribute. RunParallel (and
// the cluster coordinator) distributes exactly these; everything else
// runs inline on the coordinator.
func (st *Stmt) Partitioned() bool {
	return len(st.RouteAccessors()) > 0
}

// RouteAttrs returns the statement's partition-attribute signature
// (group-by + equivalence, in plan order).
func (st *Stmt) RouteAttrs() []string {
	return st.src.eng.partAttrs
}

// RouteAccessors returns the statement's route group's shared
// accessors (nil for unpartitioned statements). The caller must treat
// them as owned by the runtime: pass them to HashRoute, do not mutate.
func (st *Stmt) RouteAccessors() []event.Accessor {
	if st.src.grp == nil {
		return nil
	}
	return st.src.grp.acc
}

// WindowSpec returns the statement's window, the coordinator's input
// to the per-statement barrier schedule (window.Spec.ClosedBy).
func (st *Stmt) WindowSpec() window.Spec { return st.src.eng.plan.Window }

// FoldRemoteStats folds one worker slot's engine counters into the
// statement's stats (Stats.add): Events and the graph-cost counters
// sum; peaks sum as an upper bound on the true concurrent peak (slots
// run concurrently but peak at different instants — read parallel-run
// peaks as a bound, not an exact maximum); OutOfOrder and Results are
// coordinator-side and excluded.
func (st *Stmt) FoldRemoteStats(s Stats) {
	s.OutOfOrder, s.Results = 0, 0
	st.src.eng.stats.add(s)
}

// AddOutOfOrder charges n coordinator-side out-of-order drops to the
// statement, mirroring the sequential path where every engine counts
// its own late arrivals (the events themselves are not forwarded).
func (st *Stmt) AddOutOfOrder(n uint64) {
	st.src.eng.stats.OutOfOrder += n
}

// ObserveTime advances the runtime's watermark without offering an
// event, so statements registered mid-stream on a coordinator (whose
// partitioned events are processed elsewhere) still get the correct
// registration watermark stamped on their engines.
func (rt *Runtime) ObserveTime(t event.Time) {
	rt.mu.Lock()
	if t > rt.watermark {
		rt.watermark = t
	}
	rt.mu.Unlock()
}

// ---------------------------------------------------------------------
// ShardHost: one worker slot
// ---------------------------------------------------------------------

// ShardHost is one worker slot of a partitioned run: one of
// RunParallel's N workers, or a cluster slot pinned to a home index
// that never changes even when the slot migrates between shard
// processes. It owns an ordinary Runtime as the registry, but drives
// engines directly with coordinator-routed (group, hash) pairs — the
// hash is computed once at the coordinator.
//
// A ShardHost is single-goroutine: the worker goroutine, or the
// serving session under its own lock, calls every method.
type ShardHost struct {
	rt        *Runtime
	w         int
	units     []*Stmt // unit index → statement (nil: not registered)
	gi        []int   // unit index → route-group index
	groups    [][]int // route-group index → unit indices, ascending
	onPartial func(w, si int, r Result)
}

// maxShardIndex bounds the unit and route-group indices a slot accepts:
// they arrive over the wire and size the slot's tables. A coordinator
// numbers units consecutively and never reuses an index, so this is
// also how many registrations one cluster lifetime admits.
const maxShardIndex = 1 << 20

// shardHostMeta is the opaque blob embedded in a host snapshot so an
// adopting shard can rebind the restored statements to their cluster
// unit and route-group indices.
type shardHostMeta struct {
	W     int               `json:"w"`
	Units map[string][2]int `json:"units"` // stmt id → {si, gi}
}

// NewShardHost creates an empty worker slot. onPartial receives every
// partial window the slot's engines release (barrier, flush, close);
// the caller ships them to the merger tagged with the slot's home
// index w.
func NewShardHost(w int, onPartial func(w, si int, r Result)) *ShardHost {
	return &ShardHost{rt: newRuntime(), w: w, onPartial: onPartial}
}

// W returns the slot's home worker index.
func (h *ShardHost) W() int { return h.w }

// ObserveTime advances the slot's watermark without an event, so a
// mid-stream registration fan-out stamps the coordinator's global
// watermark on the new engine (a slot that happened to receive no
// recent events would otherwise stamp a stale one and re-open windows
// the single-process run skips).
func (h *ShardHost) ObserveTime(t event.Time) {
	if t > h.rt.watermark {
		h.rt.watermark = t
	}
}

// Watermark returns the slot's applied-event frontier.
func (h *ShardHost) Watermark() event.Time {
	return h.rt.watermark
}

func (h *ShardHost) metaBytes() []byte {
	m := shardHostMeta{W: h.w, Units: map[string][2]int{}}
	for si, st := range h.units {
		if st != nil {
			m.Units[st.id] = [2]int{si, h.gi[si]}
		}
	}
	b, _ := json.Marshal(m)
	return b
}

// unit returns the statement registered as unit si, or nil.
func (h *ShardHost) unit(si int) *Stmt {
	if si < 0 || si >= len(h.units) {
		return nil
	}
	return h.units[si]
}

// checkUnit rejects unit / route-group indices the slot cannot bind:
// out of range, or a unit index already taken.
func (h *ShardHost) checkUnit(si, gi int) error {
	if si < 0 || si >= maxShardIndex || gi < 0 || gi >= maxShardIndex {
		return fmt.Errorf("unit %d / route group %d out of range [0,%d)", si, gi, maxShardIndex)
	}
	if h.unit(si) != nil {
		return fmt.Errorf("unit %d already registered", si)
	}
	return nil
}

// bindUnit puts a statement registered NoRetain (RegisterPlan, or the
// snapshot one wrote) into worker mode: its results leave as partials
// tagged with the slot's home index. The indices have passed checkUnit.
func (h *ShardHost) bindUnit(st *Stmt, si, gi int) {
	if si >= len(h.units) {
		h.units = append(h.units, make([]*Stmt, si+1-len(h.units))...)
		h.gi = append(h.gi, make([]int, si+1-len(h.gi))...)
	}
	if gi >= len(h.groups) {
		h.groups = append(h.groups, make([][]int, gi+1-len(h.groups))...)
	}
	st.OnResult(func(r Result) { h.onPartial(h.w, si, r) })
	h.units[si], h.gi[si] = st, gi
	h.groups[gi] = append(h.groups[gi], si)
	slices.Sort(h.groups[gi])
}

// Register compiles and registers one fanned-out parallel unit from
// its canonical query text and arithmetic mode, which come from the
// coordinator so every slot builds an identical engine.
func (h *ShardHost) Register(si, gi int, src, id string, exact, force bool) error {
	_, plan, err := Compile(src, exact)
	if err != nil {
		return err
	}
	return h.RegisterPlan(si, gi, plan, id, force)
}

// RegisterPlan registers plan as unit si of route group gi. Sharing is
// deliberately off — a unit is one engine per slot (RunParallel hands a
// shared graph's union plan in as one unit; cluster statements register
// exclusively). Out-of-range or already-taken indices are rejected.
func (h *ShardHost) RegisterPlan(si, gi int, plan *Plan, id string, force bool) error {
	if err := h.checkUnit(si, gi); err != nil {
		return err
	}
	st, err := h.rt.Register(plan, StmtConfig{ID: id, ForceVertexScan: force, NoRetain: true})
	if err != nil {
		return err
	}
	h.bindUnit(st, si, gi)
	return nil
}

// Apply offers one coordinator-routed event: for each targeted route
// group, every unit of that group processes the event under the
// pre-computed hash (ProcessRouted — the slot never rehashes). Route
// groups the slot does not know are skipped. The watermark advances so
// mid-stream registrations and snapshots cut at the right instant.
func (h *ShardHost) Apply(ev *event.Event, gis []int, hs []uint64) {
	for k, gi := range gis {
		if gi < 0 || gi >= len(h.groups) {
			continue
		}
		for _, si := range h.groups[gi] {
			h.units[si].src.eng.ProcessRouted(ev, hs[k])
		}
	}
	if ev.Time > h.rt.watermark {
		h.rt.watermark = ev.Time
	}
}

// Barrier releases unit si's windows up to t (exclusive of windows
// still open at t), emitting their partials through onPartial.
func (h *ShardHost) Barrier(si int, t event.Time) {
	if st := h.unit(si); st != nil {
		st.src.eng.AdvanceTo(t)
	}
	if t > h.rt.watermark {
		h.rt.watermark = t
	}
}

// Units returns the registered unit indices, ascending.
func (h *ShardHost) Units() []int {
	var sis []int
	for si, st := range h.units {
		if st != nil {
			sis = append(sis, si)
		}
	}
	return sis
}

// FlushUnit releases every open window of unit si (end of stream).
func (h *ShardHost) FlushUnit(si int) {
	if st := h.unit(si); st != nil {
		st.src.eng.Flush()
	}
}

// UnitStats returns unit si's engine counters for the coordinator's
// stats fold.
func (h *ShardHost) UnitStats(si int) (Stats, bool) {
	st := h.unit(si)
	if st == nil {
		return Stats{}, false
	}
	return st.Stats(), true
}

// CloseUnit closes unit si mid-stream: its open windows flush as
// partials through onPartial, its final stats are returned for the
// coordinator's fold, and the statement leaves the slot's runtime.
func (h *ShardHost) CloseUnit(si int) (Stats, error) {
	st := h.unit(si)
	if st == nil {
		return Stats{}, fmt.Errorf("unit %d not registered", si)
	}
	if err := st.Close(); err != nil {
		return Stats{}, err
	}
	gi := h.gi[si]
	h.groups[gi] = slices.DeleteFunc(h.groups[gi], func(x int) bool { return x == si })
	h.units[si] = nil
	return st.Stats(), nil
}

// Snapshot serializes the slot's full engine state (open windows,
// pane summaries, watermark) plus the unit/group binding meta, for a
// rebalance handoff. The caller must have quiesced the slot (no
// events in flight past the snapshot's watermark).
func (h *ShardHost) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	h.rt.mu.Lock()
	h.rt.ckMeta = h.metaBytes
	err := h.rt.encodeLocked(&buf, h.rt.watermark+1)
	h.rt.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Discard drops the slot without emitting anything: callbacks are
// detached before the runtime closes, so the teardown flush is silent.
// Used after a handoff (the state lives on elsewhere) and at session
// teardown.
func (h *ShardHost) Discard() {
	for _, st := range h.units {
		if st != nil {
			st.OnResult(nil)
		}
	}
	_ = h.rt.Close()
}

// AdoptShardHost rebuilds a worker slot from a Snapshot blob on a
// different shard: the runtime (engines, open windows, watermark) is
// restored, and every statement is rebound to its unit index in
// worker mode. The slot keeps its original home index, so the
// coordinator's merge and stats fold are undisturbed by the
// migration.
func AdoptShardHost(data []byte, onPartial func(w, si int, r Result)) (*ShardHost, error) {
	rt, info, err := RestoreRuntime(data)
	if err != nil {
		return nil, err
	}
	if info.Meta == nil {
		return nil, fmt.Errorf("greta: snapshot carries no shard-host meta")
	}
	var m shardHostMeta
	if err := json.Unmarshal(info.Meta, &m); err != nil {
		return nil, fmt.Errorf("greta: bad shard-host meta: %w", err)
	}
	h := &ShardHost{rt: rt, w: m.W, onPartial: onPartial}
	for _, st := range rt.Statements() {
		bind, ok := m.Units[st.ID()]
		if !ok {
			return nil, fmt.Errorf("greta: restored statement %q missing from shard-host meta", st.ID())
		}
		if err := h.checkUnit(bind[0], bind[1]); err != nil {
			return nil, fmt.Errorf("greta: bad shard-host meta: %w", err)
		}
		h.bindUnit(st, bind[0], bind[1])
	}
	return h, nil
}
