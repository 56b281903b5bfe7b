package netstream

import (
	"encoding/base64"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
)

// Shard sessions: the server side of a cluster worker link. A
// resumable session flips into shard mode with {"cmd":"shard"} and
// from then on hosts one or more cluster worker slots (core.ShardHost)
// — the multi-process analogue of RunParallel's workers. The driving
// coordinator (see the cluster package) ships unit registrations,
// pre-routed events/batches, per-statement window barriers, and slot
// migrations as seq-numbered frames; the slots answer with durable
// partial windows, barrier acks, and unit stats. Both directions ride
// the ordinary session resume machinery, so a dropped link replays its
// unacked tail and every frame applies exactly once.

// WirePartial is one worker slot's released window: the raw aggregate
// payload (checkpoint codec, base64) of unit SI's window Wid for one
// group, tagged with the slot's home index W so the coordinator merges
// partials in slot order — float results stay bit-identical to a
// single-process run.
type WirePartial struct {
	SI      int    `json:"si"`
	W       int    `json:"w"`
	Group   string `json:"group"`
	Wid     int64  `json:"wid"`
	Payload string `json:"payload"`
}

// WireAck is one worker slot's barrier acknowledgement: slot W has
// released every window of unit SI up to Hi (math.MaxInt64 after a
// flush or close). T echoes the barrier's stream time so the
// coordinator rolls per-slot frontiers into a global low-watermark.
// Partials always precede their covering ack on the wire.
type WireAck struct {
	SI int   `json:"si"`
	W  int   `json:"w"`
	Hi int64 `json:"hi"`
	T  int64 `json:"t,omitempty"`
}

// WireUnitStats carries one worker slot's final engine counters for a
// closed (or end-of-stream flushed) unit, for the coordinator's stats
// fold.
type WireUnitStats struct {
	SI    int         `json:"si"`
	W     int         `json:"w"`
	Stats greta.Stats `json:"stats"`
}

// WireShardInfo acknowledges a shard handshake or an adopt: the
// cluster's worker-slot modulus and the slots this session hosts now.
type WireShardInfo struct {
	Count   int   `json:"count"`
	Workers []int `json:"workers"`
}

// WireHandoff carries a draining session's slot snapshots (worker slot
// → base64 blob), produced by {"cmd":"handoff"} and re-planted
// elsewhere with {"cmd":"adopt"}. EvID is the donor session's event-ID
// counter: the adopting session bumps its own counter past it, so
// post-migration events keep sorting after pre-migration vertices in
// the engines' ID-tie-broken summary trees (fold order, and so float
// bit-identity, depends on it).
type WireHandoff struct {
	Blobs map[string]string `json:"blobs"`
	EvID  uint64            `json:"evid,omitempty"`
}

// shardState is a shard-mode session's slot table.
type shardState struct {
	n0    int                     // cluster worker-slot modulus (fixed at handshake)
	hosts map[int]*core.ShardHost // worker slot → host
}

// slots returns the hosted worker slots, sorted — every fan-out
// iterates in slot order so durable output is deterministic.
func (sh *shardState) slots() []int {
	ws := make([]int, 0, len(sh.hosts))
	for w := range sh.hosts {
		ws = append(ws, w)
	}
	slices.Sort(ws)
	return ws
}

// discardLocked silently drops every hosted slot (session teardown or
// finish; a handed-off slot's state lives on elsewhere).
func (sh *shardState) discardLocked() {
	for _, h := range sh.hosts {
		h.Discard()
	}
	sh.hosts = map[int]*core.ShardHost{}
}

// shardFrame reports whether cmd is routed to the shard handler once
// shard mode is on. Batch frames have a handler of their own
// (handleBatchLocked), which reads their route info in a shard session;
// event lines a shard session refuses: no coordinator sends one.
func shardFrame(cmd string) bool {
	switch cmd {
	case "sreg", "sclose", "barrier", "eos", "handoff", "adopt":
		return true
	}
	return false
}

// handleShardLine processes one shard-mode frame under sess.mu. Every
// shard frame — lifecycle commands included — rides the client-seq
// discipline, so a resumed link replays its unacked tail and each
// frame applies exactly once.
func (sess *session) handleShardLine(we *WireEvent) {
	if we.Cmd == "shard" {
		switch {
		case !sess.srv.AllowShard:
			sess.sendLocked(WireLine{Error: "shard: disabled on this server"}, false)
			return
		case !sess.resumable:
			sess.sendLocked(WireLine{Error: `shard: requires a resumable session (send {"cmd":"session"} first)`}, false)
			return
		case sess.shard != nil:
			sess.sendLocked(WireLine{Error: "shard: already enabled"}, false)
			return
		}
	} else if sess.shard == nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("%q: not a shard session", we.Cmd)}, false)
		return
	}
	if sess.admitLocked("shard frame", we.Seq) {
		sess.applyShardFrameLocked(we)
		sess.lastSeq = we.Seq
	}
}

// applyShardFrameLocked dispatches one admitted (in-sequence, not
// duplicate) shard frame; sess.mu held. Failures surface as error
// lines — the coordinator treats them as fatal link faults — but the
// frame's seq is consumed either way, keeping the cursor contiguous.
func (sess *session) applyShardFrameLocked(we *WireEvent) {
	switch we.Cmd {
	case "shard":
		if we.Count <= 0 {
			sess.sendLocked(WireLine{Error: "shard: count must be positive"}, false)
			return
		}
		sh := &shardState{n0: we.Count, hosts: map[int]*core.ShardHost{}}
		for _, w := range we.Workers {
			if w < 0 || w >= we.Count {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("shard: worker slot %d out of range [0,%d)", w, we.Count)}, false)
				return
			}
			if _, dup := sh.hosts[w]; dup {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("shard: duplicate worker slot %d", w)}, false)
				return
			}
			sh.hosts[w] = core.NewShardHost(w, sess.emitPartial)
		}
		sess.shard = sh
		sess.sendLocked(WireLine{Shard: &WireShardInfo{Count: sh.n0, Workers: sh.slots()}}, true)
	case "sreg":
		// Fan the unit out to every hosted slot, stamping the
		// coordinator's watermark (we.Time) first so a mid-stream
		// registration cuts at the same instant on every slot.
		for _, w := range sess.shard.slots() {
			h := sess.shard.hosts[w]
			h.ObserveTime(we.Time)
			if err := h.Register(we.SI, we.GI, we.Query, we.ID, we.Exact, we.Force); err != nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("sreg %s: %v", we.ID, err)}, false)
				return
			}
		}
		sess.sendLocked(WireLine{Registered: &WireRegistered{ID: we.ID, Query: we.Query}}, true)
	case "sclose":
		for _, w := range sess.shard.slots() {
			h := sess.shard.hosts[w]
			st, err := h.CloseUnit(we.SI)
			if err != nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("sclose %d: %v", we.SI, err)}, false)
				return
			}
			// Open windows flushed as partials above; the MaxInt64 ack
			// releases them all, then the final counters fold.
			sess.sendLocked(WireLine{Ack: &WireAck{SI: we.SI, W: w, Hi: math.MaxInt64}}, true)
			sess.sendLocked(WireLine{UnitStats: &WireUnitStats{SI: we.SI, W: w, Stats: st}}, true)
		}
	case "barrier":
		for _, w := range sess.shard.slots() {
			sess.shard.hosts[w].Barrier(we.SI, we.Time)
			sess.sendLocked(WireLine{Ack: &WireAck{SI: we.SI, W: w, Hi: we.Hi, T: we.Time}}, true)
		}
	case "eos":
		for _, w := range sess.shard.slots() {
			h := sess.shard.hosts[w]
			for _, si := range h.Units() {
				h.FlushUnit(si)
				st, _ := h.UnitStats(si)
				sess.sendLocked(WireLine{Ack: &WireAck{SI: si, W: w, Hi: math.MaxInt64}}, true)
				sess.sendLocked(WireLine{UnitStats: &WireUnitStats{SI: si, W: w, Stats: st}}, true)
			}
		}
	case "handoff":
		sh := sess.shard
		blobs := make(map[string]string, len(sh.hosts))
		for _, w := range sh.slots() {
			b, err := sh.hosts[w].Snapshot()
			if err != nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("handoff: slot %d: %v", w, err)}, false)
				return
			}
			blobs[strconv.Itoa(w)] = base64.StdEncoding.EncodeToString(b)
		}
		// The snapshots are on the durable output path (replayed on
		// resume) before the slots are dropped, so the state survives a
		// link break mid-handoff.
		sh.discardLocked()
		sess.sendLocked(WireLine{Handoff: &WireHandoff{Blobs: blobs, EvID: sess.evID}}, true)
	case "adopt":
		sh := sess.shard
		if we.EvID > sess.evID {
			sess.evID = we.EvID
		}
		// In slot-key order: a refusal names the same slot, and leaves the
		// same slots adopted, whatever the map's order.
		for _, ws := range slices.Sorted(maps.Keys(we.Blobs)) {
			blob := we.Blobs[ws]
			w, err := strconv.Atoi(ws)
			if err != nil || w < 0 || w >= sh.n0 {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("adopt: bad worker slot %q", ws)}, false)
				return
			}
			if _, dup := sh.hosts[w]; dup {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("adopt: slot %d already hosted", w)}, false)
				return
			}
			raw, err := base64.StdEncoding.DecodeString(blob)
			if err != nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("adopt: slot %d: %v", w, err)}, false)
				return
			}
			h, err := core.AdoptShardHost(raw, sess.emitPartial)
			if err != nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("adopt: slot %d: %v", w, err)}, false)
				return
			}
			if h.W() != w {
				h.Discard()
				sess.sendLocked(WireLine{Error: fmt.Sprintf("adopt: blob for slot %d keyed as %d", h.W(), w)}, false)
				return
			}
			sh.hosts[w] = h
		}
		sess.sendLocked(WireLine{Shard: &WireShardInfo{Count: sh.n0, Workers: sh.slots()}}, true)
	}
}

// emitPartial ships one worker-slot partial window to the coordinator.
// It runs inside engine calls made under sess.mu (barrier advance,
// flush, close), so the durable partial is ordered before the covering
// ack on the wire.
func (sess *session) emitPartial(w, si int, r greta.Result) {
	b, err := sess.shard.hosts[w].MarshalPartial(si, r.Payload)
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("partial encode: %v", err)}, false)
		return
	}
	sess.sendLocked(WireLine{Partial: &WirePartial{
		SI: si, W: w, Group: r.Group, Wid: r.Wid,
		Payload: base64.StdEncoding.EncodeToString(b),
	}}, true)
}

// applyShardBatchLocked applies one pre-routed columnar batch frame:
// each (group, hash) pair of a row targets the hosted slot hash%n0 —
// the same placement RunParallel's feedWorkers computes, so an N-shard
// cluster partitions identically to an N-worker single-process run.
// Rows bind to a cached schema; the slots' graphs retain pointers to
// them. A row is carved off the session's slabs like an event line's
// event (newEventLocked), and its slab comes back to the carver once
// every hosted slot's horizon has passed it: the slots' windows are
// what holds a row. A link's frames change shape every few rows and
// half of them carry one row: laid out as an event batch (16 rows at
// the least) or in slabs of the frame's exact size, such a frame costs
// three to five allocations; off the session's slabs, nothing in the
// steady state.
func (sess *session) applyShardBatchLocked(bl *batchLine) {
	n := len(bl.times)
	if len(bl.rowEnd) != n {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: route info for %d of %d rows", len(bl.rowEnd), n)}, false)
		return
	}
	sh := sess.shard
	sch := event.InternShape(&sess.shapes, bl.typ, bl.nums, bl.strs)
	k := 0
	for i, t := range bl.times {
		sess.evID++
		ev := sess.newEventLocked(t, len(sch.Numeric), len(sch.Strings), n-i)
		ev.ID, ev.Type, ev.Sch = sess.evID, sch.Type, sch
		sess.fillRowLocked(bl, i, ev)
		for ; k < bl.rowEnd[i]; k++ {
			slot := int(bl.rhs[k] % uint64(sh.n0))
			host := sh.hosts[slot]
			if host == nil {
				sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: slot %d not hosted here", slot)}, false)
				return
			}
			host.Apply(ev, bl.rgs[k:k+1], bl.rhs[k:k+1])
		}
		sess.processed++
	}
}
