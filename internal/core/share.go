package core

import (
	"fmt"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/share"
)

// This file wires the shared sub-plan network (internal/share) into
// the Runtime: statements whose trend-formation signatures match are
// served by ONE engine — vertices, edges, pane summaries, and pools
// maintained once — with per-statement RETURN divergence handled by
// fanning the shared per-window payload out through each subscriber's
// slot mapping at window close.
//
// Lifecycle model. The first registration of a signature stays an
// ordinary exclusive statement and is recorded as a *candidate*. A
// second compatible registration in the same ingest epoch (no event
// processed in between, so both engines are provably cold) *promotes*
// the candidate: a fresh engine is compiled against the union
// aggregation definition of all subscribers and replaces the
// candidate's engine in its route group, hidden behind an internal
// host statement. Further same-epoch registrations rebuild the union
// the same way. Once an event is processed, the node stops accepting
// subscribers (share.Index epochs): a statement registered mid-stream
// opens a NEW candidate — joining a warm graph would hand it history
// its PR-4 watermark contract forbids — seeded at the registration
// watermark exactly like any other mid-stream statement.
//
// What disqualifies sharing: composite plans (disjunction/conjunction
// are several engines behind one statement — branches and products
// composed per window by the statement's own merger — not one graph a
// second statement could subscribe to), negative sub-patterns (a
// detaching subscriber's flush would have to fold invalidation
// watermarks the surviving subscribers must not see yet). Those
// statements register exclusively, exactly as before.

// shareRec is the share-index entry: a cold candidate statement, or
// the promoted shared graph it turned into.
type shareRec struct {
	cand  *Stmt
	entry *sharedEntry
}

// sharedEntry is one shared graph and its subscribers.
type sharedEntry struct {
	rt    *Runtime
	query *query.Query // representative query (trend formation only)
	mode  aggregate.Mode
	force bool

	// def is the union aggregation definition: every subscriber's
	// RETURN slots planned into one payload layout.
	def *aggregate.Def
	// host is the internal statement that owns the shared engine inside
	// the route group; it never appears in Runtime.Statements().
	host *Stmt
	subs []*Stmt
	node *share.Node[*shareRec]

	flushed bool
}

// shareable reports whether a plan may enter the shared network (see
// the disqualifier list above).
func shareable(plan *Plan) bool {
	return plan.Simple() && len(plan.Subs) == 1
}

// shareKeyOf renders the sharing key of a registration.
func shareKeyOf(plan *Plan, cfg StmtConfig) string {
	return share.Key(plan.Query, plan.Mode, cfg.ForceVertexScan)
}

// registerShared attaches plan through the shared network: it joins an
// attachable node when one exists, otherwise registers exclusively and
// records the statement as the signature's candidate. rt.mu held.
func (rt *Runtime) registerShared(plan *Plan, cfg StmtConfig, key string) (*Stmt, error) {
	if node, ok := rt.shareIdx.Attachable(key); ok {
		st, err := rt.attachShared(node, plan, cfg)
		if err == nil {
			return st, nil
		}
		// Defensive: a rebuild failure (the representative query no
		// longer compiles, which deterministic planning rules out) falls
		// back to an exclusive engine rather than failing registration.
	}
	st := rt.adoptLocked(newStmtEngine(plan, cfg), cfg.ID)
	st.srcPlan = plan
	st.noRetain = cfg.NoRetain
	st.shareNode = rt.shareIdx.Put(key, &shareRec{cand: st})
	return st, nil
}

// newStmtEngine builds a statement's private engine from its config.
func newStmtEngine(plan *Plan, cfg StmtConfig) *Engine {
	eng := NewEngine(plan)
	eng.SetForceVertexScan(cfg.ForceVertexScan)
	eng.setRetainResults(!cfg.NoRetain)
	return eng
}

// attachShared joins an attachable node: promoting its candidate into
// a shared entry if needed, then rebuilding the union engine with the
// new subscriber included. rt.mu held.
func (rt *Runtime) attachShared(node *share.Node[*shareRec], plan *Plan, cfg StmtConfig) (*Stmt, error) {
	rec := node.Val
	st := &Stmt{rt: rt, srcPlan: plan, noRetain: cfg.NoRetain, parPrev: rt.watermark}
	// Prospective subscriber set: the current ones (or the candidate
	// about to be promoted) plus the new statement.
	var subs []*Stmt
	if rec.entry != nil {
		subs = append(subs, rec.entry.subs...)
	} else {
		subs = append(subs, rec.cand)
	}
	subs = append(subs, st)

	e := rec.entry
	if e == nil {
		cand := rec.cand
		e = &sharedEntry{
			rt:    rt,
			query: cand.srcPlan.Query,
			mode:  cand.srcPlan.Mode,
			force: cfg.ForceVertexScan,
			node:  node,
		}
	}
	// Build the union engine before mutating any bookkeeping, so a
	// failure leaves the runtime untouched.
	eng, def, outs, err := e.buildUnion(subs)
	if err != nil {
		return nil, err
	}

	if rec.entry == nil {
		// Promote: hide the shared engine behind an internal host
		// statement occupying the candidate's route-group slot. The
		// candidate's cold private engine is discarded.
		cand := rec.cand
		host := &Stmt{rt: rt, id: "~" + node.Key(), grp: cand.grp, parPrev: rt.watermark}
		e.host = host
		for i, m := range cand.grp.members {
			if m == cand {
				cand.grp.members[i] = host
				break
			}
		}
		cand.grp = nil
		cand.entry = e
		rec.cand, rec.entry = nil, e
	}
	st.entry = e
	e.subs = subs
	e.def = def
	for i, sub := range e.subs {
		sub.outs = outs[i]
		sub.eng = eng
	}
	e.host.eng = eng

	rt.enrollLocked(st, cfg.ID)
	return st, nil
}

// buildUnion compiles a fresh shared engine for the subscriber set:
// one plan from the representative query, its aggregation definition
// extended with every subscriber's RETURN slots, and per-subscriber
// output mappings. Rebuilding from scratch is safe because attach only
// happens while the previous engine is cold (same ingest epoch), and
// cheap for the same reason registration itself is.
func (e *sharedEntry) buildUnion(subs []*Stmt) (*Engine, *aggregate.Def, [][]aggregate.SpecSlot, error) {
	plan, err := NewPlan(e.query, e.mode)
	if err != nil {
		return nil, nil, nil, err
	}
	if !plan.Simple() || len(plan.Subs) != 1 {
		return nil, nil, nil, fmt.Errorf("greta: shared plan is not a single positive graph")
	}
	def := plan.Def()
	// The engine computes no values of its own: subscribers extract
	// theirs from the emitted payload through their slot mappings.
	plan.Specs = nil
	outs := make([][]aggregate.SpecSlot, len(subs))
	for i, sub := range subs {
		outs[i] = def.PlanSpecs(sub.srcPlan.Query.Aggs)
	}
	// Slots are final: compile the engine (its specs snapshot the slot
	// layout) and wire delivery.
	eng := NewEngine(plan)
	eng.SetForceVertexScan(e.force)
	eng.setRetainResults(false)
	eng.OnResult(e.fanout)
	if e.rt.watermark >= 0 {
		eng.setWatermark(e.rt.watermark)
	}
	return eng, def, outs, nil
}

// fanout delivers one shared window result to every subscriber, each
// with its own RETURN values extracted from the shared payload.
func (e *sharedEntry) fanout(r Result) {
	for _, sub := range e.subs {
		rs := r
		rs.Values = e.def.Values(r.Payload, sub.outs)
		sub.deliver(rs)
	}
}

// flushFinal flushes the shared engine once, emitting every open
// window to all attached subscribers. Idempotent.
func (e *sharedEntry) flushFinal() {
	if e.flushed {
		return
	}
	e.flushed = true
	e.host.eng.Flush()
}

// detachFlush emits the closing subscriber's open windows without
// consuming shared state: every open window's final payload is peeked
// (cloned), merged per group exactly as closeWindow would, and
// delivered to the one detaching subscriber. The surviving subscribers
// later receive the same windows — grown by post-detach events —
// through the ordinary emit path.
func (e *sharedEntry) detachFlush(st *Stmt) {
	e.host.eng.peekFlushInto(func(group string, wid int64, pl *aggregate.Payload) {
		r := e.host.eng.result(group, wid, pl)
		r.Values = e.def.Values(pl, st.outs)
		st.deliver(r)
	})
}
