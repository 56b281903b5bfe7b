package core

import (
	"math"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/share"
)

// source is one GRETA graph hosted by a Runtime and the statements
// subscribed to it: every registered statement is a subscriber of
// exactly one source, and a route group (or rt.direct, for a composite
// plan) holds the source, not its statements. See doc.go for the
// lifecycle and what the sharing rules protect.
type source struct {
	rt   *Runtime
	eng  *Engine
	grp  *routeGroup // nil for a composite plan (rt.direct)
	subs []*Stmt     // registration order; never empty while the source is placed

	// key is the sharing key the source opened under ("": it takes no
	// second subscriber) and epoch the ingest epoch it opened in.
	key   string
	epoch uint64
	force bool

	// union: the engine was compiled against the union aggregation
	// definition of several subscribers' RETURN clauses and computes no
	// values of its own — each subscriber reads its values out of the
	// emitted payload through Stmt.outs. Otherwise the engine is compiled
	// from the one subscriber's own plan and its values are the
	// statement's. The bit stays set when a union shrinks to one.
	union bool

	// A batch segment's sweep (segFan) writes these on whichever
	// goroutine runs it: what the sweep took and the processor it ran on
	// (they order and place the next segment's sweep), the results its
	// closes built, held for the caller to deliver after the join, and a
	// panic a helper recovered, with the stack that raised it.
	cost       time.Duration
	cpu        int
	parked     []parkedResult
	panicked   any
	panicStack []byte

	retired bool
}

// parkedResult is one delivery a segment sweep built and left to the
// caller.
type parkedResult struct {
	st *Stmt
	r  Result
}

// shareKey renders the sharing key of a registration, "" for one that
// does not share: sharing switched off, or a plan no second statement
// could subscribe to — a composite plan is several engines composed per
// window by the statement's own merger, and under a negative sub-pattern
// a subscriber leaving early would have to fold invalidation watermarks
// the others must not see yet.
func shareKey(plan *Plan, cfg StmtConfig) string {
	if !cfg.Share || !plan.Simple() || len(plan.Subs) != 1 {
		return ""
	}
	return share.Key(plan.Query, plan.Mode, cfg.ForceVertexScan)
}

// subscribe registers a statement for plan as one more subscriber of
// into, or — into nil — of a new source compiled from plan itself and
// opened under key. rt.mu held; the caller has dealt with cfg.ID.
func (rt *Runtime) subscribe(into *source, key string, plan *Plan, cfg StmtConfig) (*Stmt, error) {
	st := &Stmt{rt: rt, src: into, srcPlan: plan, noRetain: cfg.NoRetain}
	st.more.L = &st.mu
	if into != nil {
		if err := into.attach(st); err != nil {
			return nil, err
		}
	} else {
		s := &source{rt: rt, subs: []*Stmt{st}, key: key, epoch: rt.epoch, force: cfg.ForceVertexScan}
		st.src = s
		s.setEngine(NewEngine(plan))
		if plan.Simple() {
			s.grp = rt.routeGroupFor(s.eng)
			s.grp.members = append(s.grp.members, s)
		} else {
			rt.direct = append(rt.direct, s)
		}
		if key != "" {
			rt.shared[key] = s
		}
	}
	rt.enrollLocked(st, cfg.ID)
	return st, nil
}

// setEngine makes eng the source's engine: it delivers through the
// source's fan-out and nowhere else, and starts at the runtime's
// watermark.
func (s *source) setEngine(eng *Engine) {
	eng.SetForceVertexScan(s.force)
	eng.sink = func(group string, wid int64, pl *aggregate.Payload) { s.fanout(s.subs, group, wid, pl) }
	if s.rt.watermark >= 0 {
		eng.setWatermark(s.rt.watermark)
	}
	s.eng = eng
}

// attach adds a subscriber to a cold source. Nothing changes when it
// fails.
func (s *source) attach(st *Stmt) error {
	s.subs = append(s.subs, st)
	if err := s.unite(); err != nil {
		s.subs = s.subs[:len(s.subs)-1]
		return err
	}
	return nil
}

// unite compiles the source's engine afresh for its subscriber set: one
// plan from the first subscriber's query (trend formation is the same
// for all), its aggregation definition extended with every subscriber's
// RETURN slots, and each subscriber's mapping into it. Replacing the
// engine is safe because the source is cold — no event has reached it —
// and cheap for the same reason registration is.
func (s *source) unite() error {
	first := s.subs[0].srcPlan
	plan, err := NewPlan(first.Query, first.Mode)
	if err != nil {
		return err
	}
	def := plan.Def()
	plan.Specs = nil
	for _, sub := range s.subs {
		sub.outs = def.PlanSpecs(sub.srcPlan.Query.Aggs)
	}
	// Slots are final: compile the engine (its specs snapshot the layout).
	s.union = true
	s.setEngine(NewEngine(plan))
	return nil
}

// fanout builds one window's Result and delivers it to subs — all of the
// source's when a window closes (the engine's sink), the leaving one
// under peekFlush — a union's with each subscriber's own RETURN values
// extracted from the shared payload. While a batch segment is in flight
// the deliveries are parked for the caller instead.
func (s *source) fanout(subs []*Stmt, group string, wid int64, pl *aggregate.Payload) {
	r := s.eng.result(group, wid, pl)
	for _, sub := range subs {
		if s.union {
			r.Values = s.eng.plan.Def().Values(pl, sub.outs)
		}
		if s.rt.fan.inFlight {
			s.parked = append(s.parked, parkedResult{sub, r})
			continue
		}
		sub.deliver(r)
	}
}

// peekFlush emits the open windows to one leaving subscriber without
// consuming the graph: every open window's final payload is peeked
// (cloned), merged per group exactly as a window close would, and
// delivered to st alone. The remaining subscribers later receive the
// same windows — grown by the events in between — through the sink.
// Only sources that take a second subscriber get here: simple,
// dependency-free plans, which have no pending invalidation to fold and no
// lazy final to compute, so the peek is exact.
func (s *source) peekFlush(st *Stmt) {
	one := []*Stmt{st}
	s.eng.sweep(sweepPeek, math.MaxInt64, 0, func(group string, wid int64, pl *aggregate.Payload) { s.fanout(one, group, wid, pl) })
}

// retire ends the source: one destructive flush through the fan-out,
// then it leaves its route group — which leaves the runtime when that
// empties it — and stops being the graph its key names. Idempotent.
func (s *source) retire() {
	if s.retired {
		return
	}
	s.retired = true
	s.eng.Flush()
	rt := s.rt
	if g := s.grp; g == nil {
		rt.direct = deleteFrom(rt.direct, s)
	} else if g.members = deleteFrom(g.members, s); len(g.members) == 0 {
		rt.groups = deleteFrom(rt.groups, g)
	}
	if rt.shared[s.key] == s {
		delete(rt.shared, s.key)
	}
}
