package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// Result is one final aggregate: per group, per window (paper
// Definition 2: "These trends are grouped by the values of G. An
// aggregate is computed per group"; §6: "Final aggregate is computed
// per window").
//
// Group carries the GROUP-BY attribute values. Equivalence attributes
// ([company, sector]) partition trend formation but do not appear in
// the output grouping unless they are also GROUP-BY attributes: Q1
// forms down-trends per company yet reports one count per sector.
type Result struct {
	Group       string
	Wid         int64
	WindowStart event.Time
	WindowEnd   event.Time
	// Values holds one value per RETURN aggregate, in query order.
	Values []float64
	// Payload is the raw final payload (exact values in ModeExact).
	Payload *aggregate.Payload
	// Emitted is the wall-clock emission instant, used by the harness to
	// measure latency.
	Emitted time.Time
}

// Stats aggregates runtime statistics over all partitions and graphs.
// PeakVertices/PeakPayloads are the engine-level concurrent peaks,
// sampled at window boundaries (and at flush): the true maximum of
// simultaneously stored state, not the sum of per-partition peaks that
// occurred at different times. After RunParallel they are the sum of
// the workers' sampled peaks — an upper bound, since workers run
// concurrently but peak at different instants.
type Stats struct {
	Events     uint64
	OutOfOrder uint64 // events dropped for violating time order
	Inserted   uint64
	Edges      uint64 // logical edges, however aggregated
	// ScanVisits / SummaryFolds / SummaryRebuilds split the cost of
	// maintaining Edges into materialized per-vertex visits, O(1)
	// summary folds (each fold covers any number of logical edges), and
	// lazy in-place pane-summary rebuilds after invalidation watermark
	// advances; see GraphStats.
	ScanVisits      uint64
	SummaryFolds    uint64
	SummaryRebuilds uint64
	PeakVertices    uint64
	PeakPayloads    uint64
	// PrefilterSkips counts batch-ingest rows the vectorized predicate
	// pre-filter proved unable to match any state, skipping partition
	// graph insertion entirely (the row is still counted in Events and
	// advances every clock, so results and all other counters are
	// bit-identical to the per-event path). Not serialized in
	// checkpoints: the batch segmentation of a replay may differ from
	// the original run's, and checkpoint bytes must not.
	PrefilterSkips uint64
	Partitions     int
	// Results counts emitted results. It is a counter, not len(results):
	// a statement registered without retention still reports every
	// emission here.
	Results int
	// SharedStatements is the number of statements this statement's graph
	// served when the statement left it — or serves now — itself
	// included: 2 then 1 as a graph shared by two is closed one by one, 2
	// and 2 when the runtime closes both at once. 0 only for a statement
	// whose graph never had a second subscriber. Set at the statement
	// level (Stmt.Stats) — engines do not know their subscribers.
	SharedStatements int
}

// Engine executes a compiled Plan over an in-order event stream
// (the GRETA Runtime, paper Fig. 4).
type Engine struct {
	plan *Plan

	// simple plan state: the partitions (see partition.go) and the graph
	// processing order, negatives before parents.
	parts partTable
	order []int

	// cspecs holds the per-engine compiled form of each plan sub-spec,
	// shared by that spec's graphs across all partitions.
	cspecs []*compiledSpec

	// prefilters caches the per-schema vectorized predicate pre-filter
	// of the batch ingest path, including its pooled selection bitmaps
	// (one entry per distinct batch schema seen; linear scan — batch
	// sources use a handful of schemas at most). See batch.go.
	prefilters []*batchPrefilter

	// composite plan state (disjunction / conjunction, §9): the branch
	// engines, then the product engines — the index is the engine's slot in
	// merge, which folds each closed window's partials with compose.
	subs     []*Engine
	branches int
	merge    *SlotMerge

	partAttrs []string // partition key attributes (group-by + equivalence)

	prevTime event.Time // window-close cursor
	// floor is the earliest time the engine can admit: the watermark it
	// was seeded with (setWatermark), −∞ for one that started with the
	// stream or was restored (horizon).
	floor event.Time

	// forceScan disables the summary fast path in all graphs (see
	// SetForceVertexScan).
	forceScan bool

	// sink, set by whoever hosts the engine — a Runtime source, a
	// composite engine for its sub-engines — takes every closed window's
	// payload; the engine then builds no Result, retains nothing and calls
	// nothing else. A standalone engine (sink nil) retains and calls onResult.
	sink     func(group string, wid int64, payload *aggregate.Payload)
	onResult func(Result)
	results  []Result
	// emitted counts emissions independently of retention.
	emitted int

	// sweep's scratch, reused from close to close: the payloads taken so
	// far per window and output group, spare group maps, and a wid and a
	// name slice.
	swWins  map[int64]map[string]*aggregate.Payload
	swSpare []map[string]*aggregate.Payload
	swWids  []int64
	swNames []string

	stats Stats
}

// NewEngine builds an engine for plan.
func NewEngine(plan *Plan) *Engine {
	e := &Engine{plan: plan, prevTime: -1, floor: math.MinInt64, swWins: map[int64]map[string]*aggregate.Payload{}}
	e.partAttrs = append(append([]string{}, plan.GroupBy...), plan.Query.Equivalence...)
	e.parts = newPartTable(e.partAttrs, e.wirePartition)
	if !plan.Simple() {
		e.branches = len(plan.Branches)
		for slot, sp := range slices.Concat(plan.Branches, plan.Products) {
			se := NewEngine(sp)
			se.sink = func(group string, wid int64, pl *aggregate.Payload) { e.merge.Add(slot, group, wid, pl) }
			e.subs = append(e.subs, se)
		}
		e.merge = NewSlotMerge(e, len(e.subs), e.compose)
		return e
	}
	// Dependency order: deeper (negative) graphs first. Split appends
	// children after parents, so descending index order processes every
	// negative graph before the graphs that depend on it — the §7
	// stream-transaction ordering guarantee, fixed at plan time.
	for i := len(plan.Subs) - 1; i >= 0; i-- {
		e.order = append(e.order, i)
	}
	// Compile each sub-spec once per engine; partitions share the result.
	e.cspecs = make([]*compiledSpec, len(plan.Subs))
	for i, spec := range plan.Subs {
		e.cspecs[i] = newCompiledSpec(spec, plan.Subs, plan.Sem)
	}
	return e
}

// SetForceVertexScan disables the pane-summary/subtree-fold fast path:
// every candidate predecessor is visited per vertex, as if the trees
// were unaugmented. Results are identical either way (the differential
// tests lock this in); the knob exists for those tests and for
// debugging. Call before the first Process.
func (e *Engine) SetForceVertexScan(on bool) {
	e.forceScan = on
	for _, se := range e.subs {
		se.SetForceVertexScan(on)
	}
}

// OnResult registers a callback invoked for every result a standalone
// engine emits (as soon as the window closes). Results are also
// collected for Results(). An engine hosted by a Runtime delivers to its
// source instead: use Stmt.OnResult there.
func (e *Engine) OnResult(f func(Result)) { e.onResult = f }

// wirePartition instantiates the graphs of a new partition, wires
// their dependencies and derives its output group (partTable.wire).
func (e *Engine) wirePartition(p *partition) {
	p.group = groupPrefix(p.key, len(e.plan.GroupBy), len(e.partAttrs))
	p.graphs = make([]*Graph, len(e.plan.Subs))
	for i, spec := range e.plan.Subs {
		p.graphs[i] = newGraph(spec, e.cspecs[i], e.plan.Window, e.plan.Sem)
		p.graphs[i].forceScan = e.forceScan
	}
	for i, spec := range e.plan.Subs {
		for _, dep := range spec.Deps {
			p.graphs[i].addDep(p.graphs[dep], dep)
		}
	}
}

// Process offers one event to the engine. Events must arrive in
// non-decreasing time order (paper §2: out-of-order handling is
// delegated to upstream mechanisms); a late event would corrupt
// already-propagated aggregates, so it is counted and dropped.
func (e *Engine) Process(ev *event.Event) {
	if !e.admit(ev) {
		return
	}
	if !e.plan.Simple() {
		for _, se := range e.subs {
			se.Process(ev)
		}
		return
	}
	k := e.parts.read(ev)
	e.applyRow(ev, e.parts.get(k.hash(), k))
}

// ProcessRouted is Process with the partition-routing hash already
// computed (the Runtime, RunParallel and the cluster coordinator hash
// once per route group and forward the hash with the event). Only
// valid for simple plans; h must equal HashRoute of the event.
func (e *Engine) ProcessRouted(ev *event.Event, h uint64) {
	if e.admit(ev) {
		e.applyRow(ev, e.parts.get(h, e.parts.read(ev)))
	}
}

// admit counts ev and closes the windows it ends, or counts it dropped
// as late and returns false.
func (e *Engine) admit(ev *event.Event) bool {
	if ev.Time < e.prevTime {
		e.stats.OutOfOrder++
		return false
	}
	e.stats.Events++
	e.closeUpTo(ev.Time)
	return true
}

// applyRow inserts ev into partition p's graphs, dependency-ordered:
// all graphs a graph depends on see the event first
// (stream-transaction ordering, §7). Every entry point — Process,
// ProcessRouted, a batch segment's row — ends here.
func (e *Engine) applyRow(ev *event.Event, p *partition) {
	for _, idx := range e.order {
		p.graphs[idx].Process(ev)
	}
}

// closeUpTo is the engine's one clock step: the windows that ended by t
// close. A simple plan sweeps its partitions. A composite moves its
// sub-engines' clocks — each files its closed windows' partials into the
// merger — then acknowledges those windows on every slot, so the merger
// composes and emits them; all slots share this one clock, which is why
// the merger is empty whenever control returns to the caller.
func (e *Engine) closeUpTo(t event.Time) {
	_, hi, ok := e.plan.Window.ClosedBy(e.prevTime, t)
	for _, se := range e.subs {
		se.AdvanceTo(t)
	}
	switch {
	case !ok:
	case e.plan.Simple():
		e.sweep(sweepClose, hi, t, e.emit)
	default:
		e.ackAll(hi)
	}
	e.prevTime = t
}

// sweepKind is what one pass over the partitions does to them.
type sweepKind uint8

const (
	sweepClose sweepKind = iota // the windows up to hi ended at t
	sweepFlush                  // the stream ended
	sweepPeek                   // a subscriber leaves; the graph stays as it is
)

// sweep is the one pass over the partitions, in creation order, that
// closes, flushes or peeks windows up to hi. For each partition it
//
//  1. samples the footprint (close, flush): the engine-level concurrent
//     peak — summing per-graph peaks would overstate it, since partitions
//     peak at different times, and state is largest just before expiry;
//  2. folds every pending invalidation (flush);
//  3. takes graph 0's windows up to hi — the prefix of its finals, in
//     ascending wid order — consumed, or cloned by a peek;
//  4. advances every graph to t, expiring its panes (close).
//
// The payloads of one (window, group) merge in partition order into the
// first one taken, and the rest go back to the pool. Then sink receives
// the windows in ascending order, groups sorted within each.
func (e *Engine) sweep(kind sweepKind, hi int64, t event.Time, sink func(group string, wid int64, payload *aggregate.Payload)) {
	def := e.plan.Def()
	var verts, pays uint64
	for _, p := range e.parts.all() {
		for _, g := range p.graphs {
			if kind != sweepPeek {
				verts += g.stats.Vertices
				pays += g.stats.Payloads
			}
			if kind == sweepFlush {
				g.FoldAll()
			}
		}
		root := p.graphs[0]
		upTo := 0
		for upTo < len(root.finals) && root.finals[upTo].wid <= hi {
			upTo++
		}
		for _, f := range root.finals[:upTo] {
			pl := root.take(f, kind == sweepPeek)
			if pl == nil {
				continue
			}
			groups := e.swWins[f.wid]
			if groups == nil {
				if n := len(e.swSpare); n > 0 {
					groups, e.swSpare = e.swSpare[n-1], e.swSpare[:n-1]
				} else {
					groups = map[string]*aggregate.Payload{}
				}
				e.swWins[f.wid] = groups
			}
			if cur := groups[p.group]; cur == nil {
				groups[p.group] = pl
			} else {
				def.Merge(cur, pl)
				root.cs.pool.Put(pl)
			}
		}
		if kind != sweepPeek {
			root.finals = slices.Delete(root.finals, 0, upTo)
		}
		if kind == sweepClose {
			for _, g := range p.graphs {
				g.Advance(t)
			}
		}
	}
	e.stats.PeakVertices = max(e.stats.PeakVertices, verts)
	e.stats.PeakPayloads = max(e.stats.PeakPayloads, pays)

	wids := e.swWids[:0]
	for wid := range e.swWins {
		wids = append(wids, wid)
	}
	slices.Sort(wids)
	for _, wid := range wids {
		groups := e.swWins[wid]
		names := e.swNames[:0]
		for name := range groups {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			sink(name, wid, groups[name])
		}
		clear(groups)
		e.swSpare = append(e.swSpare, groups)
		e.swNames = names
	}
	clear(e.swWins)
	e.swWids = wids
}

// ackAll acknowledges windows up to hi on every slot of the merger.
func (e *Engine) ackAll(hi int64) {
	for slot := range e.subs {
		e.merge.Ack(slot, hi)
	}
}

// result materializes the Result of a window's final payload.
func (e *Engine) result(group string, wid int64, payload *aggregate.Payload) Result {
	return Result{
		Group:       group,
		Wid:         wid,
		WindowStart: e.plan.Window.Start(wid),
		WindowEnd:   e.plan.Window.End(wid),
		Payload:     payload,
		Emitted:     time.Now(),
		Values:      e.plan.Def().Values(payload, e.plan.Specs),
	}
}

// emit is the one way a window's result leaves an engine: counted, then
// handed to the engine's host, or retained and handed to the callback.
func (e *Engine) emit(group string, wid int64, payload *aggregate.Payload) {
	e.emitted++
	if e.sink != nil {
		e.sink(group, wid, payload)
		return
	}
	r := e.result(group, wid, payload)
	e.results = append(e.results, r)
	if e.onResult != nil {
		e.onResult(r)
	}
}

// setWatermark seeds the engine's time cursor: events strictly older
// than t are dropped as out-of-order, and windows that ended at or
// before t are never emitted. The Runtime calls this when a statement
// registers mid-stream, so the statement sees only events from its
// registration watermark onward.
func (e *Engine) setWatermark(t event.Time) {
	e.prevTime, e.floor = t, t
	for _, se := range e.subs {
		se.setWatermark(t)
	}
}

// horizon is the earliest event time the engine's state can refer to,
// and whether the engine has admitted an event at all; one that has not
// holds none, and nothing it admits will be older than its floor. A
// simple plan's vertices live in panes, and every close expires the
// panes that end at or before OldestNeeded(prevTime) in every partition
// (sweep), so the rest start no earlier. An unbounded window expires
// nothing (its OldestNeeded is 0, not a bound), and a composite's
// vertices are its sub-engines'. See "One horizon" in doc.go.
func (e *Engine) horizon() (event.Time, bool) {
	switch {
	case e.stats.Events == 0:
		return e.floor, false
	case !e.plan.Simple():
		h := event.Time(math.MaxInt64)
		for _, se := range e.subs {
			sh, _ := se.horizon()
			h = min(h, sh)
		}
		return h, true
	case e.plan.Window.Unbounded():
		return e.floor, true
	}
	return max(e.floor, e.plan.Window.OldestNeeded(e.prevTime)), true
}

// AdvanceTo advances the engine's clock to t without offering an
// event: windows that ended at or before t close and emit. RunParallel
// workers run it on window barriers so partitions that received no
// recent events still release their windows to the streaming merge.
func (e *Engine) AdvanceTo(t event.Time) {
	if t > e.prevTime {
		e.closeUpTo(t)
	}
}

// Run consumes an entire stream and flushes.
func (e *Engine) Run(s event.Stream) {
	for ev := s.Next(); ev != nil; ev = s.Next() {
		e.Process(ev)
	}
	e.Flush()
}

// Flush closes all open windows in all partitions.
func (e *Engine) Flush() {
	for _, se := range e.subs {
		se.Flush()
	}
	if e.plan.Simple() {
		e.sweep(sweepFlush, math.MaxInt64, 0, e.emit)
	} else {
		e.ackAll(math.MaxInt64)
	}
	sortResults(e.results)
}

// Results returns all emitted results sorted by (group, wid).
func (e *Engine) Results() []Result {
	return e.results
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(a.Group, b.Group); c != 0 {
			return c
		}
		return cmp.Compare(a.Wid, b.Wid)
	})
}

// add folds o's counters into s. It is the one field list a new counter
// joins; a caller leaves a counter out by zeroing it on o first.
// SharedStatements is a topology figure, not a counter, and stays s's.
func (s *Stats) add(o Stats) {
	s.Events += o.Events
	s.OutOfOrder += o.OutOfOrder
	s.Inserted += o.Inserted
	s.Edges += o.Edges
	s.ScanVisits += o.ScanVisits
	s.SummaryFolds += o.SummaryFolds
	s.SummaryRebuilds += o.SummaryRebuilds
	s.PeakVertices += o.PeakVertices
	s.PeakPayloads += o.PeakPayloads
	s.PrefilterSkips += o.PrefilterSkips
	s.Partitions += o.Partitions
	s.Results += o.Results
}

// Stats returns accumulated runtime statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	if !e.plan.Simple() {
		// The composite counted each event and each drop once itself, and
		// the products (inclusion–exclusion intersections of the branches)
		// partition the stream exactly as the branches already do.
		for slot, se := range e.subs {
			ss := se.Stats()
			ss.Events, ss.OutOfOrder = 0, 0
			if slot >= e.branches {
				ss.Partitions = 0
			}
			s.add(ss)
		}
		s.Results = e.emitted
		return s
	}
	// Live partitions plus any folded in from worker slots
	// (Stmt.FoldRemoteStats) — each partition lives on exactly one
	// slot, so the sum is the true total.
	s.Partitions = e.stats.Partitions + len(e.parts.all())
	// Engine-level peaks are sampled at window boundaries (sweep);
	// fold in the current totals so an engine that never closed a window
	// still reports its live state.
	var verts, pays uint64
	for _, p := range e.parts.all() {
		for _, g := range p.graphs {
			gs := g.Stats()
			s.add(Stats{Inserted: gs.Inserted, Edges: gs.Edges, ScanVisits: gs.ScanVisits,
				SummaryFolds: gs.SummaryFolds, SummaryRebuilds: gs.SummaryRebuilds})
			verts += gs.Vertices
			pays += gs.Payloads
		}
	}
	if verts > s.PeakVertices {
		s.PeakVertices = verts
	}
	if pays > s.PeakPayloads {
		s.PeakPayloads = pays
	}
	s.Results = e.emitted
	return s
}
