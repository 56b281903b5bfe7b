package core

import (
	"math"
	"slices"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/btree"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/window"
)

// Vertex is a GRETA graph vertex: one matched event in one state, with
// one aggregate payload per window the event falls into (paper
// Definition 3 extended with sub-graph sharing, §6). It is one cache
// line (64 bytes), and what a candidate visit reads — the time, the
// presence bits and the payloads — is at most one hop from it: the event
// itself is loaded only to evaluate edge predicates.
type Vertex struct {
	Ev   *event.Event
	Time event.Time // Ev.Time
	// Aggs[i] is the payload of window pane.firstWid+i — the vertex's
	// windows are its pane's, the ones Time falls into — when Present has
	// entry i; otherwise the vertex carries no trends in that window (or
	// is invalid there). The block is the vertex's own: sized to the
	// window spec's K on first use and kept when the vertex is recycled.
	Aggs    []aggregate.Payload
	Present aggregate.Presence
	State   int32
	// closed marks vertices that already have an outgoing edge, used by
	// skip-till-next-match semantics (§9): an event extends the first
	// matchable continuation only.
	closed bool
	// fallback marks a tree key that is not the sort attribute's value
	// (sortKey): a subtree holding the vertex is visited per vertex
	// (vertexSum.fallback).
	fallback bool
}

// pane is one Time Pane (paper §7): all vertices of a fixed time
// interval, indexed per state by a Vertex Tree. On the summary fast
// path the trees are augmented (see vertexAug): each tree's root
// summary is the pane's per-(state, window) payload summary, and its
// interior nodes support range-bounded subtree folds.
//
// A pane never straddles a window boundary (its size divides
// gcd(Within, Slide)), so every event in it falls into the same windows,
// [firstWid, firstWid+k): its vertices store no window range of their own.
type pane struct {
	idx        int64
	start, end event.Time
	firstWid   int64
	trees      []*vtree // per template state; nil until the state's first vertex
	vertices   int
}

// final is one window's entry in Graph.finals: the window's final
// aggregate, accumulated incrementally (Theorem 4.3(2)) — or nil in a
// graph with a Case-2 dependency, which computes its finals lazily when
// the window is taken (lazyResult).
type final struct {
	wid int64
	p   *aggregate.Payload
}

// depKind classifies a graph dependency per paper §5.1.
type depKind uint8

const (
	depCase1 depKind = iota // SEQ(Pi, NOT N, Pj): previous and following
	depCase2                // SEQ(Pi, NOT N): previous only
	depCase3                // SEQ(NOT N, Pj): following only
)

// invalRecord is one finished negative trend batch: all trends of the
// negative graph ending at one END vertex (Definition 5). starts[i] is
// the latest trend start time in window firstWid+i (aggregate.NoStart
// when the window holds no finished trend).
type invalRecord struct {
	end      event.Time
	firstWid int64
	starts   []int64
}

// depLink connects a parent graph to one of its negative graphs and
// accumulates invalidation watermarks (the runtime realization of the
// Graph Dependencies Hash Table, paper §7).
type depLink struct {
	kind depKind
	// prevStates / follStates are state indices in the parent template;
	// nil means "all states" (Cases 2 and 3 invalidate whole events).
	// They point at the shared linkProto maps (read-only at runtime).
	prevStates map[int]bool
	follStates map[int]bool
	// prunable is true when events of the previous states may precede
	// only events of the following states, enabling invalid event
	// pruning (Theorem 5.1).
	prunable bool

	pending []invalRecord
	// maxStart per window: parent events older than this are invalid
	// (Cases 1 and 2). minEnd per window: parent events newer than this
	// are invalid (Case 3).
	maxStart map[int64]int64
	minEnd   map[int64]event.Time
	// startsFree recycles invalRecord.starts slices between the negative
	// graph's END vertices and foldPending, so steady-state invalidation
	// bursts allocate nothing.
	startsFree [][]int64
}

// getStarts returns a recycled (or new) starts slice of length k.
func (d *depLink) getStarts(k int) []int64 {
	if n := len(d.startsFree); n > 0 {
		s := d.startsFree[n-1]
		d.startsFree[n-1] = nil
		d.startsFree = d.startsFree[:n-1]
		if cap(s) >= k {
			return s[:k]
		}
	}
	return make([]int64, k)
}

// putStarts recycles a consumed starts slice.
func (d *depLink) putStarts(s []int64) {
	d.startsFree = append(d.startsFree, s)
}

// GraphStats tracks runtime costs for the evaluation harness. Peaks
// are tracked at the engine level (Engine.sweep), not per graph:
// per-graph peaks occur at different times, so their sum overstates
// the concurrent footprint.
type GraphStats struct {
	Events   uint64 // events offered to the graph
	Vertices uint64 // vertices currently stored
	Inserted uint64 // vertices ever inserted
	Edges    uint64 // logical edges (each exactly once, §7), however aggregated
	// Payloads counts window payloads currently held: one per
	// (vertex, window) the vertex carries trends in, plus the payloads
	// inside the augmented Vertex Trees' subtree summaries — the
	// structural memory of the graph, which the bench harness samples
	// for its footprint estimate.
	Payloads uint64
	// The three counters below split the cost of maintaining Edges:
	//   - ScanVisits counts materialized per-vertex candidate visits
	//     (the per-vertex scan and fold-path boundary descents), whether
	//     the visit re-checks the edge predicates or, for a key inside
	//     the fold range, only time adjacency (Graph.scanVisit).
	//   - SummaryFolds counts pane/subtree summary folds that each cover
	//     any number of logical edges in O(1).
	//   - SummaryRebuilds counts in-place pane-summary rebuilds after an
	//     invalidation watermark advance retracted stored contributions
	//     (lazy: paid once per affected pane per advance, not per event).
	ScanVisits      uint64
	SummaryFolds    uint64
	SummaryRebuilds uint64
}

// Graph is a runtime GRETA graph for one sub-pattern in one stream
// partition.
type Graph struct {
	spec     *GraphSpec
	def      *aggregate.Def
	win      window.Spec
	sem      query.Semantics
	paneSize event.Time

	panes []*pane

	// finals has an entry for each open window that received an END
	// vertex, in ascending wid order — at most ⌈WITHIN/SLIDE⌉ of them, since
	// a window leaves it when it closes (Engine.sweep takes the prefix).
	finals    []final
	lazyFinal bool

	deps       []*depLink // dependencies where this graph is the parent
	parentLink *depLink   // for negative graphs: the parent's depLink

	// wmVer is the graph's invalidation watermark version: bumped by
	// foldPending whenever a maxStart watermark advances. Subtree
	// summaries record the version their filtering is current under
	// (vertexSum.wmVer); a mismatch at fold time triggers lazy
	// revalidation or an in-place rebuild (refreshSummaries) instead of
	// an eager re-summarization on every foldPending.
	wmVer uint64

	prevTime    event.Time // last processed event time
	lastEventID uint64     // previous stream event id (contiguous semantics)

	// doomed is the reusable scratch for pruneInvalid's deferred
	// deletions (collecting during Ascend, deleting after).
	doomed []*Vertex

	// cs is the engine-level compiled form of spec (predicates and
	// accessors), shared by this spec's graphs across all partitions of
	// one engine — see compiledSpec for why that sharing is race-free.
	cs *compiledSpec

	// ins is the insertion scratch state read by scanFn; scanFn,
	// expireFn, and foldFn are created once so per-event tree scans
	// allocate no closures.
	ins      insertState
	scanFn   func(vitem) bool
	expireFn func(vitem) bool
	foldFn   func(*vertexSum) bool

	// forceScan disables the summary fast path for this graph
	// (Engine.SetForceVertexScan): every candidate is visited per
	// vertex, for differential testing against the fold path.
	forceScan bool

	stats GraphStats
}

// edgePred is a compiled edge predicate: the static Edge with its
// expression (and range right-hand side) compiled for schema-slot
// access.
type edgePred struct {
	src  *predicate.Edge
	eval *predicate.Compiled
	rng  *predicate.Range
	rhs  *predicate.Compiled // compiled rng.RHS(); nil when rng is nil
}

// compiledSpec is the per-engine compiled form of one GraphSpec:
// predicate evaluators and attribute accessors whose schema-slot caches
// mutate on evaluation, plus immutable derived tables. It is built once
// per (engine, spec) and shared by that spec's graphs across all
// partitions, so partition creation does not recompile.
//
// Sharing is race-free: within one engine, events are processed
// sequentially, and the §7 scheduler's only concurrency is across
// graphs of *different* specs inside one partition — each with its own
// compiledSpec. Distinct engines (RunParallel workers) build their own.
type compiledSpec struct {
	cVert    [][]*predicate.Compiled // vertex predicates per state
	epsBySrc [][][]*edgePred         // [toState][fromState] applicable edge predicates
	sortAcc  []event.Accessor        // Vertex Tree sort-attribute accessor per state
	slotAcc  []event.Accessor        // aggregate slot attribute accessors
	hasSucc  []bool                  // state has outgoing transitions
	links    map[int]*linkProto      // dependency-link template per child spec index

	// fastScan[toState][fromState] reports that scanCandidates for the
	// transition may fold subtree summaries instead of visiting each
	// candidate: skip-till-any-match semantics and every edge predicate
	// of the transition range-compiled on the Vertex Tree's sort
	// attribute (bit-exact ranges fold directly; inexact linear ranges
	// fold interior subtrees via interval-arithmetic inner bounds). Strict
	// time adjacency and degenerate keys are re-checked per fold through
	// vertexSum (maxTime/fallback). Items of subtrees that do not fold
	// are visited one by one; a visit re-evaluates the edge predicates
	// only for keys outside the fold range or degenerate (the boundary
	// band of an inexact range, key 0, NaN) — inside it the range is the
	// proof, as for a fold (Graph.scanVisit). Dependency links no longer
	// force per-vertex scans: Case-3 invalidation is handled per
	// insertion (window validity suffix), and Case-1/2 maxStart
	// invalidation through watermark-versioned summaries — but all fast
	// transitions out of one state must agree on the gating dependency
	// set (augDeps), since the state's trees carry one filtered summary;
	// disagreeing states fall back to the per-vertex scan entirely.
	fastScan [][]bool
	// augDeps[fromState] lists the indices (into GraphSpec.Deps order,
	// which matches Graph.deps) of the dependency links whose maxStart
	// watermarks invalidate predecessors on the state's fast
	// transitions: Case-2 links always, Case-1 links when the state is a
	// previous state and the destination a following state. The state's
	// subtree summaries are filtered under exactly this set (see
	// vertexAug.validWindows); empty for dependency-free specs and
	// Case-3-only dependencies.
	augDeps [][]int
	// anyCase3 reports a Case-3 dependency (SEQ(NOT N, Pj)) on the spec:
	// insertions then precompute the new event's per-window validity
	// (Graph.widValidity) before scanning.
	anyCase3 bool
	// augs[state] maintains subtree summaries for the state's Vertex
	// Trees; nil when no transition out of the state can fast-fold.
	augs []*vertexAug

	// cur is the graph currently operating on this spec's trees and
	// pools, published by the graph entry points (Process, Advance,
	// FoldAll, take) so the shared vertexAug can read the
	// graph's invalidation watermarks and charge its payload stats.
	// Single-owner like the pools: within one engine, graphs of one spec
	// run sequentially (see the sharing argument above).
	cur *Graph

	// Recycling pools, shared by the spec's graphs across partitions of
	// one engine (sequential access, same argument as above): expired
	// panes return vertices (each with its payload block), panes, and
	// tree nodes here so the steady-state per-event path allocates
	// nothing — and a partition warms up from state another partition
	// expired. The payload pool serves what is not a vertex's: subtree
	// summaries, which stay attached (emptied) to free-listed tree nodes,
	// their payloads returning to pool, window finals and results.
	pool     aggregate.Pool
	vfree    []*Vertex
	pfree    []*pane
	nodeFree vtreeFree
}

// linkProto is the immutable part of a depLink, computed once per
// (parent spec, child spec) pair instead of per partition.
type linkProto struct {
	kind       depKind
	prevStates map[int]bool
	follStates map[int]bool
	prunable   bool
}

// newCompiledSpec compiles spec against the schema-slot fast path.
func newCompiledSpec(spec *GraphSpec, subs []*GraphSpec, sem query.Semantics) *compiledSpec {
	cs := &compiledSpec{}
	cs.pool.Init(spec.Def)
	n := len(spec.Tmpl.States)
	cs.cVert = make([][]*predicate.Compiled, n)
	for sIdx, vps := range spec.VertexPreds {
		for _, vp := range vps {
			cs.cVert[sIdx] = append(cs.cVert[sIdx], predicate.Compile(vp.Expr))
		}
	}
	// Compile each distinct edge predicate once, then index the compiled
	// form per (destination, source) state pair so the hot path does no
	// label matching.
	compiled := map[*predicate.Edge]*edgePred{}
	cs.epsBySrc = make([][][]*edgePred, n)
	for i := range cs.epsBySrc {
		cs.epsBySrc[i] = make([][]*edgePred, n)
	}
	for toIdx, eps := range spec.EdgePreds {
		for _, ep := range eps {
			ce := compiled[ep]
			if ce == nil {
				ce = &edgePred{src: ep, eval: predicate.Compile(ep.Expr), rng: ep.Range}
				if ep.Range != nil {
					ce.rhs = predicate.Compile(ep.Range.RHS())
				}
				compiled[ep] = ce
			}
			for _, from := range spec.Tmpl.States {
				if hasLabel(from, ep.From) {
					cs.epsBySrc[toIdx][from.Idx] = append(cs.epsBySrc[toIdx][from.Idx], ce)
				}
			}
		}
	}
	cs.sortAcc = make([]event.Accessor, n)
	for sIdx := 0; sIdx < n; sIdx++ {
		cs.sortAcc[sIdx] = event.NewAccessor(spec.SortAttr[sIdx])
	}
	cs.slotAcc = spec.Def.NewAccessors()
	cs.hasSucc = make([]bool, n)
	for _, st := range spec.Tmpl.States {
		for _, p := range st.Preds {
			cs.hasSucc[p] = true
		}
	}
	cs.links = map[int]*linkProto{}
	for _, dep := range spec.Deps {
		cs.links[dep] = buildLinkProto(spec, subs[dep])
	}
	// Summary fast-path eligibility. Skip-till-next-match mutates
	// predecessors during the scan (closed marking) and contiguous
	// semantics checks per-vertex event ids — both force per-vertex
	// scans. Dependency links are handled by the watermark machinery
	// below instead of disqualifying the spec wholesale.
	augOK := sem == query.SkipTillAnyMatch
	cs.fastScan = make([][]bool, n)
	for to := range cs.fastScan {
		cs.fastScan[to] = make([]bool, n)
		for from := range cs.fastScan[to] {
			if !augOK {
				continue
			}
			fast := true
			for _, pe := range cs.epsBySrc[to][from] {
				if pe.rng == nil || pe.rng.Attr != spec.SortAttr[from] {
					fast = false
					break
				}
			}
			cs.fastScan[to][from] = fast
		}
	}
	// Dependency gating: per transition, the set of links whose maxStart
	// watermarks invalidate predecessors (Definition 5: Case 2 always,
	// Case 1 from a previous state into a following state; Case 3
	// invalidates the new event per window, not predecessors, and is
	// handled per insertion). A state's trees carry ONE filtered
	// summary, so all its fast transitions must agree on the set;
	// otherwise the state's scans stay per vertex.
	for _, depIdx := range spec.Deps {
		if cs.links[depIdx].kind == depCase3 {
			cs.anyCase3 = true
		}
	}
	gatingDeps := func(to, from int) []int {
		var deps []int
		for j, depIdx := range spec.Deps {
			lp := cs.links[depIdx]
			switch lp.kind {
			case depCase2:
				deps = append(deps, j)
			case depCase1:
				if lp.prevStates[from] && lp.follStates[to] {
					deps = append(deps, j)
				}
			}
		}
		return deps
	}
	cs.augDeps = make([][]int, n)
	for from := 0; from < n; from++ {
		var common []int
		have, consistent := false, true
		for to := 0; to < n; to++ {
			if !cs.fastScan[to][from] {
				continue
			}
			deps := gatingDeps(to, from)
			if !have {
				common, have = deps, true
			} else if !slices.Equal(common, deps) {
				consistent = false
			}
		}
		if !consistent {
			for to := 0; to < n; to++ {
				cs.fastScan[to][from] = false
			}
			common = nil
		}
		cs.augDeps[from] = common
	}
	// Augment the Vertex Trees of states that at least one transition
	// can fast-fold from; other states skip the maintenance cost.
	cs.augs = make([]*vertexAug, n)
	for _, st := range spec.Tmpl.States {
		for _, from := range st.Preds {
			if cs.fastScan[st.Idx][from] && cs.augs[from] == nil {
				cs.augs[from] = &vertexAug{cs: cs, def: spec.Def, sIdx: from}
			}
		}
	}
	return cs
}

// buildLinkProto classifies the dependency on childSpec per paper §5.1
// and precomputes the state sets of Case-1 links.
func buildLinkProto(spec, childSpec *GraphSpec) *linkProto {
	lp := &linkProto{}
	switch {
	case childSpec.Previous != "" && childSpec.Following != "":
		lp.kind = depCase1
	case childSpec.Previous != "":
		lp.kind = depCase2
	default:
		lp.kind = depCase3
	}
	if lp.kind != depCase1 {
		return lp
	}
	lp.prevStates = map[int]bool{}
	lp.follStates = map[int]bool{}
	for _, st := range spec.Tmpl.States {
		if hasLabel(st, childSpec.Previous) {
			lp.prevStates[st.Idx] = true
		}
		if hasLabel(st, childSpec.Following) {
			lp.follStates[st.Idx] = true
		}
	}
	// Invalid event pruning is safe when previous-state events may
	// precede only following-state events (Theorem 5.1).
	lp.prunable = true
	for prev := range lp.prevStates {
		for _, st := range spec.Tmpl.States {
			for _, ps := range st.Preds {
				if ps == prev && !lp.follStates[st.Idx] {
					lp.prunable = false
				}
			}
		}
	}
	return lp
}

// insertState carries one insertion through the candidate scan.
type insertState struct {
	e      *event.Event
	sIdx   int
	lo, hi int64
	v      *Vertex // the vertex being built: scans fold into its block
	// pn is the pane whose tree is being scanned or changed: its firstWid
	// is the first window of every vertex in it (scanVisit, vertexAug.Add).
	pn      *pane
	eps     []*edgePred // edge predicates of the current transition
	gotPred bool
	// rlo/rhi are the current scan's outer key-range bounds (tree range;
	// outward-rounded for inexact linear predicates so no true match is
	// missed). useRange reports whether any compiled range narrowed
	// them.
	rlo, rhi         float64
	rloIncl, rhiIncl bool
	useRange         bool
	// flo/fhi are the inner (fold) bounds: subtree key spans inside them
	// provably satisfy every edge predicate of the transition, so the
	// summary may be folded without per-vertex re-checks. Equal to the
	// outer bounds for bit-exact ranges; inward-rounded for inexact
	// ones. foldable is false when some range cannot certify an inner
	// interval (inexact equality) — the scan then stays per vertex.
	flo, fhi         float64
	floIncl, fhiIncl bool
	foldable         bool
	// augDeps is the current transition's maxStart-gating dependency set
	// (compiledSpec.augDeps of the predecessor state; nil when the scan
	// is not fold-eligible or nothing gates it).
	augDeps []int
	// validFrom/suffixOK describe the new event's per-window Case-3
	// validity over [lo, hi], computed once per insertion
	// (Graph.widValidity): windows below validFrom are invalid for the
	// event, windows from it on are valid. suffixOK is false when the
	// validity pattern is not an invalid-prefix/valid-suffix — the fast
	// path is then disabled for the whole insertion, since the Last
	// histogram can account edges exactly only against a window suffix.
	validFrom int64
	suffixOK  bool
}

// inFold reports whether the key span [lo, hi] lies inside the fold
// range [flo, fhi] under its inclusive/exclusive bounds. A NaN bound of
// the span fails every comparison and so is never inside.
func (ins *insertState) inFold(lo, hi float64) bool {
	return (lo > ins.flo || (ins.floIncl && lo == ins.flo)) &&
		(hi < ins.fhi || (ins.fhiIncl && hi == ins.fhi))
}

// newGraph builds the runtime graph for spec using the engine's
// compiled form cs.
func newGraph(spec *GraphSpec, cs *compiledSpec, win window.Spec, sem query.Semantics) *Graph {
	g := &Graph{
		spec:     spec,
		cs:       cs,
		def:      spec.Def,
		win:      win,
		sem:      sem,
		paneSize: win.PaneSize(),
		prevTime: -1,
	}
	g.scanFn = g.scanVisit
	g.expireFn = g.expireVisit
	g.foldFn = g.foldVisit
	return g
}

// getVertex returns a recycled (or new) vertex for k windows, none of
// them holding a payload. Its block is sized on first use to the most
// windows an event can fall into, so a recycled vertex fits any window
// count of the spec.
func (g *Graph) getVertex(k int) *Vertex {
	var v *Vertex
	if n := len(g.cs.vfree); n > 0 {
		v = g.cs.vfree[n-1]
		g.cs.vfree[n-1] = nil
		g.cs.vfree = g.cs.vfree[:n-1]
	} else {
		v = &Vertex{}
	}
	if cap(v.Aggs) < k {
		n := max(k, g.win.K())
		v.Aggs, v.Present = g.def.NewBlock(n), aggregate.NewPresence(n)
	}
	v.Aggs = v.Aggs[:k]
	v.Present.Clear()
	v.closed = false
	return v
}

// putVertex recycles v; its block goes with it.
func (g *Graph) putVertex(v *Vertex) {
	v.Ev = nil
	g.cs.vfree = append(g.cs.vfree, v)
}

// payload returns window i's payload of v, marking it present — reset
// to zero — if it was not.
func (g *Graph) payload(v *Vertex, i int) *aggregate.Payload {
	p := &v.Aggs[i]
	if !v.Present.Has(i) {
		v.Present.Set(i)
		g.def.Reset(p)
	}
	return p
}

// addDep wires the negative child graph (spec index childIdx) into the
// parent. The link's immutable classification comes from the shared
// linkProto; only the per-partition watermark state is allocated here.
func (g *Graph) addDep(child *Graph, childIdx int) {
	lp := g.cs.links[childIdx]
	link := &depLink{
		kind:       lp.kind,
		prevStates: lp.prevStates,
		follStates: lp.follStates,
		prunable:   lp.prunable,
		maxStart:   map[int64]int64{},
		minEnd:     map[int64]event.Time{},
	}
	if link.kind == depCase2 {
		g.lazyFinal = true
	}
	g.deps = append(g.deps, link)
	child.parentLink = link
}

// Process offers one stream event to the graph. Events must arrive in
// non-decreasing time order. Window results are taken by the engine's
// sweep; the graph only maintains state.
func (g *Graph) Process(e *event.Event) {
	g.cs.cur = g
	g.stats.Events++
	g.foldPending(e.Time)
	g.expire(e.Time)

	states := g.spec.Tmpl.ByType[e.Type]
	if len(states) != 0 {
		lo, hi := g.win.Wids(e.Time)
		for _, sIdx := range states {
			g.insertAt(e, sIdx, lo, hi)
		}
	}
	g.prevTime = e.Time
	g.lastEventID = e.ID
}

// insertAt attempts to insert event e as a vertex of state sIdx
// (Algorithm 2 generalized: per-state, per-window, all aggregates).
// The steady-state path allocates nothing: the vertex and its payload
// block come from the graph's recycling pools, and the candidate scan
// runs through the preallocated scanFn closure.
func (g *Graph) insertAt(e *event.Event, sIdx int, lo, hi int64) {
	st := g.spec.Tmpl.States[sIdx]
	for _, cv := range g.cs.cVert[sIdx] {
		if !cv.EvalEvent(e) {
			return
		}
	}
	k := int(hi - lo + 1)
	v := g.getVertex(k)
	ins := &g.ins
	ins.e, ins.sIdx, ins.lo, ins.hi, ins.v = e, sIdx, lo, hi, v
	ins.gotPred = false
	ins.validFrom, ins.suffixOK = g.widValidity(e.Time, lo, hi)
	for _, psIdx := range st.Preds {
		g.scanCandidates(psIdx, sIdx)
	}
	ins.e, ins.v = nil, nil
	if !st.Start && !ins.gotPred {
		// A MID or END event without predecessor events extends no trend
		// and is not inserted (Algorithm 2 line 5).
		g.putVertex(v)
		return
	}
	hasPayload := false
	for i := 0; i < k; i++ {
		if !g.valid(lo+int64(i), e.Time) {
			v.Present.Unset(i)
			continue
		}
		if st.Start {
			g.def.OnStart(g.payload(v, i), e.Time)
		}
		if v.Present.Has(i) {
			g.def.OnEventAcc(&v.Aggs[i], e, g.cs.slotAcc)
			hasPayload = true
		}
	}
	if !hasPayload {
		g.putVertex(v)
		return
	}
	v.Ev, v.Time, v.State = e, e.Time, int32(sIdx)
	if st.End {
		g.onEndVertex(v, lo)
	}
	// Finished trend pruning (paper §5.2): an END vertex of a negative
	// graph whose state has no outgoing transitions can never extend a
	// trend; it has done its invalidation work and is not stored.
	if g.spec.Negative && st.End && !g.cs.hasSucc[sIdx] {
		g.putVertex(v)
		return
	}
	g.store(v)
}

// validWid reports whether e at time t may carry trends in window wid
// under Case-3 invalidation: the event is unusable in windows
// containing a finished negative trend that ended before it (paper
// Fig. 8(b)).
func (g *Graph) validWid(wid int64, t event.Time) bool {
	for _, d := range g.deps {
		if d.kind != depCase3 {
			continue
		}
		if te, ok := d.minEnd[wid]; ok && te < t {
			return false
		}
	}
	return true
}

// valid is validWid for the event being inserted, at time t. widValidity
// has already probed every window of the insertion: for a valid suffix
// a comparison answers, and only another shape probes minEnd again.
func (g *Graph) valid(wid int64, t event.Time) bool {
	if g.ins.suffixOK {
		return wid >= g.ins.validFrom
	}
	return g.validWid(wid, t)
}

// widValidity computes, once per insertion, the Case-3 validity shape
// of the new event's window range [lo, hi]: validFrom is the first
// window of the trailing valid run (hi+1 when every window is invalid),
// and suffixOK reports that every window below validFrom is invalid —
// i.e. the pattern is an invalid prefix followed by a valid suffix.
// Only then can the summary fast path both skip the invalid windows'
// folds and count edges exactly via the Last histogram (EdgesFrom of
// the suffix start); other shapes fall back to the per-vertex scan for
// this insertion. Specs without Case-3 dependencies are always fully
// valid.
func (g *Graph) widValidity(t event.Time, lo, hi int64) (validFrom int64, suffixOK bool) {
	if !g.cs.anyCase3 {
		return lo, true
	}
	from := hi + 1
	for wid := hi; wid >= lo && g.validWid(wid, t); wid-- {
		from = wid
	}
	for wid := from - 1; wid >= lo; wid-- {
		if g.validWid(wid, t) {
			return from, false
		}
	}
	return from, true
}

// invalThreshold returns the maxStart invalidation watermark of window
// wid under the dependency set deps (indices into g.deps):
// predecessors whose event time lies strictly below it are invalid in
// that window (aggregate.NoStart when no watermark applies, which no
// stored time is below).
func (g *Graph) invalThreshold(deps []int, wid int64) int64 {
	thr := int64(aggregate.NoStart)
	for _, j := range deps {
		if ws, ok := g.deps[j].maxStart[wid]; ok && ws > thr {
			thr = ws
		}
	}
	return thr
}

// onEndVertex folds an END vertex, whose first window is lo, into final
// aggregates (positive graphs, Theorem 4.3(2)) or pushes an invalidation
// record to the parent (negative graphs, Definition 5).
func (g *Graph) onEndVertex(v *Vertex, lo int64) {
	if g.spec.Negative {
		if g.parentLink == nil {
			return
		}
		rec := invalRecord{end: v.Time, firstWid: lo, starts: g.parentLink.getStarts(len(v.Aggs))}
		any := false
		for i := range v.Aggs {
			if !v.Present.Has(i) || v.Aggs[i].Zero() {
				rec.starts[i] = aggregate.NoStart
				continue
			}
			rec.starts[i] = v.Aggs[i].MaxStart
			any = true
		}
		if any {
			g.parentLink.pending = append(g.parentLink.pending, rec)
		} else {
			g.parentLink.putStarts(rec.starts)
		}
		return
	}
	// The vertex's windows are the newest open ones, so their entries are
	// found — or inserted, in order — from the tail.
	j := len(g.finals)
	for j > 0 && g.finals[j-1].wid >= lo {
		j--
	}
	for i := range v.Aggs {
		if !v.Present.Has(i) {
			continue
		}
		wid := lo + int64(i)
		for j < len(g.finals) && g.finals[j].wid < wid {
			j++
		}
		if j == len(g.finals) || g.finals[j].wid != wid {
			g.finals = slices.Insert(g.finals, j, final{wid: wid})
		}
		if f := &g.finals[j]; !g.lazyFinal {
			if f.p == nil {
				f.p = g.cs.pool.Get()
			}
			g.def.Merge(f.p, &v.Aggs[i])
		}
	}
}

// invalidPred reports whether predecessor p may not contribute to a new
// event at state sIdx in window wid at time t (Definition 5).
func (g *Graph) invalidPred(p *Vertex, sIdx int, wid int64, t event.Time) bool {
	for _, d := range g.deps {
		switch d.kind {
		case depCase1:
			if d.prevStates[int(p.State)] && d.follStates[sIdx] {
				if ws, ok := d.maxStart[wid]; ok && int64(p.Time) < ws {
					return true
				}
			}
		case depCase2:
			if ws, ok := d.maxStart[wid]; ok && int64(p.Time) < ws {
				return true
			}
		case depCase3:
			// Case-3 invalidation nulls the vertex's window payloads at
			// insertion; nothing to re-check here.
		}
	}
	return false
}

// foldPending applies invalidation records of finished negative trends
// whose end time lies strictly before t ("events of the following event
// type that will arrive after en.time", Definition 5). A maxStart
// advance bumps the graph's watermark version: stored pane summaries
// become stale lazily and are revalidated or rebuilt on the next
// eligible scan (refreshSummaries), never eagerly here.
func (g *Graph) foldPending(t event.Time) {
	for _, d := range g.deps {
		n := 0
		advanced := false
		for _, rec := range d.pending {
			if rec.end >= t {
				d.pending[n] = rec
				n++
				continue
			}
			for i, s := range rec.starts {
				if s == aggregate.NoStart {
					continue
				}
				wid := rec.firstWid + int64(i)
				if cur, ok := d.maxStart[wid]; !ok || s > cur {
					d.maxStart[wid] = s
					advanced = true
				}
				if cur, ok := d.minEnd[wid]; !ok || rec.end < cur {
					d.minEnd[wid] = rec.end
				}
			}
			d.putStarts(rec.starts)
		}
		d.pending = d.pending[:n]
		if advanced {
			// Bump before pruning: the prune's tree deletions recompute
			// summaries filtered under the just-advanced maps, and the
			// recomputes stamp the version they read here.
			g.wmVer++
			if d.kind == depCase1 && d.prunable {
				g.pruneInvalid(d)
			}
		}
	}
}

// pruneInvalid physically removes previous-state vertices that are
// invalid in every window they belong to (invalid event pruning,
// Theorem 5.1).
func (g *Graph) pruneInvalid(d *depLink) {
	for _, pn := range g.panes {
		for sIdx := range d.prevStates {
			tree := pn.trees[sIdx]
			if tree == nil {
				continue
			}
			doomed := g.doomed[:0]
			tree.Ascend(func(it btree.Item[*Vertex]) bool {
				v := it.Val
				dead := true
				for i := range v.Aggs {
					if !v.Present.Has(i) {
						continue
					}
					wid := pn.firstWid + int64(i)
					ws, ok := d.maxStart[wid]
					if !ok || int64(v.Time) >= ws {
						dead = false
						break
					}
				}
				if dead {
					doomed = append(doomed, v)
				}
				return true
			})
			g.ins.pn = pn
			for i, v := range doomed {
				if key, _ := g.sortKey(sIdx, v.Ev); tree.Delete(key, v.Ev.ID) {
					pn.vertices--
					g.stats.Vertices--
					g.stats.Payloads -= uint64(v.Present.Count())
					g.putVertex(v)
				}
				doomed[i] = nil
			}
			g.doomed = doomed[:0]
		}
	}
}

// scanCandidates aggregates stored vertices of state psIdx that may
// precede the event being inserted (g.ins) at state sIdx. On the
// summary fast path (fastScan) it folds subtree summaries — O(1) for a
// fully covered pane tree, O(log n) for a range-bounded one — and only
// descends to per-vertex visits around range boundaries, degenerate
// keys, same-timestamp stragglers, and watermark-mixed subtrees.
// Otherwise it scans per vertex, using the Vertex Tree range for the
// compiled edge predicate when available (paper §7). Both paths are
// zero-allocation: candidate work happens in the preallocated
// scanVisit/foldVisit closures reading g.ins, and forEachCandidate is
// the debug-rendering twin.
func (g *Graph) scanCandidates(psIdx, sIdx int) {
	ins := &g.ins
	e := ins.e
	eps := g.cs.epsBySrc[sIdx][psIdx]
	ins.eps = eps
	fast := !g.forceScan && g.cs.fastScan[sIdx][psIdx] && ins.suffixOK
	if !g.scanBounds(psIdx, eps, e, fast) {
		return
	}
	fast = fast && ins.foldable
	ins.augDeps = nil
	if fast {
		ins.augDeps = g.cs.augDeps[psIdx]
	}
	oldest := g.win.Start(ins.lo)
	for _, pn := range g.panes {
		if pn.end <= oldest || pn.start > e.Time {
			continue
		}
		tree := pn.trees[psIdx]
		if tree == nil {
			continue
		}
		ins.pn = pn
		switch {
		case fast && tree.Augmented():
			if len(ins.augDeps) > 0 {
				g.refreshSummaries(tree)
			}
			tree.FoldRange(ins.rlo, ins.rhi, ins.rloIncl, ins.rhiIncl, g.foldFn, g.scanFn)
		case ins.useRange:
			tree.AscendRange(ins.rlo, ins.rhi, ins.rloIncl, ins.rhiIncl, g.scanFn)
		default:
			tree.Ascend(g.scanFn)
		}
	}
}

// scanBounds computes the Vertex Tree range bounds on the predecessor
// sort attribute for an insertion of e, writing them into g.ins: the
// outer scan range (rlo/rhi, outward-rounded for inexact linear
// predicates so the narrowed scan misses no true match) and — when
// fold is set — the inner fold range (flo/fhi, inward-rounded so
// subtree spans inside it provably satisfy every edge predicate; see
// predicate.Range.FoldBoundsOf). It reports false when a compiled
// range proves no predecessor can match; ins.foldable reports whether
// every range certified an inner interval.
func (g *Graph) scanBounds(psIdx int, eps []*edgePred, e *event.Event, fold bool) bool {
	ins := &g.ins
	ins.rlo, ins.rhi = math.Inf(-1), math.Inf(1)
	ins.rloIncl, ins.rhiIncl = true, true
	ins.useRange = false
	ins.foldable = fold
	if g.cs.sortAcc[psIdx].Attr() == "" {
		// Trees without an edge-predicate attribute sort by time; bound
		// the scan by strict adjacency p.time < e.time. The bound is
		// bit-exact, so the fold range coincides.
		ins.rhi, ins.rhiIncl = float64(e.Time), false
		ins.useRange = true
		ins.flo, ins.fhi = ins.rlo, ins.rhi
		ins.floIncl, ins.fhiIncl = ins.rloIncl, ins.rhiIncl
		return true
	}
	ins.flo, ins.fhi = math.Inf(-1), math.Inf(1)
	ins.floIncl, ins.fhiIncl = true, true
	sortAttr := g.spec.SortAttr[psIdx]
	for _, pe := range eps {
		if pe.rng == nil || pe.rng.Attr != sortAttr {
			continue
		}
		rv := pe.rhs.EvalNext(e)
		lo2, hi2, loI, hiI, bok := pe.rng.BoundsOf(rv)
		if !bok {
			return false
		}
		if lo2 > ins.rlo || (lo2 == ins.rlo && !loI) {
			ins.rlo, ins.rloIncl = lo2, loI
		}
		if hi2 < ins.rhi || (hi2 == ins.rhi && !hiI) {
			ins.rhi, ins.rhiIncl = hi2, hiI
		}
		ins.useRange = true
		if !fold {
			continue
		}
		flo2, fhi2, floI, fhiI, fok := pe.rng.FoldBoundsOf(rv)
		if !fok {
			ins.foldable = false
			continue
		}
		if flo2 > ins.flo || (flo2 == ins.flo && !floI) {
			ins.flo, ins.floIncl = flo2, floI
		}
		if fhi2 < ins.fhi || (fhi2 == ins.fhi && !fhiI) {
			ins.fhi, ins.fhiIncl = fhi2, fhiI
		}
	}
	return true
}

// candidateOK applies the full per-candidate adjacency filter: strictly
// increasing time (Definition 1), the event selection semantics, and
// all edge predicates of the transition. The DOT renderer applies it to
// every candidate; the runtime scan to every one but the lean visits of
// a fold path (scanVisit).
func (g *Graph) candidateOK(p *Vertex, e *event.Event, eps []*edgePred) bool {
	if p.Time >= e.Time {
		return false
	}
	if g.sem == query.Contiguous && p.Ev.ID != g.lastEventID {
		return false
	}
	if g.sem == query.SkipTillNextMatch && p.closed {
		return false
	}
	for _, pe := range eps {
		if !pe.eval.EvalPair(p.Ev, e) {
			return false
		}
	}
	return true
}

// scanVisit processes one candidate predecessor during scanCandidates
// (installed once as g.scanFn so per-event scans allocate no closure).
//
// On a fold-eligible scan (ins.foldable) an item whose key lies inside
// the fold range is a lean visit: the range already proves every edge
// predicate of the transition, exactly as it does for a folded subtree,
// so only strict time adjacency is checked (the fold path is
// skip-till-any-match only: no closed mark, no contiguity). Key 0 is
// sortKey's stand-in for a missing or non-numeric attribute and takes
// the full check (a NaN key is never inside the range). The fast path
// also fixed a window check per insertion: maxStart invalidation can
// only apply when the transition has gating dependencies (ins.augDeps).
// Case-3 validity is fixed per insertion for every visit (valid).
func (g *Graph) scanVisit(it vitem) bool {
	ins := &g.ins
	p := it.Val
	e := ins.e
	g.stats.ScanVisits++
	lean := ins.foldable && it.Key != 0 && ins.inFold(it.Key, it.Key)
	if lean {
		if p.Time >= e.Time {
			return true
		}
	} else if !g.candidateOK(p, e, ins.eps) {
		return true
	}
	connected := false
	first := ins.pn.firstWid
	last := min(first+int64(len(p.Aggs))-1, ins.hi)
	gated := !lean || len(ins.augDeps) > 0
	for wid := ins.lo; wid <= last; wid++ {
		j := int(wid - first)
		if !p.Present.Has(j) || !g.valid(wid, e.Time) {
			continue
		}
		if gated && g.invalidPred(p, ins.sIdx, wid, e.Time) {
			continue
		}
		g.def.AddPred(g.payload(ins.v, int(wid-ins.lo)), &p.Aggs[j])
		connected = true
	}
	if connected {
		g.stats.Edges++
		ins.gotPred = true
		if g.sem == query.SkipTillNextMatch {
			p.closed = true
		}
	}
	return true
}

// forEachCandidate visits predecessors of an arbitrary stored event
// for the DOT debug renderer. It shares scanBounds with the runtime
// scan and applies candidateOK to every candidate. The runtime skips
// the edge predicates where a genuine key lies inside the fold range —
// a folded subtree, a lean visit (scanVisit) — because the range
// proves them there, and still enforces strict time adjacency, so both
// pass the same candidates. The fold-vs-forced-scan differentials hold
// the runtime to candidateOK applied everywhere.
func (g *Graph) forEachCandidate(e *event.Event, psIdx, sIdx int, loWid int64, visit func(*Vertex)) {
	eps := g.cs.epsBySrc[sIdx][psIdx]
	// Shares the insertion scratch's bound fields; only runs between
	// insertions (debug rendering), never mid-scan.
	if !g.scanBounds(psIdx, eps, e, false) {
		return
	}
	ins := &g.ins
	oldest := g.win.Start(loWid)
	scan := func(it btree.Item[*Vertex]) bool {
		if g.candidateOK(it.Val, e, eps) {
			visit(it.Val)
		}
		return true
	}
	for _, pn := range g.panes {
		if pn.end <= oldest || pn.start > e.Time {
			continue
		}
		tree := pn.trees[psIdx]
		if tree == nil {
			continue
		}
		if ins.useRange {
			tree.AscendRange(ins.rlo, ins.rhi, ins.rloIncl, ins.rhiIncl, scan)
		} else {
			tree.Ascend(scan)
		}
	}
}

// store places a vertex into the Vertex Tree of the current pane.
// Trees of fast-path states are augmented so summary maintenance
// happens inside the insert (and forceScan graphs opt out entirely,
// behaving exactly like the per-vertex engine).
func (g *Graph) store(v *Vertex) {
	pn := g.paneFor(v.Time)
	tree := pn.trees[v.State]
	if tree == nil {
		if aug := g.cs.augs[v.State]; aug != nil && !g.forceScan {
			tree = btree.NewAugmented(&g.cs.nodeFree, aug)
		} else {
			tree = btree.NewWithFreeList(&g.cs.nodeFree)
		}
		pn.trees[v.State] = tree
	}
	key, genuine := g.sortKey(int(v.State), v.Ev)
	v.fallback = !genuine
	g.ins.pn = pn
	tree.Insert(key, v.Ev.ID, v)
	pn.vertices++
	g.stats.Vertices++
	g.stats.Inserted++
	g.stats.Payloads += uint64(v.Present.Count())
}

// sortKey computes the Vertex Tree key of an event in a state: the
// compiled edge-predicate attribute when one exists, time otherwise.
// genuine is false for a key that is not the attribute's value — 0
// standing in for a missing or non-numeric one, or NaN — on which a key
// range proves nothing.
func (g *Graph) sortKey(sIdx int, e *event.Event) (key float64, genuine bool) {
	acc := &g.cs.sortAcc[sIdx]
	if acc.Attr() == "" {
		return float64(e.Time), true
	}
	if v, ok := acc.Float(e); ok {
		return v, !math.IsNaN(v)
	}
	return 0, false
}

// paneFor returns (creating or recycling) the pane containing time t.
// Events arrive in order, so t lands in the last pane or a new one.
func (g *Graph) paneFor(t event.Time) *pane {
	idx := t / g.paneSize
	if n := len(g.panes); n > 0 && g.panes[n-1].idx == idx {
		return g.panes[n-1]
	}
	var pn *pane
	if n := len(g.cs.pfree); n > 0 {
		// Expired panes come back with empty trees (nodes already in the
		// free list), so only the bounds need resetting.
		pn = g.cs.pfree[n-1]
		g.cs.pfree[n-1] = nil
		g.cs.pfree = g.cs.pfree[:n-1]
	} else {
		pn = &pane{trees: make([]*vtree, len(g.spec.Tmpl.States))}
	}
	g.place(pn, idx)
	g.panes = append(g.panes, pn)
	return pn
}

// place sets pn's bounds to those of pane idx.
func (g *Graph) place(pn *pane, idx int64) {
	pn.idx, pn.start, pn.end = idx, idx*g.paneSize, (idx+1)*g.paneSize
	pn.firstWid, _ = g.win.Wids(pn.start)
}

// expire drops panes that can no longer contribute to any open window
// (paper §7: "a whole pane with its associated data structures is
// deleted after the pane has contributed to all windows"). Dropped
// panes recycle their vertices, payloads, and tree nodes into the
// graph's pools.
func (g *Graph) expire(t event.Time) {
	oldest := g.win.OldestNeeded(t)
	n := 0
	for _, pn := range g.panes {
		if pn.end <= oldest {
			g.stats.Vertices -= uint64(pn.vertices)
			for _, tree := range pn.trees {
				if tree != nil {
					tree.Ascend(g.expireFn)
					tree.Release()
				}
			}
			pn.vertices = 0
			g.cs.pfree = append(g.cs.pfree, pn)
			continue
		}
		g.panes[n] = pn
		n++
	}
	for i := n; i < len(g.panes); i++ {
		g.panes[i] = nil
	}
	g.panes = g.panes[:n]
}

// expireVisit recycles one vertex of an expiring pane (installed once
// as g.expireFn).
func (g *Graph) expireVisit(it vitem) bool {
	v := it.Val
	g.stats.Payloads -= uint64(v.Present.Count())
	g.putVertex(v)
	return true
}

// take returns the final aggregate of f, an entry of finals, or nil when
// the window holds no finished trend. It consumes the window — the
// caller drops the entry — unless peek: a peek returns a clone of the
// incremental final and leaves the graph as it was, so it is exact only
// without a Case-2 dependency.
func (g *Graph) take(f final, peek bool) *aggregate.Payload {
	r := f.p
	if peek {
		if r == nil || r.Zero() {
			return nil
		}
		return g.def.Clone(r)
	}
	g.cs.cur = g
	if g.lazyFinal {
		r = g.lazyResult(f.wid)
	}
	if r != nil && r.Zero() {
		g.cs.pool.Put(r)
		return nil
	}
	return r
}

// Advance folds pending invalidations and expires panes as if an event
// at time t had been observed, letting the engine reclaim memory in
// partitions that stop receiving events.
func (g *Graph) Advance(t event.Time) {
	g.cs.cur = g
	g.foldPending(t)
	g.expire(t)
}

// lazyResult recomputes a window's final aggregate by scanning END
// vertices and filtering Case-2 invalidated ones (SEQ(Pi, NOT N): a
// trend of N invalidates all earlier events, paper §5.1 Case 2; the
// final aggregate may only include END events no negative trend
// disqualified).
func (g *Graph) lazyResult(wid int64) *aggregate.Payload {
	// Make sure every record that could affect this window is folded:
	// negative trends inside the window end before the window does.
	g.foldPending(g.win.End(wid))
	var r *aggregate.Payload
	start, end := g.win.Start(wid), g.win.End(wid)
	for _, pn := range g.panes {
		if pn.end <= start || pn.start >= end {
			continue
		}
		for sIdx, tree := range pn.trees {
			if tree == nil || !g.spec.Tmpl.States[sIdx].End {
				continue
			}
			tree.Ascend(func(it btree.Item[*Vertex]) bool {
				v := it.Val
				i := int(wid - pn.firstWid)
				if i < 0 || i >= len(v.Aggs) || !v.Present.Has(i) {
					return true
				}
				for _, d := range g.deps {
					if d.kind != depCase2 {
						continue
					}
					if ws, ok := d.maxStart[wid]; ok && int64(v.Time) < ws {
						return true
					}
				}
				if r == nil {
					r = g.cs.pool.Get()
				}
				g.def.Merge(r, &v.Aggs[i])
				return true
			})
		}
	}
	return r
}

// FoldAll applies every pending invalidation record; call at end of
// stream before collecting remaining windows.
func (g *Graph) FoldAll() {
	g.cs.cur = g
	g.foldPending(1<<62 - 1)
}

// Stats returns runtime statistics.
func (g *Graph) Stats() GraphStats { return g.stats }
