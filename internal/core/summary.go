package core

import (
	"math"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/btree"
	"github.com/greta-cep/greta/internal/event"
)

// vtree / vtreeFree are the Vertex Tree instantiation used by the
// runtime: *Vertex items summarized by *vertexSum subtree payloads.
type (
	vtree     = btree.Tree[*Vertex, *vertexSum]
	vtreeFree = btree.FreeList[*Vertex, *vertexSum]
	vitem     = btree.Item[*Vertex]
)

// minTime is the maxTime of an empty summary (no event time reaches
// it); maxTimeSentinel is the corresponding minTime.
const (
	minTime         = event.Time(math.MinInt64)
	maxTimeSentinel = event.Time(math.MaxInt64)
)

// vertexSum is the subtree summary of an augmented Vertex Tree: the
// pane-summary payload fold of the paper's Time Pane structure (§7),
// generalized to every subtree so range-bounded scans fold in
// O(log n) and fully covered panes in O(1).
type vertexSum struct {
	// agg folds the subtree's per-window payloads (and exact logical
	// edge accounting; see aggregate.Summary). On graphs whose
	// predecessors can be invalidated by maxStart watermarks (paper
	// Definition 5, Cases 1 and 2), the fold is filtered: payloads of
	// (vertex, window) pairs invalid under the watermarks current at
	// build time are excluded (see vertexAug.validWindows), and wmVer
	// records that watermark version.
	agg aggregate.Summary
	// minKey/maxKey span the subtree's sort keys; a fold is taken only
	// when the span lies fully inside the scan's compiled key range, so
	// the range predicate provably holds for every folded vertex.
	minKey, maxKey float64
	// minTime/maxTime span the subtree's vertex times. maxTime gates
	// folds on Definition 1 adjacency (only strictly older subtrees
	// fold; same-timestamp stragglers fall back to per-item visits).
	// minTime supports lazy watermark revalidation: when every vertex
	// time is at or above the current invalidation watermark, no stored
	// payload has been retracted and a stale wmVer can be restamped
	// without rebuilding.
	minTime, maxTime event.Time
	// wmVer is the owning graph's watermark version (Graph.wmVer) the
	// summary's invalidation filtering is current under. Folds on
	// watermark-gated transitions require wmVer to match the graph's
	// (restamping via minTime when the advance provably did not touch
	// this subtree); stale-and-affected trees are rebuilt in place by
	// refreshSummaries before the fold descends. Graphs without
	// maxStart-gated transitions ignore it.
	wmVer uint64
	// fallback counts vertices whose tree key is not the genuine sort
	// attribute value (missing / non-numeric / NaN): for them
	// key-in-range is not equivalent to the edge predicate (and a NaN
	// key breaks both ordering and span tracking), so any subtree
	// containing one is scanned per vertex.
	fallback uint32
	// bad marks a window-range mismatch (never expected; folds reject).
	bad bool
}

// vertexAug maintains vertexSum summaries for the Vertex Trees of one
// state of one spec. Like the pools it lives on the compiledSpec and is
// shared by that spec's graphs across partitions of one engine — safe
// for the same reason the pools are (sequential access; see
// compiledSpec). The graph currently operating is published in
// compiledSpec.cur so Add/Merge/Clear can read its invalidation
// watermarks and charge its payload stats, and Add the pane whose tree
// it is changing.
type vertexAug struct {
	cs   *compiledSpec
	def  *aggregate.Def
	sIdx int
	// validScratch is the reusable per-window validity mask handed to
	// SummaryAdd on watermark-gated states (nil when all windows are
	// valid, the common case).
	validScratch []bool
}

var _ btree.Summarizer[*Vertex, *vertexSum] = (*vertexAug)(nil)

// newSum returns an empty summary. Allocation happens only for nodes
// that were never augmented: Clear leaves emptied summaries attached
// to recycled nodes, so the steady state reuses them in place.
func (a *vertexAug) newSum() *vertexSum {
	return &vertexSum{minKey: math.Inf(1), maxKey: math.Inf(-1), minTime: maxTimeSentinel, maxTime: minTime}
}

// validWindows computes the per-window validity mask of v, whose first
// window is first, under g's current maxStart watermarks for this
// state's gating dependency set (compiledSpec.augDeps). It returns nil
// when every window is valid — always the case for states without
// maxStart-gated transitions, and for freshly inserted vertices
// (watermarks are strictly below the current event time), so the mask
// only materializes during rebuilds.
func (a *vertexAug) validWindows(g *Graph, v *Vertex, first int64) []bool {
	deps := a.cs.augDeps[a.sIdx]
	if len(deps) == 0 || len(g.deps) == 0 {
		return nil
	}
	all := true
	if cap(a.validScratch) < len(v.Aggs) {
		a.validScratch = make([]bool, len(v.Aggs))
	}
	mask := a.validScratch[:len(v.Aggs)]
	for i := range v.Aggs {
		ok := int64(v.Time) >= g.invalThreshold(deps, first+int64(i))
		mask[i] = ok
		if !ok {
			all = false
		}
	}
	if all {
		return nil
	}
	return mask
}

// Add folds one stored vertex into s (s may be nil: first use). The
// vertex is in the pane whose tree the current graph is changing
// (insertState.pn), which gives its window range.
func (a *vertexAug) Add(s *vertexSum, it vitem) *vertexSum {
	if s == nil {
		s = a.newSum()
	}
	v := it.Val
	if it.Key < s.minKey {
		s.minKey = it.Key
	}
	if it.Key > s.maxKey {
		s.maxKey = it.Key
	}
	if v.Time > s.maxTime {
		s.maxTime = v.Time
	}
	if v.Time < s.minTime {
		s.minTime = v.Time
	}
	if v.fallback {
		s.fallback++
	}
	g := a.cs.cur
	wasEmpty := s.agg.Empty()
	first := g.ins.pn.firstWid
	created, ok := a.def.SummaryAdd(&a.cs.pool, &s.agg, first, v.Aggs, &v.Present, a.validWindows(g, v, first))
	if !ok {
		s.bad = true
	}
	if wasEmpty {
		s.wmVer = g.wmVer
	}
	g.stats.Payloads += uint64(created)
	return s
}

// Merge folds src into dst (dst may be nil; src is not modified). The
// merged watermark version is the older of the two: a stale
// contribution keeps the result stale until revalidated or rebuilt.
func (a *vertexAug) Merge(dst, src *vertexSum) *vertexSum {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = a.newSum()
	}
	if src.minKey < dst.minKey {
		dst.minKey = src.minKey
	}
	if src.maxKey > dst.maxKey {
		dst.maxKey = src.maxKey
	}
	if src.maxTime > dst.maxTime {
		dst.maxTime = src.maxTime
	}
	if src.minTime < dst.minTime {
		dst.minTime = src.minTime
	}
	dst.fallback += src.fallback
	if src.bad {
		dst.bad = true
	}
	if !src.agg.Empty() {
		if dst.agg.Empty() || src.wmVer < dst.wmVer {
			dst.wmVer = src.wmVer
		}
	}
	created, ok := a.def.SummaryMerge(&a.cs.pool, &dst.agg, &src.agg)
	if !ok {
		dst.bad = true
	}
	if g := a.cs.cur; g != nil {
		g.stats.Payloads += uint64(created)
	}
	return dst
}

// Clear empties s for reuse, returning its payloads to the spec pool.
func (a *vertexAug) Clear(s *vertexSum) *vertexSum {
	if s == nil {
		return nil
	}
	s.minKey, s.maxKey = math.Inf(1), math.Inf(-1)
	s.minTime, s.maxTime = maxTimeSentinel, minTime
	s.wmVer = 0
	s.fallback = 0
	s.bad = false
	released := a.def.SummaryClear(&a.cs.pool, &s.agg)
	if g := a.cs.cur; g != nil {
		g.stats.Payloads -= uint64(released)
	}
	return s
}

// refreshSummaries lazily applies pending watermark invalidation to one
// pane tree before a fold-eligible scan: when the tree's root summary
// was built under an older watermark version AND the advance actually
// retracted contributions of this tree (some vertex time fell below the
// new threshold of some window), every node summary is rebuilt in place
// with the invalidated payloads filtered out. Trees the advance did not
// touch are left alone — foldVisit restamps their summaries via the
// minTime check — so foldPending stays O(records) and the rebuild cost
// is paid once per (advance, affected pane), amortized over the events
// in between.
func (g *Graph) refreshSummaries(tree *vtree) {
	s := tree.RootSummary()
	if s == nil || s.agg.Empty() || s.wmVer == g.wmVer {
		return
	}
	deps := g.ins.augDeps
	first := s.agg.FirstWid
	last := first + int64(len(s.agg.Sums)) - 1
	dirty := false
	for wid := first; wid <= last; wid++ {
		if int64(s.minTime) < g.invalThreshold(deps, wid) {
			dirty = true
			break
		}
	}
	if !dirty {
		return
	}
	tree.RebuildSummaries()
	g.stats.SummaryRebuilds++
}

// foldVisit consumes one subtree summary during a fast-path
// scanCandidates fold (installed once as g.foldFn). Returning false
// rejects the wholesale fold; the tree then descends and routes the
// subtree's items through g.scanFn (the per-vertex slow path), so
// rejection is always safe.
func (g *Graph) foldVisit(s *vertexSum) bool {
	if s == nil || s.agg.Empty() {
		return true // empty subtree: nothing to fold
	}
	ins := &g.ins
	if s.bad || s.fallback != 0 || s.maxTime >= ins.e.Time {
		return false
	}
	// The subtree's key span must lie fully inside the compiled fold
	// range: for exact keys that range is the scan range itself, and for
	// inexact linear predicates it is the inward-rounded interval on
	// which the predicate provably holds (predicate.Range.FoldBoundsOf).
	// A subtree straddling it descends to per-item visits (scanVisit),
	// which re-check the edge predicates only for keys outside it.
	if !ins.inFold(s.minKey, s.maxKey) {
		return false
	}
	first := s.agg.FirstWid
	last := first + int64(len(s.agg.Sums)) - 1
	if first > ins.lo || last > ins.hi {
		// A stored predecessor's window range always starts at or before
		// and ends at or before the new event's (times are in order);
		// anything else is unexpected — scan per vertex.
		return false
	}
	if last < ins.lo {
		return true // no shared window: nothing can connect
	}
	// Watermark version compatibility (Definition 5, Cases 1 and 2): on
	// transitions whose predecessors maxStart watermarks can invalidate,
	// the summary must be filtered under the current version. A stale
	// summary is restamped for free when no vertex of the subtree falls
	// below any current threshold (the advance did not touch it);
	// otherwise the fold declines — refreshSummaries has already rebuilt
	// eligible trees, so this only descends around genuinely mixed
	// subtrees.
	if len(ins.augDeps) > 0 && s.wmVer != g.wmVer {
		for wid := first; wid <= last; wid++ {
			if int64(s.minTime) < g.invalThreshold(ins.augDeps, wid) {
				return false
			}
		}
		s.wmVer = g.wmVer
	}
	// Case-3 invalidation (SEQ(NOT N, Pj)) disqualifies the *new* event
	// from windows holding an already-finished negative trend; those
	// windows form a prefix of the shared range (insertAt verified the
	// suffix shape before enabling the fast path) and are skipped here,
	// exactly as the per-vertex scan's validWid does.
	start := ins.lo
	if ins.validFrom > start {
		start = ins.validFrom
	}
	if start > last {
		return true // every shared window is invalid for the new event
	}
	for wid := start; wid <= last; wid++ {
		sp := s.agg.Sums[wid-first]
		if sp == nil {
			continue
		}
		g.def.AddPred(g.payload(ins.v, int(wid-ins.lo)), sp)
	}
	if edges := s.agg.EdgesFrom(start); edges > 0 {
		g.stats.Edges += edges
		ins.gotPred = true
	}
	g.stats.SummaryFolds++
	return true
}
