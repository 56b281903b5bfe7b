// Package matchgraph builds the explicit match graph used by the
// two-step baselines (SASE, CET, Flink-style flattening) and the
// brute-force oracle: every usable (event, state) pair becomes a vertex
// and every allowed adjacency becomes a stored edge. This is the
// state-of-the-art architecture the paper compares against (Fig. 1):
// trend construction traverses these edges explicitly, whereas GRETA
// never materializes them.
package matchgraph

import (
	"cmp"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/template"
)

// VertexRef is an (event, state) pair usable in trends.
type VertexRef struct {
	Ev    *event.Event
	State int
}

// NegSpan is a finished negative trend's start and end times.
type NegSpan struct{ Start, End event.Time }

// DepFilter carries the operational invalidation rules of paper §5 for
// one negative sub-pattern (see internal/core for the incremental
// realization):
//
//	Kind 1 (prev, foll): an edge from a prev-labeled event p to a
//	  foll-labeled event f is forbidden iff some negative trend (s..t)
//	  has p.time < s and t < f.time.
//	Kind 2 (prev only): the edge rule applies to every edge, and a trend
//	  may not end at v with v.time < s for any negative trend.
//	Kind 3 (foll only): an event x is unusable iff some negative trend
//	  ends before x.time.
type DepFilter struct {
	Kind  int
	Prev  string
	Foll  string
	Spans []NegSpan
}

// Graph is the materialized match graph of one sub-pattern over one
// window of one partition.
type Graph struct {
	Q       *query.Query
	Tmpl    *template.Template
	Cls     *predicate.Classified
	Filters []*DepFilter

	Verts []VertexRef
	// Succ[i] lists indices of vertices reachable from Verts[i] in one
	// step; Pred[i] is the reverse (the SASE stack pointers).
	Succ [][]int
	Pred [][]int

	fullPart []*event.Event
}

// Build constructs the match graph for sub-pattern idx of subs,
// recursively enumerating negative sub-pattern trends to derive the
// invalidation filters.
func Build(q *query.Query, subs []*pattern.SubPattern, idx int, wevs, fullPart []*event.Event) (*Graph, error) {
	sub := subs[idx]
	var filters []*DepFilter
	for _, depIdx := range sub.Deps {
		dep := subs[depIdx]
		depGraph, err := Build(q, subs, depIdx, wevs, fullPart)
		if err != nil {
			return nil, err
		}
		f := &DepFilter{Prev: dep.Previous, Foll: dep.Following}
		switch {
		case dep.Previous != "" && dep.Following != "":
			f.Kind = 1
		case dep.Previous != "":
			f.Kind = 2
		default:
			f.Kind = 3
		}
		depGraph.WalkTrends(func(tr []VertexRef) bool {
			f.Spans = append(f.Spans, NegSpan{tr[0].Ev.Time, tr[len(tr)-1].Ev.Time})
			return true
		})
		filters = append(filters, f)
	}
	tmpl, err := template.Build(sub.Pattern)
	if err != nil {
		return nil, err
	}
	aliases := map[string]bool{}
	for _, leaf := range q.Pattern.EventNodes() {
		aliases[leaf.Alias] = true
	}
	cls, err := predicate.Classify(q.Where, aliases)
	if err != nil {
		return nil, err
	}
	g := &Graph{Q: q, Tmpl: tmpl, Cls: cls, Filters: filters, fullPart: fullPart}
	g.buildVertices(wevs)
	g.buildEdges()
	return g, nil
}

// BuildForBranch builds the match graph of one sugar-free branch.
func BuildForBranch(q *query.Query, branch *pattern.Node, wevs, fullPart []*event.Event) (*Graph, error) {
	subs, err := pattern.Split(branch)
	if err != nil {
		return nil, err
	}
	return Build(q, subs, 0, wevs, fullPart)
}

func hasLabel(st *template.State, label string) bool {
	for _, l := range st.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// Usable applies vertex predicates and Kind-3 invalidation.
func (g *Graph) Usable(e *event.Event, st *template.State) bool {
	for _, vp := range g.Cls.Vertex {
		if vp.Alias != "" && !hasLabel(st, vp.Alias) {
			continue
		}
		if !vp.Eval(e) {
			return false
		}
	}
	for _, f := range g.Filters {
		if f.Kind != 3 {
			continue
		}
		for _, sp := range f.Spans {
			if sp.End < e.Time {
				return false
			}
		}
	}
	return true
}

func (g *Graph) buildVertices(wevs []*event.Event) {
	for _, e := range wevs {
		for _, sIdx := range g.Tmpl.ByType[e.Type] {
			st := g.Tmpl.States[sIdx]
			if g.Usable(e, st) {
				g.Verts = append(g.Verts, VertexRef{e, sIdx})
			}
		}
	}
}

// EdgeAllowed checks transition existence, strict time order, edge
// predicates, Kind-1/2 invalidation, and the selection semantics.
func (g *Graph) EdgeAllowed(p, f VertexRef) bool {
	if p.Ev.Time >= f.Ev.Time {
		return false
	}
	fst := g.Tmpl.States[f.State]
	ok := false
	for _, pr := range fst.Preds {
		if pr == p.State {
			ok = true
			break
		}
	}
	if !ok {
		return false
	}
	pst := g.Tmpl.States[p.State]
	for _, ep := range g.Cls.Edge {
		if !hasLabel(pst, ep.From) || !hasLabel(fst, ep.To) {
			continue
		}
		if !ep.Eval(p.Ev, f.Ev) {
			return false
		}
	}
	for _, flt := range g.Filters {
		switch flt.Kind {
		case 1:
			if !hasLabel(pst, flt.Prev) || !hasLabel(fst, flt.Foll) {
				continue
			}
			for _, sp := range flt.Spans {
				if p.Ev.Time < sp.Start && sp.End < f.Ev.Time {
					return false
				}
			}
		case 2:
			for _, sp := range flt.Spans {
				if p.Ev.Time < sp.Start && sp.End < f.Ev.Time {
					return false
				}
			}
		}
	}
	if g.Q.Semantics == query.Contiguous {
		for i := 0; i+1 < len(g.fullPart); i++ {
			if g.fullPart[i].ID == p.Ev.ID {
				return g.fullPart[i+1].ID == f.Ev.ID
			}
		}
		return false
	}
	return true
}

// buildEdges materializes adjacency (and reverse adjacency) lists.
// Skip-till-next-match replays the runtime's rule: events arrive in
// order and extend only vertices without an outgoing edge yet.
func (g *Graph) buildEdges() {
	g.Succ = make([][]int, len(g.Verts))
	g.Pred = make([][]int, len(g.Verts))
	if g.Q.Semantics == query.SkipTillNextMatch {
		closed := make([]bool, len(g.Verts))
		for j, f := range g.Verts {
			for i, p := range g.Verts {
				if closed[i] || !g.EdgeAllowed(p, f) {
					continue
				}
				g.Succ[i] = append(g.Succ[i], j)
				g.Pred[j] = append(g.Pred[j], i)
				closed[i] = true
			}
		}
		return
	}
	for i, p := range g.Verts {
		for j, f := range g.Verts {
			if g.EdgeAllowed(p, f) {
				g.Succ[i] = append(g.Succ[i], j)
				g.Pred[j] = append(g.Pred[j], i)
			}
		}
	}
}

// EndAllowed reports whether a trend may end at vertex i (END state and
// Kind-2 final filter).
func (g *Graph) EndAllowed(i int) bool {
	v := g.Verts[i]
	if !g.Tmpl.States[v.State].End {
		return false
	}
	for _, f := range g.Filters {
		if f.Kind != 2 {
			continue
		}
		for _, sp := range f.Spans {
			if v.Ev.Time < sp.Start {
				return false
			}
		}
	}
	return true
}

// IsStart reports whether a trend may begin at vertex i.
func (g *Graph) IsStart(i int) bool {
	return g.Tmpl.States[g.Verts[i].State].Start
}

// WalkTrends DFS-enumerates every trend (START→END path), invoking
// visit with the path's vertices. The slice is reused; copy it to
// retain. visit returns false to abort the walk — trend caps must stop
// the exponential DFS itself, not just the accounting. This is the
// "trend construction" step of the two-step approach — exponential in
// the number of events.
func (g *Graph) WalkTrends(visit func(tr []VertexRef) bool) {
	g.WalkTrendsMaxLen(0, visit)
}

// WalkTrendsMaxLen is WalkTrends bounded to paths of at most maxLen
// vertices (0 = unbounded), used by the Flink-style flattening
// baseline. visit returns false to abort.
func (g *Graph) WalkTrendsMaxLen(maxLen int, visit func(tr []VertexRef) bool) {
	path := make([]VertexRef, 0, cmp.Or(maxLen, 16))
	var dfs func(i int) bool
	dfs = func(i int) bool {
		path = append(path, g.Verts[i])
		defer func() { path = path[:len(path)-1] }()
		if g.EndAllowed(i) && !visit(path) {
			return false
		}
		if maxLen > 0 && len(path) >= maxLen {
			return true
		}
		for _, j := range g.Succ[i] {
			if !dfs(j) {
				return false
			}
		}
		return true
	}
	for i := range g.Verts {
		if g.IsStart(i) && !dfs(i) {
			return
		}
	}
}

// Events copies a walked path's events into a new trend.
func Events(path []VertexRef) []*event.Event {
	tr := make([]*event.Event, len(path))
	for i, v := range path {
		tr[i] = v.Ev
	}
	return tr
}

// HasLongerTrends conservatively reports whether the flattening up to
// maxLen may have missed matches: it returns true as soon as any path
// of maxLen+1 vertices exists (the DFS is depth-bounded so the check
// never explores more than the flattened queries themselves would).
func (g *Graph) HasLongerTrends(maxLen int) bool {
	var path int
	var dfs func(i int) bool
	dfs = func(i int) bool {
		path++
		defer func() { path-- }()
		if path > maxLen {
			return true
		}
		for _, j := range g.Succ[i] {
			if dfs(j) {
				return true
			}
		}
		return false
	}
	for i := range g.Verts {
		if g.IsStart(i) && dfs(i) {
			return true
		}
	}
	return false
}

// CountEdges returns the number of stored edges (pointer memory of the
// two-step approaches).
func (g *Graph) CountEdges() int {
	n := 0
	for _, s := range g.Succ {
		n += len(s)
	}
	return n
}
