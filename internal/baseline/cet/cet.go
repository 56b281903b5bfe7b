// Package cet implements the CET-style two-step baseline (paper
// §10.1): the state-of-the-art event trend *detection* approach that
// "stores and reuses partial event trends while constructing the final
// event trends", extended — as the paper's authors did for their
// experiments — to aggregate event trends upon their construction.
//
// Sub-trends are shared via parent pointers: each node represents one
// distinct sub-trend ending at its vertex and is built exactly once in
// O(1) from its parent, which avoids the DFS re-computation of SASE
// (roughly the 2× speed-up of the paper's Fig. 14(a)). The price is
// that every sub-trend is materialized, so memory grows with the total
// number of sub-trends — exponential in the number of events (the
// 3-orders-of-magnitude memory gap of Fig. 14(b)).
package cet

import (
	"math"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/matchgraph"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/query"
)

// Options bounds a run so benchmarks can cap exponential blow-up.
type Options struct {
	// MaxNodes aborts a window after materializing this many sub-trend
	// nodes (0 = unlimited).
	MaxNodes uint64
}

// node is one shared sub-trend: the event-vertex it ends at plus a
// parent pointer, with cumulative per-trend statistics so completed
// trends aggregate in O(1).
type node struct {
	vert   int
	parent *node
	length uint32
	// Cumulative per-trend values aligned with the query aggregates:
	// running count/sum/min/max of the trend's own events.
	vals []float64
}

// Run executes the query with the CET strategy.
func Run(q *query.Query, evs []*event.Event, opt Options) ([]baseline.Result, baseline.Stats, error) {
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, baseline.Stats{}, err
	}
	if len(branches) > 1 {
		// Cross-branch dedup would require materializing keys; the paper's
		// CET evaluation uses single-branch Kleene queries.
		return nil, baseline.Stats{}, errMultiBranch
	}
	var stats baseline.Stats
	accs := map[baseline.Cell]*acc{}
	err = baseline.EachWindow(q, evs, func(c baseline.Cell, wevs, part []*event.Event) error {
		g, err := matchgraph.BuildForBranch(q, branches[0], wevs, part)
		if err != nil {
			return err
		}
		a, truncated := runWindow(q, g, opt, &stats)
		stats.Truncated = stats.Truncated || truncated
		if a.count == 0 {
			return nil
		}
		if cur := accs[c]; cur == nil {
			accs[c] = a
		} else {
			cur.merge(q, a)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	out := make([]baseline.Result, 0, len(accs))
	for _, c := range baseline.SortedCells(accs) {
		out = append(out, baseline.Result{Group: c.Group, Wid: c.Wid, Values: accs[c].finish(q)})
	}
	return out, stats, nil
}

// acc accumulates window aggregates so partitions of one output group
// can be merged.
type acc struct {
	count  uint64
	finals []float64
	avgSum []float64
	avgDen []float64
}

func (a *acc) merge(q *query.Query, b *acc) {
	a.count += b.count
	for i, spec := range q.Aggs {
		switch spec.Kind {
		case aggregate.CountStar, aggregate.CountType, aggregate.Sum:
			a.finals[i] += b.finals[i]
		case aggregate.Min:
			if b.finals[i] < a.finals[i] {
				a.finals[i] = b.finals[i]
			}
		case aggregate.Max:
			if b.finals[i] > a.finals[i] {
				a.finals[i] = b.finals[i]
			}
		case aggregate.Avg:
			a.avgSum[i] += b.avgSum[i]
			a.avgDen[i] += b.avgDen[i]
		}
	}
}

func (a *acc) finish(q *query.Query) []float64 {
	out := make([]float64, len(a.finals))
	copy(out, a.finals)
	for i, spec := range q.Aggs {
		if spec.Kind != aggregate.Avg {
			continue
		}
		if a.avgDen[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = a.avgSum[i] / a.avgDen[i]
		}
	}
	return out
}

var errMultiBranch = errorString("cet: disjunctive patterns are not supported by the CET baseline")

type errorString string

func (e errorString) Error() string { return string(e) }

// runWindow builds the shared sub-trend nodes in stream order and folds
// completed trends into a window accumulator.
func runWindow(q *query.Query, g *matchgraph.Graph, opt Options, stats *baseline.Stats) (*acc, bool) {
	// lists[i] holds all sub-trend nodes ending at vertex i.
	lists := make([][]*node, len(g.Verts))
	finals := make([]float64, len(q.Aggs))
	avgSum := make([]float64, len(q.Aggs))
	for i, spec := range q.Aggs {
		switch spec.Kind {
		case aggregate.Min:
			finals[i] = math.Inf(1)
		case aggregate.Max:
			finals[i] = math.Inf(-1)
		}
	}
	var count uint64
	var nodes uint64
	truncated := false

	complete := func(n *node) {
		count++
		for i, spec := range q.Aggs {
			switch spec.Kind {
			case aggregate.CountStar:
				finals[i]++
			case aggregate.CountType, aggregate.Sum:
				finals[i] += n.vals[i]
			case aggregate.Min:
				if n.vals[i] < finals[i] {
					finals[i] = n.vals[i]
				}
			case aggregate.Max:
				if n.vals[i] > finals[i] {
					finals[i] = n.vals[i]
				}
			case aggregate.Avg:
				avgSum[i] += n.vals[i]
			}
		}
	}

	newNode := func(vert int, parent *node) *node {
		nodes++
		stats.Trends++ // every node is one distinct (sub-)trend
		stats.TrendNodes++
		n := &node{vert: vert, parent: parent, length: 1}
		ev := g.Verts[vert].Ev
		n.vals = make([]float64, len(q.Aggs))
		if parent != nil {
			n.length = parent.length + 1
			copy(n.vals, parent.vals)
		} else {
			for i, spec := range q.Aggs {
				switch spec.Kind {
				case aggregate.Min:
					n.vals[i] = math.Inf(1)
				case aggregate.Max:
					n.vals[i] = math.Inf(-1)
				}
			}
		}
		for i, spec := range q.Aggs {
			if spec.Kind == aggregate.CountStar || ev.Type != spec.Type {
				continue
			}
			switch spec.Kind {
			case aggregate.CountType:
				n.vals[i]++
			case aggregate.Sum, aggregate.Avg:
				n.vals[i] += ev.Attrs[spec.Attr]
			case aggregate.Min:
				if v := ev.Attrs[spec.Attr]; v < n.vals[i] {
					n.vals[i] = v
				}
			case aggregate.Max:
				if v := ev.Attrs[spec.Attr]; v > n.vals[i] {
					n.vals[i] = v
				}
			}
		}
		return n
	}

	// Vertices are in stream order (buildVertices iterates events in
	// order), so predecessors of a vertex are materialized before it.
	for i := range g.Verts {
		if opt.MaxNodes > 0 && nodes > opt.MaxNodes {
			truncated = true
			break
		}
		if g.IsStart(i) {
			lists[i] = append(lists[i], newNode(i, nil))
		}
		for _, p := range g.Pred[i] {
			for _, pn := range lists[p] {
				if opt.MaxNodes > 0 && nodes > opt.MaxNodes {
					truncated = true
					break
				}
				lists[i] = append(lists[i], newNode(i, pn))
			}
		}
		if g.EndAllowed(i) {
			for _, n := range lists[i] {
				if int(n.length) >= q.MinLen {
					complete(n)
				}
			}
		}
	}
	stats.StoredBytes += nodes * 48 // node struct + vals approximation

	// AVG denominators (occurrences of the target type over completed
	// trends) come from a parallel shared-node pass.
	avgD := make([]float64, len(q.Aggs))
	for i, spec := range q.Aggs {
		if spec.Kind == aggregate.Avg {
			avgD[i] = avgDen(q, g, i)
		}
	}
	return &acc{count: count, finals: finals, avgSum: avgSum, avgDen: avgD}, truncated
}

// avgDen recomputes the AVG denominator (occurrences of the target type
// over all completed trends) with a second shared-node pass that tracks
// per-trend type counts.
func avgDen(q *query.Query, g *matchgraph.Graph, aggIdx int) float64 {
	spec := q.Aggs[aggIdx]
	type cnode struct {
		c      float64
		length int
	}
	lists := make([][]cnode, len(g.Verts))
	den := 0.0
	for i := range g.Verts {
		ev := g.Verts[i].Ev
		self := 0.0
		if ev.Type == spec.Type {
			self = 1
		}
		if g.IsStart(i) {
			lists[i] = append(lists[i], cnode{self, 1})
		}
		for _, p := range g.Pred[i] {
			for _, pn := range lists[p] {
				lists[i] = append(lists[i], cnode{pn.c + self, pn.length + 1})
			}
		}
		if g.EndAllowed(i) {
			for _, n := range lists[i] {
				if n.length >= q.MinLen {
					den += n.c
				}
			}
		}
	}
	return den
}
