// Package baseline is the two-step architecture the paper evaluates
// GRETA against (§10.1, Fig. 1): construct every event trend per
// partition and per window, then aggregate them. EachWindow is its one
// loop, and each sub-package plugs a trend construction strategy into
// it: sase a DFS over stacked predecessor pointers, cet shared
// sub-trend nodes, flat Flink-style fixed-length sequence queries (sase
// and flat hand their trends to a TrendAgg through Fold), and enum, the
// brute-force oracle, folds a window's distinct trends in TrendKey
// order. All of them construct trends explicitly, which is exactly the
// exponential cost GRETA avoids; matchgraph builds the explicit graph
// of (event, state) vertices and stored edges they walk.
package baseline

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// Result is one per-group, per-window aggregate.
type Result struct {
	Group  string
	Wid    int64
	Values []float64 // aligned with the query's RETURN aggregates
}

// Stats captures the cost profile of a two-step run.
type Stats struct {
	// Trends is the number of trends constructed (paths walked or
	// sequences materialized).
	Trends uint64
	// TrendNodes is the total length of all constructed trends — the
	// dominant memory term for CET and Flink, and the dominant time term
	// for SASE.
	TrendNodes uint64
	// StoredEdges counts stored predecessor pointers (SASE stacks).
	StoredEdges uint64
	// StoredBytes approximates peak bytes of trend storage.
	StoredBytes uint64
	// Queries is the number of flattened sub-queries executed (Flink).
	Queries uint64
	// Truncated reports matches dropped by a length cap (Flink's
	// fixed-length rewriting cannot cover unbounded Kleene).
	Truncated bool
}

// TrendAgg accumulates the RETURN aggregates of a query over trends
// supplied one at a time — the "aggregate afterwards" step shared by
// all two-step engines.
type TrendAgg struct {
	q      *query.Query
	vals   []float64
	avgAux []avgPair
	n      uint64
	seen   map[string]bool // dedup across disjunction branches, nil if single branch
}

// NewTrendAgg returns an accumulator for q. dedup enables cross-branch
// trend deduplication (needed when a pattern expands into overlapping
// branches).
func NewTrendAgg(q *query.Query, dedup bool) *TrendAgg {
	a := &TrendAgg{q: q, vals: make([]float64, len(q.Aggs)), avgAux: make([]avgPair, len(q.Aggs))}
	for i, spec := range q.Aggs {
		switch spec.Kind {
		case aggregate.Min:
			a.vals[i] = math.Inf(1)
		case aggregate.Max:
			a.vals[i] = math.Inf(-1)
		}
	}
	if dedup {
		a.seen = map[string]bool{}
	}
	return a
}

// Add folds one materialized trend into the aggregates. A trend of
// fewer events than the query's MINLEN is not one of its trends.
func (a *TrendAgg) Add(tr []*event.Event) {
	if len(tr) < a.q.MinLen {
		return
	}
	if a.seen != nil {
		key := TrendKey(tr)
		if a.seen[key] {
			return
		}
		a.seen[key] = true
	}
	a.n++
	for i, spec := range a.q.Aggs {
		switch spec.Kind {
		case aggregate.CountStar:
			a.vals[i]++
		case aggregate.CountType:
			for _, e := range tr {
				if e.Type == spec.Type {
					a.vals[i]++
				}
			}
		case aggregate.Min, aggregate.Max:
			for _, e := range tr {
				if e.Type != spec.Type {
					continue
				}
				if v, ok := e.Attrs[spec.Attr]; ok {
					if spec.Kind == aggregate.Min && v < a.vals[i] || spec.Kind == aggregate.Max && v > a.vals[i] {
						a.vals[i] = v
					}
				}
			}
		case aggregate.Sum:
			for _, e := range tr {
				if e.Type == spec.Type {
					a.vals[i] += e.Attrs[spec.Attr]
				}
			}
		case aggregate.Avg:
			for _, e := range tr {
				if e.Type == spec.Type {
					a.avgAux[i].sum += e.Attrs[spec.Attr]
					a.avgAux[i].n++
				}
			}
		}
	}
}

// Finish returns the aggregate values (resolving AVG) and the trend
// count. ok is false when no trend was added.
func (a *TrendAgg) Finish() (vals []float64, count uint64, ok bool) {
	if a.n == 0 {
		return nil, 0, false
	}
	out := slices.Clone(a.vals)
	for i, spec := range a.q.Aggs {
		if spec.Kind != aggregate.Avg {
			continue
		}
		if a.avgAux[i].n == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = a.avgAux[i].sum / float64(a.avgAux[i].n)
	}
	return out, a.n, true
}

// avgAux tracks AVG numerators/denominators per RETURN position.
type avgPair struct {
	sum float64
	n   uint64
}

// TrendKey is the identity of a trend: its events' IDs in order, in
// decimal, comma-separated. Cross-branch dedup and the enumerator's
// fold order both read it.
func TrendKey(tr []*event.Event) string {
	b := make([]byte, 0, len(tr)*8)
	for i, e := range tr {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, e.ID, 10)
	}
	return string(b)
}

// Cell addresses one output row: an output group and a window id.
type Cell struct {
	Group string
	Wid   int64
}

// SortedCells lists the cells of m ordered by (group, wid).
func SortedCells[A any](m map[Cell]A) []Cell {
	cells := slices.AppendSeq(make([]Cell, 0, len(m)), maps.Keys(m))
	slices.SortFunc(cells, func(a, b Cell) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Wid, b.Wid))
	})
	return cells
}

// EachWindow is the skeleton's loop: it partitions evs by the grouping
// and equivalence attributes, in stream order, and calls fn for each
// window of each partition — partitions in key order, wids ascending —
// with the window's output cell (only GROUP-BY attributes name the
// group, Definition 2), its events wevs, and the whole partition part
// (contiguous semantics read stream adjacency there). The fixed order
// makes a float SUM over a group's partitions read the same bits on
// every run. An error from fn stops the loop and is returned.
func EachWindow(q *query.Query, evs []*event.Event, fn func(c Cell, wevs, part []*event.Event) error) error {
	attrs := append(slices.Clone(q.GroupBy), q.Equivalence...)
	parts := map[string][]*event.Event{}
	for _, e := range evs {
		k := attrKey(e, attrs)
		parts[k] = append(parts[k], e)
	}
	for _, k := range slices.Sorted(maps.Keys(parts)) {
		part := parts[k]
		group := attrKey(part[0], q.GroupBy)
		seen := map[int64]bool{}
		var wids []int64
		for _, e := range part {
			lo, hi := q.Window.Wids(e.Time)
			for wid := lo; wid <= hi; wid++ {
				if !seen[wid] {
					seen[wid] = true
					wids = append(wids, wid)
				}
			}
		}
		slices.Sort(wids)
		for _, wid := range wids {
			var wevs []*event.Event
			for _, e := range part {
				if q.Window.Contains(wid, e.Time) {
					wevs = append(wevs, e)
				}
			}
			if err := fn(Cell{group, wid}, wevs, part); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fold runs the skeleton for an engine that hands each trend it builds
// to a TrendAgg: trends is called for each window of each partition
// with the TrendAgg of the window's cell (dedup as in NewTrendAgg), and
// the cells' aggregates come back ordered by (group, wid).
func Fold(q *query.Query, evs []*event.Event, dedup bool, trends func(agg *TrendAgg, wevs, part []*event.Event) error) ([]Result, error) {
	aggs := map[Cell]*TrendAgg{}
	err := EachWindow(q, evs, func(c Cell, wevs, part []*event.Event) error {
		if aggs[c] == nil {
			aggs[c] = NewTrendAgg(q, dedup)
		}
		return trends(aggs[c], wevs, part)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(aggs))
	for _, c := range SortedCells(aggs) {
		if vals, _, ok := aggs[c].Finish(); ok {
			out = append(out, Result{Group: c.Group, Wid: c.Wid, Values: vals})
		}
	}
	return out, nil
}

// attrKey joins e's values of attrs with \x1f: a string value as is, a
// number in %g form, a missing attribute as the empty string.
func attrKey(e *event.Event, attrs []string) string {
	key := ""
	for i, a := range attrs {
		if i > 0 {
			key += "\x1f"
		}
		if s, ok := e.Str[a]; ok {
			key += s
		} else if v, ok := e.Attrs[a]; ok {
			key += fmt.Sprintf("%g", v)
		}
	}
	return key
}
