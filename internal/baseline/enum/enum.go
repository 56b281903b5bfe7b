// Package enum implements a brute-force event trend enumerator: the
// reference oracle that materializes every trend matched by a query
// (Definition 1 semantics, with the operational negation rules of paper
// §5) and aggregates them one by one. Its cost is exponential in the
// number of events, so it is usable only on small streams; the test
// suite cross-validates the GRETA runtime against it.
//
// It runs on the two-step skeleton of package baseline: per window of
// each partition it collects the distinct trends of every branch, and
// per (group, wid) it folds them in baseline.TrendKey order, so a float
// SUM reads the same bits on every run.
package enum

import (
	"maps"
	"slices"
	"strings"

	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/matchgraph"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/window"
)

// Result is one per-group, per-window aggregate computed by
// enumeration.
type Result struct {
	Group  string
	Wid    int64
	Count  uint64
	Values []float64 // aligned with the query's RETURN aggregates
}

// Trend is a materialized trend: the matched events in order.
type Trend []*event.Event

func (t Trend) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// trendSet holds a cell's distinct trends by baseline.TrendKey.
type trendSet map[string]Trend

// Run enumerates and aggregates all trends of q over evs.
func Run(q *query.Query, evs []*event.Event) ([]Result, error) {
	if q.Pattern.Kind == pattern.KindAnd {
		return runConjunction(q, evs)
	}
	cells, err := trendSets(q, q.Pattern, q.MinLen, evs)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, c := range baseline.SortedCells(cells) {
		set := cells[c]
		agg := baseline.NewTrendAgg(q, false)
		for _, k := range slices.Sorted(maps.Keys(set)) {
			agg.Add(set[k])
		}
		vals, n, _ := agg.Finish()
		out = append(out, Result{Group: c.Group, Wid: c.Wid, Count: n, Values: vals})
	}
	return out, nil
}

// Trends enumerates the distinct trends of q over evs in the global
// window (no windowing), ordered by key, for tests that inspect trends
// directly.
func Trends(q *query.Query, evs []*event.Event) ([]Trend, error) {
	global := *q
	global.Window = window.Global
	cells, err := trendSets(&global, q.Pattern, 0, evs)
	if err != nil {
		return nil, err
	}
	all := trendSet{}
	for _, c := range baseline.SortedCells(cells) {
		maps.Copy(all, cells[c])
	}
	out := make([]Trend, 0, len(all))
	for _, k := range slices.Sorted(maps.Keys(all)) {
		out = append(out, all[k])
	}
	return out, nil
}

// trendSets enumerates, per (group, wid) cell, the distinct trends of
// pattern p of at least minLen events, over q's partitions and windows.
// A cell without trends is absent.
func trendSets(q *query.Query, p *pattern.Node, minLen int, evs []*event.Event) (map[baseline.Cell]trendSet, error) {
	branches, err := pattern.Expand(p)
	if err != nil {
		return nil, err
	}
	cells := map[baseline.Cell]trendSet{}
	err = baseline.EachWindow(q, evs, func(c baseline.Cell, wevs, part []*event.Event) error {
		for _, b := range branches {
			g, err := matchgraph.BuildForBranch(q, b, wevs, part)
			if err != nil {
				return err
			}
			g.WalkTrends(func(path []matchgraph.VertexRef) bool {
				if len(path) >= minLen {
					if cells[c] == nil {
						cells[c] = trendSet{}
					}
					tr := matchgraph.Events(path)
					cells[c][baseline.TrendKey(tr)] = tr
				}
				return true
			})
		}
		return nil
	})
	return cells, err
}

// runConjunction enumerates both conjunct sets and applies the paper's
// pair-count formula (§9).
func runConjunction(q *query.Query, evs []*event.Event) ([]Result, error) {
	setA, err := trendSets(q, q.Pattern.Children[0], 0, evs)
	if err != nil {
		return nil, err
	}
	setB, err := trendSets(q, q.Pattern.Children[1], 0, evs)
	if err != nil {
		return nil, err
	}
	union := maps.Clone(setA)
	maps.Copy(union, setB)
	var out []Result
	for _, c := range baseline.SortedCells(union) {
		a, b := setA[c], setB[c]
		var cij uint64
		for k := range a {
			if _, ok := b[k]; ok {
				cij++
			}
		}
		ci := uint64(len(a)) - cij
		cj := uint64(len(b)) - cij
		count := ci*cj + ci*cij + cj*cij + cij*(cij-1)/2
		if count == 0 {
			continue
		}
		out = append(out, Result{Group: c.Group, Wid: c.Wid, Count: count, Values: []float64{float64(count)}})
	}
	return out, nil
}
