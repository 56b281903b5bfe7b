package enum

import (
	"maps"
	"math"
	"slices"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/matchgraph"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/query"
)

// EnumerateBranch enumerates the trends of one sugar-free branch over
// the events wevs (one window of one partition). fullPart is the whole
// partition in stream order, needed by the contiguous semantics to
// check stream adjacency.
func EnumerateBranch(q *query.Query, branch *pattern.Node, wevs, fullPart []*event.Event) ([]Trend, error) {
	g, err := matchgraph.BuildForBranch(q, branch, wevs, fullPart)
	if err != nil {
		return nil, err
	}
	var out []Trend
	g.WalkTrends(func(path []matchgraph.VertexRef) bool {
		tr := make(Trend, len(path))
		for i, v := range path {
			tr[i] = v.Ev
		}
		out = append(out, tr)
		return true
	})
	return out, nil
}

// aggregateResults folds enumerated trends into per-group, per-window
// aggregates aligned with the query's RETURN clause.
func aggregateResults(q *query.Query, results map[string]map[int64]map[string]Trend) []Result {
	var out []Result
	for group, wids := range results {
		for wid, trends := range wids {
			r := Result{Group: group, Wid: wid}
			r.Count = uint64(len(trends))
			r.Trends = len(trends)
			list := make([]Trend, 0, len(trends))
			for _, k := range slices.Sorted(maps.Keys(trends)) {
				list = append(list, trends[k])
			}
			vals := make([]float64, len(q.Aggs))
			for vi, spec := range q.Aggs {
				vals[vi] = aggregateTrends(spec, list)
			}
			r.Values = vals
			out = append(out, r)
		}
	}
	sortResults(out)
	return out
}

func sortResults(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := &rs[j-1], &rs[j]
			if a.Group < b.Group || (a.Group == b.Group && a.Wid <= b.Wid) {
				break
			}
			rs[j-1], rs[j] = rs[j], rs[j-1]
		}
	}
}

// aggregateTrends computes one RETURN aggregate over materialized
// trends — the "aggregation step" of the two-step approach — folding
// them in the order given (aggregateResults sorts them by key), so a
// float SUM reads the same bits on every run.
func aggregateTrends(spec aggregate.Spec, trends []Trend) float64 {
	switch spec.Kind {
	case aggregate.CountStar:
		return float64(len(trends))
	case aggregate.CountType:
		n := 0
		for _, tr := range trends {
			for _, e := range tr {
				if e.Type == spec.Type {
					n++
				}
			}
		}
		return float64(n)
	case aggregate.Min, aggregate.Max:
		best := math.Inf(1)
		if spec.Kind == aggregate.Max {
			best = math.Inf(-1)
		}
		for _, tr := range trends {
			for _, e := range tr {
				if e.Type != spec.Type {
					continue
				}
				if v, ok := e.Attrs[spec.Attr]; ok {
					if spec.Kind == aggregate.Min && v < best || spec.Kind == aggregate.Max && v > best {
						best = v
					}
				}
			}
		}
		return best
	case aggregate.Sum:
		s := 0.0
		for _, tr := range trends {
			for _, e := range tr {
				if e.Type == spec.Type {
					s += e.Attrs[spec.Attr]
				}
			}
		}
		return s
	case aggregate.Avg:
		s, n := 0.0, 0
		for _, tr := range trends {
			for _, e := range tr {
				if e.Type == spec.Type {
					s += e.Attrs[spec.Attr]
					n++
				}
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return s / float64(n)
	}
	return math.NaN()
}

// runConjunction enumerates both conjunct sets and applies the paper's
// pair-count formula (§9).
func runConjunction(q *query.Query, evs []*event.Event) ([]Result, error) {
	qi := *q
	qi.Pattern = q.Pattern.Children[0]
	qj := *q
	qj.Pattern = q.Pattern.Children[1]
	type key struct {
		group string
		wid   int64
	}
	sets := func(sub *query.Query) (map[key]map[string]bool, error) {
		branches, err := pattern.Expand(sub.Pattern)
		if err != nil {
			return nil, err
		}
		out := map[key]map[string]bool{}
		for _, part := range partition(q, evs) {
			group := groupOf(q, part)
			for _, wid := range widsOf(q.Window, part) {
				wevs := inWindow(q.Window, wid, part)
				for _, b := range branches {
					trends, err := EnumerateBranch(q, b, wevs, part)
					if err != nil {
						return nil, err
					}
					for _, tr := range trends {
						k := key{group, wid}
						if out[k] == nil {
							out[k] = map[string]bool{}
						}
						out[k][tr.Key()] = true
					}
				}
			}
		}
		return out, nil
	}
	setA, err := sets(&qi)
	if err != nil {
		return nil, err
	}
	setB, err := sets(&qj)
	if err != nil {
		return nil, err
	}
	keys := map[key]bool{}
	for k := range setA {
		keys[k] = true
	}
	for k := range setB {
		keys[k] = true
	}
	var out []Result
	for k := range keys {
		a, b := setA[k], setB[k]
		var cij uint64
		for t := range a {
			if b[t] {
				cij++
			}
		}
		ci := uint64(len(a)) - cij
		cj := uint64(len(b)) - cij
		count := ci*cj + ci*cij + cj*cij + cij*(cij-1)/2
		if count == 0 {
			continue
		}
		out = append(out, Result{Group: k.group, Wid: k.wid, Count: count, Values: []float64{float64(count)}, Trends: int(count)})
	}
	sortResults(out)
	return out, nil
}
