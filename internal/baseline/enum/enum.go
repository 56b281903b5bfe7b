// Package enum implements a brute-force event trend enumerator: the
// reference oracle that materializes every trend matched by a query
// (Definition 1 semantics, with the operational negation rules of paper
// §5) and aggregates them one by one. Its cost is exponential in the
// number of events, so it is usable only on small streams; the test
// suite cross-validates the GRETA runtime against it.
package enum

import (
	"fmt"
	"maps"
	"slices"
	"strings"

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
	Trends int       // distinct trends (== Count; kept for clarity)
}

// Trend is a materialized trend: the matched events in order.
type Trend []*event.Event

// Key is the identity of a trend (its event id sequence).
func (t Trend) Key() string {
	var b strings.Builder
	for i, e := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e.ID)
	}
	return b.String()
}

func (t Trend) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Run enumerates and aggregates all trends of q over evs.
func Run(q *query.Query, evs []*event.Event) ([]Result, error) {
	if q.Pattern.Kind == pattern.KindAnd {
		return runConjunction(q, evs)
	}
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, err
	}
	// Trends are formed per partition (group-by + equivalence attributes)
	// and aggregated per output group (GROUP-BY attributes only),
	// matching Definition 2.
	results := map[string]map[int64]map[string]Trend{} // group -> wid -> trendKey -> trend
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
					if q.MinLen > 1 && len(tr) < q.MinLen {
						continue
					}
					if results[group] == nil {
						results[group] = map[int64]map[string]Trend{}
					}
					if results[group][wid] == nil {
						results[group][wid] = map[string]Trend{}
					}
					results[group][wid][tr.Key()] = tr
				}
			}
		}
	}
	return aggregateResults(q, results), nil
}

// groupOf computes the output grouping key of a partition.
func groupOf(q *query.Query, part []*event.Event) string {
	if len(part) == 0 || len(q.GroupBy) == 0 {
		return ""
	}
	e := part[0]
	var b strings.Builder
	for i, a := range q.GroupBy {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		if s, ok := e.Str[a]; ok {
			b.WriteString(s)
		} else if v, ok := e.Attrs[a]; ok {
			fmt.Fprintf(&b, "%g", v)
		}
	}
	return b.String()
}

// Trends enumerates the distinct trends of q over evs in the global
// window (no windowing), for tests that inspect trends directly.
func Trends(q *query.Query, evs []*event.Event) ([]Trend, error) {
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, err
	}
	seen := map[string]Trend{}
	for _, part := range partition(q, evs) {
		for _, b := range branches {
			trends, err := EnumerateBranch(q, b, part, part)
			if err != nil {
				return nil, err
			}
			for _, tr := range trends {
				seen[tr.Key()] = tr
			}
		}
	}
	out := make([]Trend, 0, len(seen))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out, nil
}

// partition splits events by grouping and equivalence attributes, in
// stream order (the oracle twin of the runtime partitioner), and lists
// the partitions in key order.
func partition(q *query.Query, evs []*event.Event) [][]*event.Event {
	attrs := append(append([]string{}, q.GroupBy...), q.Equivalence...)
	parts := map[string][]*event.Event{}
	for _, e := range evs {
		var b strings.Builder
		for i, a := range attrs {
			if i > 0 {
				b.WriteByte('\x1f')
			}
			if s, ok := e.Str[a]; ok {
				b.WriteString(s)
			} else if v, ok := e.Attrs[a]; ok {
				fmt.Fprintf(&b, "%g", v)
			}
		}
		parts[b.String()] = append(parts[b.String()], e)
	}
	out := make([][]*event.Event, 0, len(parts))
	for _, k := range slices.Sorted(maps.Keys(parts)) {
		out = append(out, parts[k])
	}
	return out
}

// widsOf lists all window ids any event of part falls into.
func widsOf(w window.Spec, part []*event.Event) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, e := range part {
		lo, hi := w.Wids(e.Time)
		for wid := lo; wid <= hi; wid++ {
			if !seen[wid] {
				seen[wid] = true
				out = append(out, wid)
			}
		}
	}
	slices.Sort(out)
	return out
}

func inWindow(w window.Spec, wid int64, part []*event.Event) []*event.Event {
	var out []*event.Event
	for _, e := range part {
		if w.Contains(wid, e.Time) {
			out = append(out, e)
		}
	}
	return out
}
