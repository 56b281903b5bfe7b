// Package baseline defines the shared result and statistics types of
// the state-of-the-art two-step engines the paper evaluates against
// (§10.1): SASE, CET, and Flink-style flattening. Each engine lives in
// its own sub-package; all construct event trends explicitly before
// aggregating them, which is exactly the exponential cost GRETA avoids.
package baseline

import (
	"fmt"
	"maps"
	"math"
	"slices"

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

// Add folds one materialized trend into the aggregates.
func (a *TrendAgg) Add(tr []*event.Event) {
	if a.seen != nil {
		key := trendKey(tr)
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
	out := make([]float64, len(a.vals))
	copy(out, a.vals)
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

func trendKey(tr []*event.Event) string {
	b := make([]byte, 0, len(tr)*4)
	for _, e := range tr {
		id := e.ID
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ',')
	}
	return string(b)
}

// Partition splits events by grouping and equivalence attributes in
// stream order (shared by all two-step engines) and lists the
// partitions in key order, so the engines merge a group's partitions in
// the same order on every run and a float SUM reads the same bits.
func Partition(q *query.Query, evs []*event.Event) [][]*event.Event {
	attrs := append(append([]string{}, q.GroupBy...), q.Equivalence...)
	parts := map[string][]*event.Event{}
	for _, e := range evs {
		key := ""
		for i, a := range attrs {
			if i > 0 {
				key += "\x1f"
			}
			if s, ok := e.Str[a]; ok {
				key += s
			} else if v, ok := e.Attrs[a]; ok {
				key += formatNum(v)
			}
		}
		parts[key] = append(parts[key], e)
	}
	out := make([][]*event.Event, 0, len(parts))
	for _, k := range slices.Sorted(maps.Keys(parts)) {
		out = append(out, parts[k])
	}
	return out
}

func formatNum(v float64) string {
	return fmt.Sprintf("%g", v)
}

// GroupOf computes the output grouping key (GROUP-BY attributes only)
// of a partition, per Definition 2: equivalence attributes partition
// trend formation but are not part of the output grouping.
func GroupOf(q *query.Query, part []*event.Event) string {
	if len(part) == 0 || len(q.GroupBy) == 0 {
		return ""
	}
	e := part[0]
	key := ""
	for i, a := range q.GroupBy {
		if i > 0 {
			key += "\x1f"
		}
		if s, ok := e.Str[a]; ok {
			key += s
		} else if v, ok := e.Attrs[a]; ok {
			key += formatNum(v)
		}
	}
	return key
}

// Wids lists all window ids any event of part falls into, ascending.
func Wids(q *query.Query, part []*event.Event) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, e := range part {
		lo, hi := q.Window.Wids(e.Time)
		for wid := lo; wid <= hi; wid++ {
			if !seen[wid] {
				seen[wid] = true
				out = append(out, wid)
			}
		}
	}
	SortInt64s(out)
	return out
}

// InWindow filters part to the events of window wid.
func InWindow(q *query.Query, wid int64, part []*event.Event) []*event.Event {
	var out []*event.Event
	for _, e := range part {
		if q.Window.Contains(wid, e.Time) {
			out = append(out, e)
		}
	}
	return out
}

// SortInt64s sorts in place (insertion sort; wid lists are short).
func SortInt64s(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// SortResults orders results by (group, wid).
func SortResults(rs []Result) {
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
