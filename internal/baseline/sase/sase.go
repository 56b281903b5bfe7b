// Package sase implements the SASE-style two-step baseline (paper
// §10.1): "(1) Each event e is stored in a stack and pointers to e's
// previous events in a trend are stored. For each window, a DFS-based
// algorithm traverses these pointers to construct all trends. (2) These
// trends are aggregated."
//
// The DFS re-computes every sub-trend for each longer trend containing
// it, so latency grows exponentially with the number of events, while
// memory stays low: only the stacks, the pointers, and the single trend
// currently under construction are held (the 50-fold-less-than-CET
// memory profile of the paper's Fig. 14(b)).
package sase

import (
	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/matchgraph"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/query"
)

// Options bounds a run so benchmarks can cap exponential blow-up.
type Options struct {
	// MaxTrends aborts a window after this many constructed trends
	// (0 = unlimited). The paper's SASE fails to terminate beyond 500k
	// events; the cap makes sweeps finite.
	MaxTrends uint64
}

// Run executes the query with the two-step SASE strategy.
func Run(q *query.Query, evs []*event.Event, opt Options) ([]baseline.Result, baseline.Stats, error) {
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, baseline.Stats{}, err
	}
	var stats baseline.Stats
	out, err := baseline.Fold(q, evs, len(branches) > 1, func(agg *baseline.TrendAgg, wevs, part []*event.Event) error {
		var windowTrends uint64
		for _, b := range branches {
			// Step 1a: build stacks and predecessor pointers.
			g, err := matchgraph.BuildForBranch(q, b, wevs, part)
			if err != nil {
				return err
			}
			stats.StoredEdges += uint64(g.CountEdges())
			// Step 1b + 2: DFS constructs each trend, then the trend is
			// aggregated and discarded.
			g.WalkTrends(func(path []matchgraph.VertexRef) bool {
				if opt.MaxTrends > 0 && windowTrends >= opt.MaxTrends {
					stats.Truncated = true
					return false
				}
				windowTrends++
				stats.Trends++
				stats.TrendNodes += uint64(len(path))
				if uint64(len(path))*16 > stats.StoredBytes {
					// Peak memory: one trend at a time.
					stats.StoredBytes = uint64(len(path)) * 16
				}
				agg.Add(matchgraph.Events(path))
				return true
			})
		}
		return nil
	})
	return out, stats, err
}
