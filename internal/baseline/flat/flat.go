// Package flat implements the Flink-style flattening baseline (paper
// §10.1): industrial streaming systems without Kleene closure simulate
// a Kleene query by "a set of fixed-length event sequence queries that
// cover all possible lengths from 1 to l", where l is the length of the
// longest match. Each sub-query constructs and stores all its matching
// event sequences before aggregation, so both the query workload and
// the materialized sequences blow up — the paper's Flink fails beyond
// 100k events per window with ~1 GB of stored sequences.
package flat

import (
	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/matchgraph"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/query"
)

// Options configures the flattening.
type Options struct {
	// MaxLen is l: the longest sequence length covered. Trends longer
	// than MaxLen are missed (Truncated is set when the cap bites),
	// mirroring the fundamental limitation the paper points out: "this
	// approach is possible only if the maximal length of a trend is
	// known apriori".
	MaxLen int
	// MaxSequences aborts a window after storing this many sequences
	// (0 = unlimited).
	MaxSequences uint64
}

// DefaultMaxLen is used when Options.MaxLen is zero.
const DefaultMaxLen = 12

// Run executes the query by flattening it into fixed-length sequence
// queries.
func Run(q *query.Query, evs []*event.Event, opt Options) ([]baseline.Result, baseline.Stats, error) {
	if opt.MaxLen <= 0 {
		opt.MaxLen = DefaultMaxLen
	}
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, baseline.Stats{}, err
	}
	var stats baseline.Stats
	// Dedup across lengths and branches.
	out, err := baseline.Fold(q, evs, true, func(agg *baseline.TrendAgg, wevs, part []*event.Event) error {
		var stored [][]*event.Event
		// The flattening runs MaxLen fixed-length sub-queries; their
		// union of matches equals one length-bounded walk, which is how
		// we execute it (each stored sequence still belongs to exactly
		// one sub-query). The work cap bounds the exponential walk
		// itself, not just the stored matches.
		var walked uint64
		for _, b := range branches {
			g, err := matchgraph.BuildForBranch(q, b, wevs, part)
			if err != nil {
				return err
			}
			stats.Queries += uint64(opt.MaxLen)
			g.WalkTrendsMaxLen(opt.MaxLen, func(path []matchgraph.VertexRef) bool {
				walked++
				if opt.MaxSequences > 0 && walked > opt.MaxSequences {
					stats.Truncated = true
					return false
				}
				// Flink materializes the sequence before aggregation.
				seq := matchgraph.Events(path)
				stored = append(stored, seq)
				stats.Trends++
				stats.TrendNodes += uint64(len(seq))
				return true
			})
			if !stats.Truncated && g.HasLongerTrends(opt.MaxLen) {
				stats.Truncated = true
			}
		}
		stats.StoredBytes += uint64(len(stored)) * 24
		for _, seq := range stored {
			stats.StoredBytes += uint64(len(seq)) * 8
			agg.Add(seq)
		}
		return nil
	})
	return out, stats, err
}
