// Package greta is a stream processing library for real-time event
// trend aggregation. It implements the GRETA approach (Poppe, Lei,
// Rundensteiner, Maier: "GRETA: Graph-based Real-time Event Trend
// Aggregation", VLDB 2017): aggregates over arbitrarily-long Kleene
// matches (event trends) are computed online by encoding all trends
// into a graph and propagating aggregates along its edges, without
// ever constructing the trends — quadratic time and linear space where
// two-step engines need exponential time and space.
//
// # Quick start
//
// A Runtime hosts any number of compiled statements over one shared
// ingest path; events are routed once and fanned out to every
// registered statement:
//
//	rt := greta.NewRuntime()
//	h, err := rt.Register(greta.MustCompile(`
//	    RETURN COUNT(*) PATTERN Stock S+
//	    WHERE [company] AND S.price > NEXT(S).price
//	    WITHIN 10 minutes SLIDE 10 seconds`))
//	if err != nil { ... }
//	h.OnResult(func(r greta.Result) {
//	    fmt.Printf("window %d: %v down-trends\n", r.Wid, r.Values[0])
//	})
//	for _, ev := range events {
//	    if err := rt.Process(ev); err != nil { ... }
//	}
//	rt.Close() // flush open windows
//
// Statements can be registered and closed at any point mid-stream
// (Register/Handle.Close); a statement registered at watermark T sees
// only events from T onward. Results stream through the OnResult
// callback or the Handle.Results iterator:
//
//	go func() {
//	    for r := range h.Results() {
//	        fmt.Printf("[%s] window %d: %v\n", h.ID(), r.Wid, r.Values[0])
//	    }
//	}()
//
// Runtime.Run consumes a whole Stream under a context;
// Runtime.RunParallel partitions it across in-process worker slots with
// a streaming per-window merge — the same worker slots and slot-order
// merger the cluster package drives across processes.
//
// The query language follows the paper's grammar (Fig. 2): RETURN with
// COUNT/MIN/MAX/SUM/AVG, PATTERN with event types, SEQ, Kleene plus,
// and NOT (plus the §9 sugar: star, optional, OR, AND), WHERE with
// equivalence ([attr, ...]), vertex, and edge (NEXT) predicates,
// GROUP-BY, and WITHIN/SLIDE sliding windows.
package greta

import (
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// Event is a stream message: a typed, timestamped record with numeric
// (Attrs) and string (Str) attributes. Construct events directly or
// with a Builder.
type Event = event.Event

// Time is an application timestamp in ticks (the paper's workloads use
// seconds).
type Time = event.Time

// Type identifies an event type.
type Type = event.Type

// Stream is an in-order event source.
type Stream = event.Stream

// Schema describes an event type's attributes. Binding events to a
// schema (Schema.Bind) populates dense slot arrays that the runtime
// reads by precompiled index — the steady-state per-event path then
// runs without map probes or allocation. Events without a schema are
// processed through the equivalent map fallback.
type Schema = event.Schema

// Batch is a columnar block of schema-bound events of one type: dense
// per-attribute arrays in schema slot order, materialized as Event rows
// aliasing that storage. Build one with NewBatch plus Append (dense
// slot values) or AppendEvent (copies a map-carried event, rejecting
// values the dense form cannot represent), then feed it with
// Runtime.ProcessBatch. A batch hands ownership of its rows to the
// runtime; do not Reset or reuse it while windows that saw its rows
// are open.
type Batch = event.Batch

// NewBatch returns an empty batch bound to sch with capacity for n
// rows. The schema must not be nil; its Type stamps every row.
func NewBatch(sch *Schema, n int) *Batch { return event.NewBatch(sch, n) }

// Builder assembles in-order test and example streams.
type Builder = event.Builder

// NewSliceStream adapts a slice of events to a Stream.
func NewSliceStream(evs []*Event) Stream { return event.NewSliceStream(evs) }

// Result is one final aggregate for one group and one window.
type Result = core.Result

// Stats summarizes runtime costs: events, stored vertices, logical
// edges, partitions, results, memory peaks (PeakVertices/PeakPayloads,
// with summary payloads included), and the edge-traversal cost split —
// ScanVisits (per-vertex candidate visits) vs SummaryFolds (O(1)
// pane/subtree summary folds, each covering any number of logical
// edges) vs SummaryRebuilds (lazy in-place pane-summary rebuilds after
// negation watermark advances).
type Stats = core.Stats

// Option configures compilation.
type Option func(*options)

type options struct {
	exact bool
}

// WithExactArithmetic switches aggregate arithmetic from native machine
// words (uint64 with wrap-around, float64 sums) to exact math/big
// arithmetic. The number of trends is Θ(2ⁿ) in the window size, so
// native counters wrap on large windows; exact mode trades speed for
// full precision.
func WithExactArithmetic() Option {
	return func(o *options) { o.exact = true }
}

// Statement is a compiled event trend aggregation query: the GRETA
// configuration produced by the static query analyzer (template per
// sub-pattern, classified predicates, window plan).
type Statement struct {
	query *query.Query
	plan  *core.Plan
}

// Compile parses and plans a query.
func Compile(src string, opts ...Option) (*Statement, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	q, plan, err := core.Compile(src, o.exact)
	if err != nil {
		return nil, err
	}
	return &Statement{query: q, plan: plan}, nil
}

// MustCompile is Compile that panics on error, for tests and examples.
func MustCompile(src string, opts ...Option) *Statement {
	s, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Query returns the canonical text of the compiled query.
func (s *Statement) Query() string { return s.query.String() }
