// Package share defines when two statements may be served by one GRETA
// graph (the Rete insight applied to event trend aggregation: statements
// whose trend-formation plans coincide reuse one alpha/beta network
// instead of evaluating private copies).
//
// Key is the canonical trend-formation identity of a compiled statement
// — the canonical text of every clause but RETURN (query.Formation:
// pattern shape, predicate set, partition-by attributes, window, minimal
// length, selection semantics) plus the arithmetic mode and the scan
// discipline. Two statements with equal keys form bit-identical trend
// sets over any stream; only their RETURN aggregates may diverge. Which
// graph a key names at a given moment, and until when it takes another
// subscriber, is the Runtime's business (internal/core/share.go).
package share

import (
	"fmt"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/query"
)

// Key is the intern-table key of a registration: everything that
// influences which trends form and how they are scanned, and nothing
// that only influences what is returned per trend set. Aliases are
// part of the text (patterns spelled with different aliases
// conservatively do not share, since predicates reference them), and so
// is conjunct order (it selects the Vertex Tree sort attribute and
// therefore the scan stats). A forced per-vertex engine and a
// summary-folding engine produce identical results but different
// traversal stats, so they do not share either.
func Key(q *query.Query, mode aggregate.Mode, forceScan bool) string {
	return fmt.Sprintf("%s\x1f%d\x1f%t", q.Formation(), mode, forceScan)
}
