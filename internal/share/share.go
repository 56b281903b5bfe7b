// Package share implements the shared sub-plan network that lets a
// Runtime serve many statements from one GRETA graph (the Rete
// insight applied to event trend aggregation: statements whose
// trend-formation plans coincide reuse one alpha/beta network instead
// of evaluating private copies).
//
// The package owns the two mechanisms that make sharing safe and the
// runtime composes:
//
//   - Key: the canonical trend-formation identity of a compiled
//     statement — the canonical text of every clause but RETURN
//     (query.Formation: pattern shape, predicate set, partition-by
//     attributes, window, minimal length, selection semantics) plus the
//     arithmetic mode and the scan discipline. Two statements with equal
//     keys form bit-identical trend sets over any stream; only their
//     RETURN aggregates may diverge.
//
//   - Index: an epoch-gated intern table from keys to share nodes. A
//     node is attachable only while the ingest epoch it was created in
//     is still current (no event has been processed since): a statement
//     registered mid-stream must never join a warm graph, because its
//     PR-4 watermark contract says it sees only events from its
//     registration watermark on — it opens a new node (a new shared
//     graph seeded at that watermark) instead.
//
// The per-subscriber fan-out of a shared graph's union payload is
// aggregate.Def's PlanSpecs and Values, the slot mapping every engine
// uses. The package deliberately knows nothing about engines or graphs
// (the core package instantiates Index with its own entry type), so the
// sharing policy is testable in isolation.
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

// Node is one interned sub-plan: the shared network's handle on a
// candidate or promoted shared graph of type E.
type Node[E any] struct {
	key     string
	seq     uint64
	retired bool
	// Val is the caller's entry (the core package stores its candidate
	// statement or shared-engine record here).
	Val E
}

// Key returns the key the node is interned under.
func (n *Node[E]) Key() string { return n.key }

// Index is the epoch-gated intern table of the shared sub-plan
// network. Advance marks the start of a new ingest epoch (an event was
// processed); nodes interned in earlier epochs stop being attachable —
// their graphs are warm, and a warm graph's history would violate a
// newly registered statement's watermark contract. Warm nodes keep
// serving their existing subscribers; they simply stop accepting new
// ones, and a later registration with the same signature interns a
// fresh node over the stale slot.
type Index[E any] struct {
	seq   uint64
	nodes map[string]*Node[E]
}

// NewIndex returns an empty index at epoch zero.
func NewIndex[E any]() *Index[E] {
	return &Index[E]{nodes: map[string]*Node[E]{}}
}

// Advance starts a new ingest epoch, making previously interned nodes
// non-attachable. Call once per processed event (including dropped
// ones: an engine that counted a drop already diverges from a fresh
// engine's stats).
func (ix *Index[E]) Advance() { ix.seq++ }

// AdvanceN advances the epoch by n ingest events at once (the batch
// ingest path's bulk equivalent of n Advance calls).
func (ix *Index[E]) AdvanceN(n uint64) { ix.seq += n }

// Seq returns the current epoch (diagnostics).
func (ix *Index[E]) Seq() uint64 { return ix.seq }

// Attachable returns the node interned under key if it is still
// attachable: interned in the current epoch and not retired.
func (ix *Index[E]) Attachable(key string) (*Node[E], bool) {
	n := ix.nodes[key]
	if n == nil || n.retired || n.seq != ix.seq {
		return nil, false
	}
	return n, true
}

// Put interns val under key at the current epoch, replacing any stale
// node occupying the slot (the stale node's subscribers keep their
// pointer; only the index forgets it).
func (ix *Index[E]) Put(key string, val E) *Node[E] {
	n := &Node[E]{key: key, seq: ix.seq, Val: val}
	ix.nodes[key] = n
	return n
}

// Retire removes a node from the index (its last subscriber detached,
// or its graph was flushed). Idempotent; a nil node is ignored.
func (ix *Index[E]) Retire(n *Node[E]) {
	if n == nil || n.retired {
		return
	}
	n.retired = true
	if ix.nodes[n.key] == n {
		delete(ix.nodes, n.key)
	}
}
