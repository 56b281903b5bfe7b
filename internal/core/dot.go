package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/greta-cep/greta/internal/btree"
)

// DOT renders the current GRETA graph(s) of an engine in Graphviz DOT
// format, reproducing the paper's figure style: one box per vertex
// labeled "type+time : count" (Fig. 6), grouped per state, with edges
// between adjacent trend events. Intended for debugging and teaching on
// small streams — edges are recomputed by predecessor queries, which is
// quadratic.
//
// Only simple (non-composite) plans render; composite plans return a
// comment noting the branch count.
func (e *Engine) DOT() string {
	var b strings.Builder
	b.WriteString("digraph greta {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	if !e.plan.Simple() {
		fmt.Fprintf(&b, "  // composite plan: %d branches, %d products — render branches individually\n",
			e.branches, len(e.subs)-e.branches)
		b.WriteString("}\n")
		return b.String()
	}
	parts := slices.Clone(e.parts.all())
	slices.SortFunc(parts, func(a, b *partition) int { return cmp.Compare(a.key, b.key) })
	for pi, part := range parts {
		for gi, g := range part.graphs {
			name := "positive"
			if g.spec.Negative {
				name = fmt.Sprintf("negative %d", gi)
			}
			label := name
			if part.key != "" {
				label = fmt.Sprintf("%s [%s]", name, strings.ReplaceAll(part.key, "\x1f", ","))
			}
			fmt.Fprintf(&b, "  subgraph cluster_%d_%d {\n    label=%q;\n", pi, gi, label)
			g.dotVertices(&b, fmt.Sprintf("p%dg%d", pi, gi))
			b.WriteString("  }\n")
			g.dotEdges(&b, fmt.Sprintf("p%dg%d", pi, gi))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// dotID returns a stable node identifier.
func dotID(prefix string, v *Vertex) string {
	return fmt.Sprintf("%s_s%d_e%d", prefix, v.State, v.Ev.ID)
}

// dotVertices emits one node per stored vertex, labeled like the
// paper's figures; END-state vertices get a double border (peripheries).
func (g *Graph) dotVertices(b *strings.Builder, prefix string) {
	g.forEachVertex(func(v *Vertex) {
		st := g.spec.Tmpl.States[v.State]
		count := "-"
		if len(v.Aggs) > 0 && v.Present.Has(0) {
			count = g.def.ExactCount(&v.Aggs[0]).String()
		}
		peri := 1
		if st.End {
			peri = 2
		}
		fmt.Fprintf(b, "    %s [label=\"%s%d : %s\", peripheries=%d];\n",
			dotID(prefix, v), strings.ToLower(string(st.Type)), v.Time, count, peri)
	})
}

// dotEdges re-runs the predecessor query per stored vertex and emits
// the adjacency edges.
func (g *Graph) dotEdges(b *strings.Builder, prefix string) {
	g.forEachVertex(func(v *Vertex) {
		st := g.spec.Tmpl.States[v.State]
		lo, _ := g.win.Wids(v.Time)
		for _, psIdx := range st.Preds {
			g.forEachCandidate(v.Ev, psIdx, int(v.State), lo, func(p *Vertex) {
				fmt.Fprintf(b, "  %s -> %s;\n", dotID(prefix, p), dotID(prefix, v))
			})
		}
	})
}

// forEachVertex visits all stored vertices in (pane, state, key) order.
func (g *Graph) forEachVertex(visit func(*Vertex)) {
	for _, pn := range g.panes {
		for _, tree := range pn.trees {
			if tree != nil {
				tree.Ascend(func(it btree.Item[*Vertex]) bool {
					visit(it.Val)
					return true
				})
			}
		}
	}
}
