package query_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/share"
)

// planShape renders what a plan decides from the query text — per
// graph the Vertex Tree sort attributes, then the pane size and the
// sharing key — so two plans can be compared.
func planShape(p *core.Plan) string {
	s := fmt.Sprintf("pane=%d key=%q", p.Window.PaneSize(), share.Key(p.Query, p.Mode, false))
	for _, g := range p.Subs {
		s += fmt.Sprintf(" sort=%v", g.SortAttr)
	}
	for _, sub := range slices.Concat(p.Branches, p.Products) {
		s += " {" + planShape(sub) + "}"
	}
	return s
}

// FuzzParseQuery: the query parser must never panic, and the canonical
// text of an accepted query parses back to the same query and plan.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"RETURN COUNT(*) PATTERN A+",
		"RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 10 minutes SLIDE 10 seconds",
		"RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E) WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper WITHIN 1 minute SLIDE 30 seconds",
		"RETURN segment, COUNT(*), AVG(P.speed) PATTERN SEQ(NOT Accident A, Position P+) WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed GROUP-BY segment WITHIN 5 minutes SLIDE 1 minute",
		"RETURN COUNT(*) PATTERN (SEQ(A+, NOT SEQ(C, NOT E, D), B))+ MINLEN 2 SEMANTICS contiguous",
		"RETURN COUNT(*) PATTERN A+ OR SEQ(B, C?)",
		"RETURN MIN(A.x), MAX(A.x) PATTERN SEQ(A*, B) WITHIN 7 SLIDE 7",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, s := range slices.Concat(strayBytes, refused, fixedPoints) {
		f.Add(s)
	}
	for _, lit := range keptLiterals {
		f.Add(whereOf(lit))
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Parse(src)
		if err != nil {
			return
		}
		// Canonical text is a fixed point: it parses back to this query.
		text := q.String()
		q2, err := query.Parse(text)
		if err != nil {
			t.Fatalf("canonical text %q of %q does not re-parse: %v", text, src, err)
		}
		if q2.String() != text || !reflect.DeepEqual(q, q2) {
			t.Fatalf("canonical text %q of %q parses to another query, %q", text, src, q2)
		}
		// Planning must not panic on any accepted query (plan errors are
		// fine: unsupported combinations are rejected gracefully) and
		// must decide the same on both sides of the round trip.
		p1, err1 := core.NewPlan(q, aggregate.ModeNative)
		p2, err2 := core.NewPlan(q2, aggregate.ModeNative)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q plans with %v, its canonical text with %v", src, err1, err2)
		}
		if err1 == nil && planShape(p1) != planShape(p2) {
			t.Fatalf("%q plans as %s, its canonical text as %s", src, planShape(p1), planShape(p2))
		}
	})
}

// FuzzParsePattern: the pattern parser must never panic; accepted
// patterns validate and their canonical text parses back to them.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{
		"A+", "SEQ(A+, B)", "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+",
		"Stock S+", "A? OR B*", "SEQ(A, B, C, D, E)", "A+ AND B+",
		"Stock S+ | Halt H+", "SEQ(Stock S+, Halt H) # SEQ(oops)", "PATTERN WHERE!0",
		"(Within W)+", "SEQ(A, A, A1 A)", "a.b c.d+",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := pattern.Parse(src)
		if err != nil {
			return
		}
		if err := pattern.Validate(p); err != nil {
			t.Fatalf("accepted pattern %q fails validation: %v", src, err)
		}
		p2, err := pattern.Parse(p.String())
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", p.String(), src, err)
		}
		if p2.String() != p.String() || !reflect.DeepEqual(p, p2) {
			t.Fatalf("canonical %q of %q parses to another pattern, %q", p.String(), src, p2)
		}
	})
}

// FuzzParsePredicate: the predicate parser must never panic; the
// canonical text of an accepted expression parses back to it.
func FuzzParsePredicate(f *testing.F) {
	for _, s := range []string{
		"S.price > NEXT(S).price",
		"S.a * 2 + 1 <= NEXT(S).b / 3 AND S.c != 0",
		`S.company = "IBM" OR S.x % 2 = 1`,
		"-S.x < 5",
		"S.price > 10 & S.vol < 5", "PATTERN WHERE!0", "NEXT.x > TRUE.y", "1e+15 < .5e-3",
	} {
		f.Add(s)
	}
	for _, lit := range keptLiterals {
		f.Add("S.name = " + lit)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := predicate.Parse(src)
		if err != nil {
			return
		}
		e2, err := predicate.Parse(e.String())
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", e.String(), src, err)
		}
		if e2 != e {
			t.Fatalf("canonical %q of %q parses to another expression, %q", e.String(), src, e2)
		}
	})
}
