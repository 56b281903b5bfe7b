package core_test

import (
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// TestDOTFig6c renders the Fig. 6(c) graph and checks the vertices and
// intermediate counts the paper shows: a1:1 b2:1 a3:3 a4:6 b7:10 a8:22
// b9:32 (over the a/b projection of the Fig. 6 stream).
func TestDOTFig6c(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN (SEQ(A+, B))+")
	plan, err := core.NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(plan)
	var b event.Builder
	b.Add("A", 1, nil)
	b.Add("B", 2, nil)
	b.Add("A", 3, nil)
	b.Add("A", 4, nil)
	b.Add("B", 7, nil)
	b.Add("A", 8, nil)
	b.Add("B", 9, nil)
	for _, ev := range b.Events() {
		eng.Process(ev)
	}
	dot := eng.DOT()
	for _, want := range []string{
		"a1 : 1", "b2 : 1", "a3 : 3", "a4 : 6", "b7 : 10", "a8 : 22", "b9 : 32",
		"->", "digraph greta",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// END vertices (B state) are double-bordered.
	if !strings.Contains(dot, "peripheries=2") {
		t.Error("END vertices should have double borders")
	}
}

func TestDOTComposite(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A?, B)")
	plan, err := core.NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(plan)
	dot := eng.DOT()
	if !strings.Contains(dot, "composite plan") {
		t.Errorf("composite DOT = %q", dot)
	}
}
