package query_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/query"
)

// The defect table: every input the six hand scanners answered wrongly,
// with the answer the one tokenizer must give. The fuzzers seed from it.

// strayBytes are refused with an error naming the byte and its offset;
// before, the lexers read the first unknown byte as the end of input
// and ran the prefix.
var strayBytes = []string{
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > 10 & S.vol < 5",
	"RETURN COUNT(*) PATTERN Stock S+ | Halt H+",
	"RETURN COUNT(*) PATTERN SEQ(Stock S+, Halt H) # SEQ(oops) WHERE [company]",
	"RETURN COUNT(*) PATTERN Stock S+; WHERE [company]",
	`RETURN COUNT(*) PATTERN Stock S+ WHERE S.name = "IBM`,
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > 10 ! S.vol",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > 10 \x00",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > 10 \xff",
	"RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 SLIDE 5 @",
}

// keptLiterals hold text the byte scanners cut at, counted as brackets
// or rewrote; each keeps its bytes and its [company] neighbour.
var keptLiterals = []string{
	`"A  AND  B"`, `"a("`, `"x]"`, `"a, b"`, `"x WITHIN y"`, `'x PATTERN y'`,
	`"[a]"`, `"a OR b"`, `"a\b"`, "\"a\tb\"", `'say "hi"'`, `"it's"`, `""`,
}

// refused are inputs that were accepted, or canonicalised to text that
// did not re-parse, and now have a defined error.
var refused = []string{
	"PATTERN WHERE!0",
	"RETURN COUNT(*) PATTERN WHERE!0",
	// An [attrs] group under OR was hoisted out against AND's precedence.
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.a > 1 OR S.b > 2 AND [company]",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] OR S.a > 1",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE (S.a > 1 AND [company])",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.a > 1 [company]",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE [company",
	// Reserved words: (Within W)+ canonicalises to "Within W+".
	"RETURN COUNT(*) PATTERN (Within W)+",
	"RETURN COUNT(*) PATTERN SEQ(Return R, Stock S+)",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE (S.slide > 1)",
	"RETURN COUNT(*)) PATTERN Stock S+",
	"RETURN COUNT(*) PATTERN Stock S+ GROUP-BY a b",
}

// fixedPoints were accepted with canonical text that parsed back to a
// different query, or not at all.
var fixedPoints = []string{
	"RETURN SUM(A.x) PATTERN SEQ(A B, B A+)",                // SUM(B.x), then SUM(A.x) again
	"RETURN COUNT(*) PATTERN Stock NEXT+ WHERE price > 3",   // NEXT.price wanted a '('
	"RETURN COUNT(*) PATTERN Stock TRUE+ WHERE price > 3",   // TRUE.price read as 1 .price
	"RETURN COUNT(A) PATTERN A+ WITHIN 0 SLIDE 1",           // unbounded, but not window.Global
	"RETURN COUNT(A) PATTERN A+ MINLEN 1",                   // unconstrained, but not 0
	"RETURN COUNT(*) PATTERN a.b+ WHERE x > NEXT(a.b).x",    // a.b.x: a dotted alias had no spelling
	"RETURN AVG(A.x) PATTERN n.A A+",                        // AVG(n.A.x): nor had a dotted type
	"RETURN COUNT(*) PATTERN SEQ(A, A, A1 A+) WHERE [A3.b]", // generated aliases, qualifier
}

func whereOf(lit string) string {
	return "RETURN COUNT(*) PATTERN Stock S+ WHERE S.name = " + lit + " AND [company]"
}

func TestDefectTable(t *testing.T) {
	for _, src := range strayBytes {
		_, err := query.Parse(src)
		at := strings.IndexAny(src, "&|#;\"!\x00\xff@")
		want := fmt.Sprintf("%q at offset %d", src[at:at+1], at)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", src, err, want)
		}
	}
	for _, lit := range keptLiterals {
		src := whereOf(lit)
		q, err := query.Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if len(q.Equivalence) != 1 || q.Equivalence[0] != "company" {
			t.Errorf("Parse(%q): equivalence = %v, want [company]", src, q.Equivalence)
		}
		want := predicate.Binary{Op: predicate.OpEq, L: predicate.Ref{Alias: "S", Attr: "name"}, R: predicate.StrConst{V: lit[1 : len(lit)-1]}}
		if q.Where != want {
			t.Errorf("Parse(%q): where = %#v, want %#v", src, q.Where, want)
		}
		q2, err := query.Parse(q.String())
		if err != nil {
			t.Errorf("canonical text %q of %q does not re-parse: %v", q.String(), src, err)
		} else if q2.String() != q.String() || q2.Where != want {
			t.Errorf("canonical text of %q is no fixed point: %q then %q", src, q.String(), q2.String())
		}
	}
	for _, src := range fixedPoints {
		q, err := query.Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if q2, err := query.Parse(q.String()); err != nil || !reflect.DeepEqual(q, q2) {
			t.Errorf("canonical text %q of %q parses back to %q, %v", q, src, q2, err)
		}
	}
	for _, src := range refused {
		if q, err := query.Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted as %q", src, q)
		}
	}
	if _, err := pattern.Parse("PATTERN WHERE!0"); err == nil {
		t.Error(`pattern.Parse("PATTERN WHERE!0") accepted`)
	}
	if _, err := predicate.Parse("S.x > 1 ! 0"); err == nil {
		t.Error(`predicate.Parse("S.x > 1 ! 0") accepted`)
	}
}

// TestNestingBound: a 200 KB line of brackets (under the servers' 1 MiB
// MaxLine) is refused in milliseconds instead of recursing for seconds
// under the session lock.
func TestNestingBound(t *testing.T) {
	const depth = 100_000
	open, shut := strings.Repeat("(", depth), strings.Repeat(")", depth)
	start := time.Now()
	for _, src := range []string{
		"RETURN COUNT(*) PATTERN " + open + "A+" + shut,
		"RETURN COUNT(*) PATTERN A" + strings.Repeat("+", depth),
		"RETURN COUNT(*) PATTERN SEQ(" + strings.Repeat("NOT ", depth) + "A, B+)",
		"RETURN COUNT(*) PATTERN A+ WHERE " + open + "A.x > 1" + shut,
		"RETURN COUNT(*) PATTERN A+ WHERE " + strings.Repeat("-", depth) + "A.x > 1",
		"RETURN COUNT(*) PATTERN A+ WHERE A.x > 1" + strings.Repeat(" OR 1", depth),
	} {
		if _, err := query.Parse(src); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("Parse(%.40q…) = %v, want the nesting error", src, err)
		}
	}
	// Tens of milliseconds each, most of it the tokenizer; the bound is
	// loose because CI machines are shared.
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("refusing six over-nested statements took %v", d)
	}
	// Well inside the bound still parses.
	if _, err := query.Parse("RETURN COUNT(*) PATTERN " + open[:100] + "A+" + shut[:100]); err != nil {
		t.Error(err)
	}
}
