package lex

import (
	"fmt"
	"strings"
	"testing"
)

func render(toks []Token) string {
	var parts []string
	for _, t := range toks {
		parts = append(parts, fmt.Sprintf("%d:%s@%d-%d", t.Kind, t.Text, t.Pos, t.End))
	}
	return strings.Join(parts, " ")
}

func TestScan(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"", "0:@0-0"},
		{"Stock S+", "2:Stock@0-5 2:S@6-7 5:+@7-8 0:@8-8"},
		{"a.b_1 <> .5e-3", "2:a@0-1 5:.@1-2 2:b_1@2-5 5:!=@6-8 3:.5e-3@9-14 0:@14-14"},
		{"x>=1e9<=2.5E+3!=3<4>5", "2:x@0-1 5:>=@1-3 3:1e9@3-6 5:<=@6-8 3:2.5E+3@8-14 5:!=@14-16 3:3@16-17 5:<@17-18 3:4@18-19 5:>@19-20 3:5@20-21 0:@21-21"},
		{"1e 1.2.3", "3:1@0-1 2:e@1-2 3:1.2.3@3-8 0:@8-8"},
		{`'say "hi"' "a\b" ""`, `4:say "hi"@0-10 4:a\b@11-16 4:@17-19 0:@19-19`},
		{"GROUP-BY\t[a,\nb]", "2:GROUP@0-5 5:-@5-6 2:BY@6-8 5:[@9-10 2:a@10-11 5:,@11-12 2:b@13-14 5:]@14-15 0:@15-15"},
		{"Stöck _x9 ９", `2:Stöck@0-6 2:_x9@7-10 1:unexpected character "９" at offset 11@11-14`},
		{"a & b", `2:a@0-1 1:unexpected character "&" at offset 2@2-5`},
		{"a \xff", `2:a@0-1 1:unexpected character "\xff" at offset 2@2-3`},
		{`x = "abc`, `2:x@0-1 5:=@2-3 1:unterminated string starting with "\"" at offset 4@4-8`},
		{"'\xff'", `1:string that is not UTF-8 starting with "'" at offset 0@0-3`},
		{"a ! b", `2:a@0-1 1:unexpected character "!" at offset 2@2-5`},
	} {
		if got := render(Scan(c.src)); got != c.want {
			t.Errorf("Scan(%q)\n got %s\nwant %s", c.src, got, c.want)
		}
	}
}

// TestQuote: Quote writes what Scan reads back, whichever quote the
// text holds.
func TestQuote(t *testing.T) {
	for _, s := range []string{"", "IBM", `a\b`, "a\tb", `say "hi"`, "it's", "x ] ( AND"} {
		toks := Scan(Quote(s))
		if len(toks) != 2 || toks[0].Kind != String || toks[0].Text != s {
			t.Errorf("Scan(Quote(%q)) = %s", s, render(toks))
		}
	}
}

func TestCursor(t *testing.T) {
	toks := Scan("SEQ ( a.b . c , d. )")
	c := NewCursor(toks[2:9]) // a.b . c , d — a sub-range carries no EOF
	if name, ok := c.Name(); !ok || name != "a.b.c" {
		t.Errorf("Name = %q, %v", name, ok)
	}
	if _, ok := c.Name(); ok || !c.Accept(",") || c.Accept(",") || !c.Peek().Keyword("D") {
		t.Errorf("cursor at %v after the comma", c.Peek())
	}
	c.Next()
	if eof := c.Next(); eof.Kind != EOF || eof.Pos != toks[8].End || c.Peek().Kind != EOF {
		t.Errorf("past the range: %+v", eof)
	}
	if err := c.Deep("x", MaxNesting); err != nil {
		t.Error(err)
	}
	if err := c.Deep("x", MaxNesting+1); err == nil {
		t.Error("no error past MaxNesting")
	}
}
