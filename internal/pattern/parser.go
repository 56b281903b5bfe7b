package pattern

import (
	"fmt"
	"strings"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/lex"
)

// Parse parses the paper's PATTERN clause surface syntax (Fig. 2 plus
// the §9 sugar) from the tokens of internal/lex:
//
//	P := EventType [Alias] | P '+' | P '*' | P '?' | NOT P
//	   | SEQ(P, P, ...) | (P) | P OR P | P AND P
//
// Examples from the paper:
//
//	Stock S+
//	SEQ(Start S, Measurement M+, End E)
//	SEQ(NOT Accident A, Position P+)
//	(SEQ(A+, NOT SEQ(C, NOT E, D), B))+
//
// An event type or alias is an identifier or a dotted run of them; SEQ,
// NOT, OR and AND are keywords in any letter case. Brackets and
// operators may nest lex.MaxNesting deep. Parse assigns unique aliases
// (EnsureAliases) and validates the structural rules of §2.
func Parse(src string) (*Node, error) { return ParseTokens(lex.Scan(src)) }

// ParseTokens is Parse over a token range, the PATTERN clause of a
// query for one.
func ParseTokens(toks []lex.Token) (*Node, error) {
	p := parser{lex.NewCursor(toks)}
	n, err := p.parseOrAnd(0)
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind != lex.EOF {
		return nil, t.Unexpected("pattern")
	}
	EnsureAliases(n)
	if err := Validate(n); err != nil {
		return nil, err
	}
	return n, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct{ *lex.Cursor }

// parseOrAnd handles the lowest-precedence binary operators OR and AND.
// Mixing OR and AND without parentheses is rejected to avoid silent
// precedence surprises. depth counts the brackets and operators the
// pattern is nested in.
func (p parser) parseOrAnd(depth int) (*Node, error) {
	first, err := p.parseUnary(depth)
	if err != nil {
		return nil, err
	}
	kind := KindEvent
	children := []*Node{first}
	for {
		t, k := p.Peek(), KindOr
		if t.Keyword("AND") {
			k = KindAnd
		} else if !t.Keyword("OR") {
			break
		}
		if kind != KindEvent && kind != k {
			return nil, fmt.Errorf("pattern: mixing OR and AND requires parentheses at offset %d", t.Pos)
		}
		kind = k
		p.Next()
		n, err := p.parseUnary(depth)
		if err != nil {
			return nil, err
		}
		children = append(children, n)
	}
	if kind == KindEvent {
		return first, nil
	}
	return &Node{Kind: kind, Children: children}, nil
}

var postfix = map[string]Kind{"+": KindPlus, "*": KindStar, "?": KindOpt}

// parseUnary parses a primary followed by any number of postfix +, *, ?.
func (p parser) parseUnary(depth int) (*Node, error) {
	n, err := p.parsePrimary(depth)
	if err != nil {
		return nil, err
	}
	for {
		kind, ok := postfix[p.Peek().Text]
		if !ok || p.Peek().Kind != lex.Punct {
			return n, nil
		}
		depth++
		if err := p.Deep("pattern", depth); err != nil {
			return nil, err
		}
		p.Next()
		n = &Node{Kind: kind, Children: []*Node{n}}
	}
}

func (p parser) parsePrimary(depth int) (*Node, error) {
	if err := p.Deep("pattern", depth); err != nil {
		return nil, err
	}
	switch {
	case p.Accept("("):
		n, err := p.parseOrAnd(depth + 1)
		if err != nil {
			return nil, err
		}
		if !p.Accept(")") {
			return nil, p.Peek().Unexpected("pattern: missing ')'")
		}
		return n, nil
	case p.AcceptKeyword("NOT"):
		n, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		return Not(n), nil
	case p.AcceptKeyword("SEQ"):
		if !p.Accept("(") {
			return nil, p.Peek().Unexpected("pattern: SEQ requires '('")
		}
		var kids []*Node
		for {
			n, err := p.parseOrAnd(depth + 1)
			if err != nil {
				return nil, err
			}
			kids = append(kids, n)
			if !p.Accept(",") {
				break
			}
		}
		if !p.Accept(")") {
			return nil, p.Peek().Unexpected("pattern: missing ')' closing SEQ")
		}
		if len(kids) == 1 {
			return kids[0], nil
		}
		return Seq(kids...), nil
	}
	if t := p.Peek(); t.Kind != lex.Ident || isKeyword(t.Text) {
		return nil, t.Unexpected("pattern")
	}
	typ, _ := p.Name()
	// Optional alias: a following name that is not a keyword.
	if nt := p.Peek(); nt.Kind == lex.Ident && !isKeyword(nt.Text) {
		alias, _ := p.Name()
		return EventAs(event.Type(typ), alias), nil
	}
	return &Node{Kind: KindEvent, Type: event.Type(typ)}, nil
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SEQ", "NOT", "OR", "AND":
		return true
	}
	return false
}
