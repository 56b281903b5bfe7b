package predicate

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/greta-cep/greta/internal/lex"
)

// Parse parses a θ expression from the tokens of internal/lex, e.g.
//
//	S.price > NEXT(S).price
//	M.load < NEXT(M).load AND M.cpu >= 10
//	S.price * 1.05 < NEXT(S).price
//	S.company = "IBM"
//
// Attribute references are written alias.attr (the attribute is the
// last name when the alias is dotted); NEXT(alias).attr binds to the
// later event of an adjacent pair. A bare identifier (no dot) is
// shorthand for a reference to attribute attr of the contextual alias
// and is resolved by the query planner; here it parses as Ref with an
// empty alias. Operators bind, loosest first: OR, AND, one comparison,
// + -, * / %, unary minus; brackets and operator chains may nest
// lex.MaxNesting deep.
func Parse(src string) (Expr, error) { return ParseTokens(lex.Scan(src)) }

// ParseTokens is Parse over a token range, the WHERE clause of a query
// for one.
func ParseTokens(toks []lex.Token) (Expr, error) {
	p := parser{lex.NewCursor(toks)}
	e, err := p.parseBinary(precOr, 0)
	if err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind != lex.EOF {
		return nil, t.Unexpected("predicate")
	}
	return e, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct{ *lex.Cursor }

// Binding strengths of the binary operators.
const (
	precOr = iota + 1
	precAnd
	precCmp
	precAdd
	precMul
	precUnary
)

var precOf = [...]int{
	OpOr: precOr, OpAnd: precAnd,
	OpEq: precCmp, OpNeq: precCmp, OpGt: precCmp, OpGe: precCmp, OpLt: precCmp, OpLe: precCmp,
	OpAdd: precAdd, OpSub: precAdd, OpMul: precMul, OpDiv: precMul, OpMod: precMul,
}

// binaryOp reads t as a binary operator: AND and OR are identifiers,
// the rest punctuation, all spelled as Op.String spells them.
func binaryOp(t lex.Token) (Op, bool) {
	if t.Kind == lex.Punct || t.Kind == lex.Ident {
		for op, name := range opNames {
			if strings.EqualFold(t.Text, name) {
				return op, true
			}
		}
	}
	return 0, false
}

// parseBinary parses operators binding at least as tightly as min,
// left-associatively. A comparison takes arithmetic operands only, so
// a < b < c is refused. depth counts the brackets and operators the
// expression is nested in; every operator of a chain nests the tree one
// deeper.
func (p parser) parseBinary(min, depth int) (Expr, error) {
	l, err := p.parseUnary(depth)
	if err != nil {
		return nil, err
	}
	for lprec := precUnary; ; {
		op, ok := binaryOp(p.Peek())
		prec := precOf[op]
		if !ok || prec < min || prec == precCmp && lprec <= precCmp {
			return l, nil
		}
		p.Next()
		depth++
		r, err := p.parseBinary(prec+1, depth)
		if err != nil {
			return nil, err
		}
		l, lprec = Binary{op, l, r}, prec
	}
}

func (p parser) parseUnary(depth int) (Expr, error) {
	if err := p.Deep("predicate", depth); err != nil {
		return nil, err
	}
	if p.Peek().Kind == lex.Ident {
		return p.parseName()
	}
	t := p.Next()
	switch {
	case t.Is("-"):
		e, err := p.parseUnary(depth + 1)
		if err != nil {
			return nil, err
		}
		return Binary{OpSub, Const{0}, e}, nil
	case t.Kind == lex.Number:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("predicate: bad number %q at offset %d", t.Text, t.Pos)
		}
		return Const{v}, nil
	case t.Kind == lex.String:
		return StrConst{t.Text}, nil
	case t.Is("("):
		e, err := p.parseBinary(precOr, depth+1)
		if err != nil {
			return nil, err
		}
		if !p.Accept(")") {
			return nil, p.Peek().Unexpected("predicate: missing ')'")
		}
		return e, nil
	}
	return nil, t.Unexpected("predicate")
}

// parseName parses what starts with an identifier: alias.attr (in
// a.b.c the alias is the dotted a.b, and it may be called anything),
// NEXT(alias).attr, TRUE, FALSE, or a bare attribute of the contextual
// alias.
func (p parser) parseName() (Expr, error) {
	alias, name, _ := p.Qualified()
	switch {
	case alias != "":
		return Ref{Alias: alias, Attr: name}, nil
	case strings.EqualFold(name, "NEXT"):
		if !p.Accept("(") {
			return nil, p.Peek().Unexpected("predicate: NEXT requires '('")
		}
		al, ok := p.Name()
		if !ok {
			return nil, p.Peek().Unexpected("predicate: NEXT requires an alias")
		}
		attr := Ref{Alias: al, Next: true}
		if !p.Accept(")") || !p.Accept(".") || p.Peek().Kind != lex.Ident {
			return nil, p.Peek().Unexpected("predicate: " + attr.String() + " requires an attribute name")
		}
		attr.Attr = p.Next().Text
		return attr, nil
	case strings.EqualFold(name, "TRUE"):
		return Const{1}, nil
	case strings.EqualFold(name, "FALSE"):
		return Const{0}, nil
	}
	return Ref{Attr: name}, nil
}
