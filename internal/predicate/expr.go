// Package predicate implements the predicate language θ of the GRETA
// query grammar (paper Fig. 2):
//
//	θ := Constant | EventType.Attribute | NEXT(EventType).Attribute | θ O θ
//	O := + | - | / | * | % | = | != | > | >= | < | <= | AND | OR
//
// and the classification of predicates into vertex predicates (local and
// equivalence) and edge predicates (paper §6). Edge predicates are
// additionally compiled into range-query bounds so the runtime's Vertex
// Tree can locate predecessor events in logarithmic time (paper §7).
//
// Parse reads the tokens of internal/lex, the one tokenizer of the query
// language, and Expr.String writes text that parses back to the same
// expression: a string constant goes out between the quote character it
// does not contain, because a literal has no escapes.
package predicate

import (
	"fmt"
	"math"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/lex"
)

// Op enumerates binary operators.
type Op uint8

// Binary operators of the θ grammar.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpGt
	OpGe
	OpLt
	OpLe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNeq: "!=", OpGt: ">", OpGe: ">=", OpLt: "<", OpLe: "<=",
	OpAnd: "AND", OpOr: "OR",
}

func (o Op) String() string { return opNames[o] }

// Expr is a predicate expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// Const is a numeric literal.
type Const struct{ V float64 }

// StrConst is a string literal.
type StrConst struct{ V string }

// Ref references an attribute of an event bound by alias. Next marks a
// NEXT(alias).attr reference (the later event of an adjacent pair).
// Attr may be the pseudo-attribute "time" to reference timestamps.
type Ref struct {
	Alias string
	Attr  string
	Next  bool
}

// Binary applies Op to L and R.
type Binary struct {
	Op   Op
	L, R Expr
}

func (Const) expr()    {}
func (StrConst) expr() {}
func (Ref) expr()      {}
func (Binary) expr()   {}

func (c Const) String() string    { return trimFloat(c.V) }
func (s StrConst) String() string { return lex.Quote(s.V) }
func (r Ref) String() string {
	if r.Next {
		return fmt.Sprintf("NEXT(%s).%s", r.Alias, r.Attr)
	}
	if r.Alias == "" {
		// Bare attribute shorthand, resolved by the planner.
		return r.Attr
	}
	return fmt.Sprintf("%s.%s", r.Alias, r.Attr)
}
func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Value is the result of evaluating an expression: a number, a string,
// or a boolean (numbers double as booleans: non-zero is true).
type Value struct {
	F   float64
	S   string
	Str bool
}

func num(f float64) Value { return Value{F: f} }
func str(s string) Value  { return Value{S: s, Str: true} }
func boolVal(b bool) Value {
	if b {
		return Value{F: 1}
	}
	return Value{F: 0}
}

// Truthy reports whether the value is boolean-true.
func (v Value) Truthy() bool { return v.Str && v.S != "" || !v.Str && v.F != 0 }

// Binding supplies the events referenced by an expression. Prev is the
// earlier event of an adjacent pair (plain alias references); Next is
// the later event (NEXT(alias) references). For vertex predicates the
// same event is bound to both.
type Binding struct {
	Prev *event.Event
	Next *event.Event
}

// Eval evaluates e under b. Missing attributes evaluate to NaN (numeric)
// or "" (string), which makes comparisons involving them false.
func Eval(e Expr, b Binding) Value {
	switch n := e.(type) {
	case Const:
		return num(n.V)
	case StrConst:
		return str(n.V)
	case Ref:
		ev := b.Prev
		if n.Next {
			ev = b.Next
		}
		if ev == nil {
			return num(math.NaN())
		}
		if n.Attr == "time" {
			return num(float64(ev.Time))
		}
		if v, ok := ev.Attrs[n.Attr]; ok {
			return num(v)
		}
		if s, ok := ev.Str[n.Attr]; ok {
			return str(s)
		}
		return num(math.NaN())
	case Binary:
		l := Eval(n.L, b)
		// Short-circuit booleans.
		switch n.Op {
		case OpAnd:
			if !l.Truthy() {
				return boolVal(false)
			}
			return boolVal(Eval(n.R, b).Truthy())
		case OpOr:
			if l.Truthy() {
				return boolVal(true)
			}
			return boolVal(Eval(n.R, b).Truthy())
		}
		r := Eval(n.R, b)
		if l.Str || r.Str {
			return evalStr(n.Op, l, r)
		}
		switch n.Op {
		case OpAdd:
			return num(l.F + r.F)
		case OpSub:
			return num(l.F - r.F)
		case OpMul:
			return num(l.F * r.F)
		case OpDiv:
			return num(l.F / r.F)
		case OpMod:
			return num(math.Mod(l.F, r.F))
		case OpEq:
			return boolVal(l.F == r.F)
		case OpNeq:
			return boolVal(l.F != r.F)
		case OpGt:
			return boolVal(l.F > r.F)
		case OpGe:
			return boolVal(l.F >= r.F)
		case OpLt:
			return boolVal(l.F < r.F)
		case OpLe:
			return boolVal(l.F <= r.F)
		}
	}
	return num(math.NaN())
}

func evalStr(op Op, l, r Value) Value {
	ls, rs := l.S, r.S
	if !l.Str {
		ls = trimFloat(l.F)
	}
	if !r.Str {
		rs = trimFloat(r.F)
	}
	switch op {
	case OpEq:
		return boolVal(ls == rs)
	case OpNeq:
		return boolVal(ls != rs)
	case OpGt:
		return boolVal(ls > rs)
	case OpGe:
		return boolVal(ls >= rs)
	case OpLt:
		return boolVal(ls < rs)
	case OpLe:
		return boolVal(ls <= rs)
	case OpAdd:
		return str(ls + rs)
	}
	return num(math.NaN())
}

// Refs appends all Ref leaves of e.
func Refs(e Expr) []Ref {
	var out []Ref
	var walk func(Expr)
	walk = func(x Expr) {
		switch n := x.(type) {
		case Ref:
			out = append(out, n)
		case Binary:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(e)
	return out
}
