// Package lex is the one tokenizer of the query language. The query,
// pattern and predicate parsers all read its tokens, so what a string
// literal, a bracket and the end of the input are is decided here and
// nowhere else:
//
//   - an identifier starts with a letter or '_' and continues with
//     letters, digits and '_' (keywords are identifiers; the parsers
//     compare them case-insensitively);
//   - a number is digits and dots, optionally followed by an exponent
//     (1e9, 2.5E-3), or starts with a dot followed by a digit;
//   - a string literal runs from a ' or " to the next occurrence of the
//     same quote; there are no escapes, so it holds every byte between
//     them verbatim;
//   - punctuation is one of ( ) [ ] , . + - * / % ? = != < <= > >=,
//     with <> read as !=;
//   - blanks, tabs and line ends separate tokens.
//
// Anything else — an unknown character, a byte that is not UTF-8, a
// string without its closing quote — ends the stream with an Error
// token naming the byte and its offset, never with EOF, so no parser
// can accept a prefix of its input.
package lex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxNesting bounds how deep brackets and operator chains of a pattern
// or predicate may nest: the parsers are recursive descent, and a
// statement is compiled under the session lock.
const MaxNesting = 1000

// Kind discriminates tokens.
type Kind uint8

// Token kinds. Every stream ends in exactly one EOF or Error token.
const (
	EOF Kind = iota
	Error
	Ident
	Number
	String
	Punct
)

// Token is one lexical element. Text is its source text, except that a
// String carries the literal's bytes without the quotes, "<>" is
// spelled "!=" and an Error carries the message. Pos and End are byte
// offsets into the source.
type Token struct {
	Kind     Kind
	Text     string
	Pos, End int
}

// Is reports whether t is the punctuation p.
func (t Token) Is(p string) bool { return t.Kind == Punct && t.Text == p }

// Keyword reports whether t is the identifier k in any letter case.
func (t Token) Keyword(k string) bool { return t.Kind == Ident && strings.EqualFold(t.Text, k) }

// Unexpected is the error for a token no rule of pkg's grammar takes.
func (t Token) Unexpected(pkg string) error {
	switch t.Kind {
	case Error:
		return fmt.Errorf("%s: %s", pkg, t.Text)
	case EOF:
		return fmt.Errorf("%s: unexpected end of input at offset %d", pkg, t.Pos)
	case String:
		return fmt.Errorf("%s: unexpected string %s at offset %d", pkg, Quote(t.Text), t.Pos)
	}
	return fmt.Errorf("%s: unexpected %q at offset %d", pkg, t.Text, t.Pos)
}

// Quote writes s as the string literal Scan reads back to s: between
// the quote character it does not contain, bytes verbatim.
func Quote(s string) string {
	if strings.IndexByte(s, '"') >= 0 {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// Scan splits src into tokens.
func Scan(src string) []Token {
	var toks []Token
	fail := func(at int, what string) []Token {
		_, n := utf8.DecodeRuneInString(src[at:])
		msg := fmt.Sprintf("%s %q at offset %d", what, src[at:at+n], at)
		return append(toks, Token{Kind: Error, Text: msg, Pos: at, End: len(src)})
	}
	for i := 0; i < len(src); {
		start, kind := i, Punct
		c, c1 := src[i], byte(0)
		if i+1 < len(src) {
			c1 = src[i+1]
		}
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case c == '"' || c == '\'':
			n := strings.IndexByte(src[i+1:], c)
			if n < 0 {
				return fail(i, "unterminated string starting with")
			}
			kind, i = String, i+n+2
			if !utf8.ValidString(src[start:i]) {
				return fail(start, "string that is not UTF-8 starting with")
			}
		case isDigit(c) || c == '.' && isDigit(c1):
			kind, i = Number, scanNumber(src, i)
		case (c == '!' || c == '<' || c == '>') && c1 == '=' || c == '<' && c1 == '>':
			i += 2
		case strings.IndexByte("()[],.+-*/%?=<>", c) >= 0:
			i++
		default:
			kind = Ident
			for i < len(src) {
				r, n := utf8.DecodeRuneInString(src[i:])
				if r != '_' && !unicode.IsLetter(r) && (i == start || !unicode.IsDigit(r)) {
					break
				}
				i += n
			}
			if i == start {
				return fail(i, "unexpected character")
			}
		}
		text := src[start:i]
		switch {
		case kind == String:
			text = text[1 : len(text)-1]
		case text == "<>":
			text = "!="
		}
		toks = append(toks, Token{kind, text, start, i})
	}
	return append(toks, Token{Kind: EOF, Pos: len(src), End: len(src)})
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// scanNumber returns the end of the number starting at src[i].
func scanNumber(src string, i int) int {
	for i < len(src) && (isDigit(src[i]) || src[i] == '.') {
		i++
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		k := i + 1
		if k < len(src) && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < len(src) && isDigit(src[k]) {
			for i = k; i < len(src) && isDigit(src[i]); i++ {
			}
		}
	}
	return i
}

// Cursor walks a token slice: a whole stream from Scan, or the
// sub-range of one that holds a clause.
type Cursor struct {
	toks []Token
	pos  int
}

// NewCursor returns a cursor at the first token of toks.
func NewCursor(toks []Token) *Cursor { return &Cursor{toks: toks} }

// Peek returns the current token. Past the last token of a sub-range
// it is an EOF token placed where the range ends.
func (c *Cursor) Peek() Token { return c.at(0) }

func (c *Cursor) at(ahead int) Token {
	if i := c.pos + ahead; i < len(c.toks) {
		return c.toks[i]
	}
	eof := Token{Kind: EOF}
	if n := len(c.toks); n > 0 {
		eof.Pos = c.toks[n-1].End
		eof.End = eof.Pos
	}
	return eof
}

// Next returns the current token and moves past it.
func (c *Cursor) Next() Token {
	t := c.Peek()
	c.pos++
	return t
}

// Accept moves past the current token if it is the punctuation p.
func (c *Cursor) Accept(p string) bool {
	if !c.Peek().Is(p) {
		return false
	}
	c.pos++
	return true
}

// AcceptKeyword moves past the current token if it is the keyword k.
func (c *Cursor) AcceptKeyword(k string) bool {
	if !c.Peek().Keyword(k) {
		return false
	}
	c.pos++
	return true
}

// Qualified reads Ident ('.' Ident)* and returns the last identifier
// and, joined by dots, the ones before it: alias.attr, EventType.attr or
// a dotted event type. ok is false, and nothing is consumed, when the
// current token is not an identifier.
func (c *Cursor) Qualified() (qualifier, name string, ok bool) {
	if c.Peek().Kind != Ident {
		return "", "", false
	}
	name = c.Next().Text
	for c.Peek().Is(".") && c.at(1).Kind == Ident {
		if c.pos++; qualifier != "" {
			qualifier += "."
		}
		qualifier += name
		name = c.Next().Text
	}
	return qualifier, name, true
}

// Name reads the same run as one dotted name, which an event type or
// alias may be.
func (c *Cursor) Name() (string, bool) {
	qualifier, name, ok := c.Qualified()
	if qualifier != "" {
		name = qualifier + "." + name
	}
	return name, ok
}

// Deep is the error for a parser that has nested depth levels: nil up
// to MaxNesting.
func (c *Cursor) Deep(pkg string, depth int) error {
	if depth <= MaxNesting {
		return nil
	}
	return fmt.Errorf("%s: nesting deeper than %d at offset %d", pkg, MaxNesting, c.Peek().Pos)
}
