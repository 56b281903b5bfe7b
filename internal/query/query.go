// Package query implements the event trend aggregation query model of
// GRETA (paper §2, Definition 2 and the grammar of Fig. 2):
//
//	q := RETURN Attributes <A> PATTERN <P> (WHERE <θ>)?
//	     (GROUP-BY Attributes)? (WITHIN Duration SLIDE Duration)?
//	A := COUNT(*|EventType) | (MIN|MAX|SUM|AVG)(EventType.Attribute)
//
// plus two documented extensions: an optional SEMANTICS clause choosing
// the event selection semantics of Table 1, and equivalence predicates
// in WHERE written with the paper's bracket notation [attr, attr, ...].
//
// The text is read once, by the tokenizer of internal/lex (see its
// package doc for what an identifier, a number and a string literal
// are); this package cuts the token stream into clauses and hands the
// PATTERN and WHERE ranges to internal/pattern and internal/predicate.
// Query.String writes the canonical text, which Parse reads back to the
// same Query.
package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/lex"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/window"
)

// Semantics selects the event selection semantics (paper §9, Table 1).
type Semantics uint8

// Event selection semantics. SkipTillAnyMatch is the paper's focus and
// the default: any event may be skipped, all trends are detected.
const (
	SkipTillAnyMatch Semantics = iota
	SkipTillNextMatch
	Contiguous
)

func (s Semantics) String() string {
	switch s {
	case SkipTillAnyMatch:
		return "skip-till-any-match"
	case SkipTillNextMatch:
		return "skip-till-next-match"
	case Contiguous:
		return "contiguous"
	}
	return "?"
}

// Query is a parsed event trend aggregation query (Definition 2).
type Query struct {
	ReturnAttrs []string // non-aggregate RETURN items (grouping attributes)
	Aggs        []aggregate.Spec
	Pattern     *pattern.Node
	Where       predicate.Expr // conjunction without equivalence groups
	Equivalence []string       // [a, b] equivalence attributes
	GroupBy     []string
	Window      window.Spec
	Semantics   Semantics
	// MinLen is the minimal trend length constraint (paper §9): the
	// planner unrolls the Kleene pattern so matches contain at least
	// MinLen iterations. 0 or 1 means unconstrained.
	MinLen int
}

// Parse parses a query. It walks the one token stream of internal/lex:
// clause keywords cut it into clauses, which may appear on one line or
// many, and the PATTERN and WHERE ranges go to the pattern and predicate
// parsers as tokens. Clause keywords are case-insensitive and reserved:
// no name in a query may be spelled like one.
func Parse(src string) (*Query, error) {
	clauses, err := cut(lex.Scan(src))
	if err != nil {
		return nil, err
	}
	// text is the source text of a clause whose value is one word.
	text := func(toks []lex.Token) string {
		if len(toks) == 0 {
			return ""
		}
		return src[toks[0].Pos:toks[len(toks)-1].End]
	}
	q := &Query{}
	if toks, ok := clauses["RETURN"]; !ok {
		return nil, fmt.Errorf("query: missing RETURN clause")
	} else if err := q.parseReturn(lex.NewCursor(toks)); err != nil {
		return nil, err
	}
	toks, ok := clauses["PATTERN"]
	if !ok {
		return nil, fmt.Errorf("query: missing PATTERN clause")
	}
	if q.Pattern, err = pattern.ParseTokens(toks); err != nil {
		return nil, err
	}
	if err := q.parseWhere(clauses["WHERE"]); err != nil {
		return nil, err
	}
	if toks, ok := clauses["GROUP-BY"]; ok {
		if q.GroupBy, err = attrList(toks); err != nil {
			return nil, err
		}
	}
	within, hasWithin := clauses["WITHIN"]
	slide, hasSlide := clauses["SLIDE"]
	if hasWithin != hasSlide {
		return nil, fmt.Errorf("query: WITHIN and SLIDE must be specified together")
	}
	if hasWithin {
		if q.Window.Within, err = parseDuration(within); err != nil {
			return nil, err
		}
		if q.Window.Slide, err = parseDuration(slide); err != nil {
			return nil, err
		}
		if err := q.Window.Validate(); err != nil {
			return nil, err
		}
		if q.Window.Unbounded() {
			q.Window = window.Global // WITHIN 0: canonical text leaves it out
		}
	}
	if toks, ok := clauses["MINLEN"]; ok {
		q.MinLen, err = strconv.Atoi(text(toks))
		if err != nil || q.MinLen < 1 {
			return nil, fmt.Errorf("query: MINLEN requires a positive integer, got %q", text(toks))
		}
		if q.MinLen == 1 {
			q.MinLen = 0 // no constraint: canonical text leaves it out
		}
	}
	if toks, ok := clauses["SEMANTICS"]; ok {
		switch strings.ToLower(text(toks)) {
		case "skip-till-any-match", "any":
			q.Semantics = SkipTillAnyMatch
		case "skip-till-next-match", "next":
			q.Semantics = SkipTillNextMatch
		case "contiguous":
			q.Semantics = Contiguous
		default:
			return nil, fmt.Errorf("query: unknown semantics %q", text(toks))
		}
	}
	if err := q.resolveAliases(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// clauseAt reports which clause keyword starts at toks[i] and how many
// tokens spell it: GROUP-BY is three, written without a gap.
func clauseAt(toks []lex.Token, i int) (string, int) {
	if toks[i].Kind != lex.Ident {
		return "", 0
	}
	switch up := strings.ToUpper(toks[i].Text); up {
	case "RETURN", "PATTERN", "WHERE", "WITHIN", "SLIDE", "SEMANTICS", "MINLEN":
		return up, 1
	case "GROUPBY":
		return "GROUP-BY", 1
	case "GROUP":
		if i+2 < len(toks) && toks[i+1].Is("-") && toks[i+2].Keyword("BY") &&
			toks[i].End == toks[i+1].Pos && toks[i+1].End == toks[i+2].Pos {
			return "GROUP-BY", 3
		}
	}
	return "", 0
}

// cut splits a token stream into one token range per clause, keyed by
// the clause's keyword.
func cut(toks []lex.Token) (map[string][]lex.Token, error) {
	if last := toks[len(toks)-1]; last.Kind == lex.Error {
		return nil, last.Unexpected("query")
	}
	out := map[string][]lex.Token{}
	kw, start, depth := "", 0, 0
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		next, n := clauseAt(toks, i)
		switch {
		case t.Is("(") || t.Is("["):
			depth++
			continue
		case t.Is(")") || t.Is("]"):
			if depth--; depth < 0 {
				return nil, t.Unexpected("query")
			}
			continue
		case n == 0 && t.Kind != lex.EOF:
			continue
		case n > 0 && depth != 0:
			return nil, fmt.Errorf("query: reserved word %q inside brackets at offset %d", t.Text, t.Pos)
		}
		// The clause kw, if any, ends before toks[i].
		if _, dup := out[kw]; dup {
			return nil, fmt.Errorf("query: duplicate %s clause", kw)
		} else if kw != "" {
			out[kw] = toks[start:i]
		} else if i > 0 {
			return nil, toks[0].Unexpected("query: before the first clause")
		}
		kw, start = next, i+n
		i = max(i, start-1)
	}
	return out, nil
}

var aggKinds = map[string]aggregate.SpecKind{
	"COUNT": aggregate.CountStar, "MIN": aggregate.Min, "MAX": aggregate.Max,
	"SUM": aggregate.Sum, "AVG": aggregate.Avg,
}

// parseReturn parses the RETURN item list: grouping attributes and
// aggregates.
func (q *Query) parseReturn(c *lex.Cursor) error {
	for {
		first := c.Peek()
		item, ok := c.Name()
		if !ok {
			return first.Unexpected("query: RETURN item")
		}
		if kind, isAgg := aggKinds[strings.ToUpper(item)]; isAgg && c.Accept("(") {
			spec, err := parseAgg(c, kind)
			if err != nil {
				return err
			}
			q.Aggs = append(q.Aggs, spec)
		} else {
			q.ReturnAttrs = append(q.ReturnAttrs, item)
		}
		if !c.Accept(",") {
			break
		}
	}
	if c.Peek().Kind != lex.EOF {
		return c.Peek().Unexpected("query: RETURN")
	}
	if len(q.Aggs) == 0 {
		return fmt.Errorf("query: RETURN clause has no aggregation function")
	}
	return nil
}

// parseAgg reads an aggregate's argument and closing bracket: * or an
// event type for COUNT, EventType.Attribute for MIN, MAX, SUM and AVG.
func parseAgg(c *lex.Cursor, kind aggregate.SpecKind) (aggregate.Spec, error) {
	spec := aggregate.Spec{Kind: kind}
	if kind != aggregate.CountStar {
		typ, attr, _ := c.Qualified()
		if typ == "" {
			return spec, c.Peek().Unexpected("query: " + kind.String() + " requires EventType.Attribute")
		}
		spec.Type, spec.Attr = event.Type(typ), attr
	} else if !c.Accept("*") {
		typ, ok := c.Name()
		if !ok {
			return spec, c.Peek().Unexpected("query: COUNT requires * or an event type")
		}
		spec.Kind, spec.Type = aggregate.CountType, event.Type(typ)
	}
	if !c.Accept(")") {
		return spec, c.Peek().Unexpected("query: missing ')' of " + kind.String())
	}
	return spec, nil
}

// attrList reads the whole of toks as attr (',' attr)*. An alias
// qualifier is dropped: in [P.vehicle, segment] the attribute values
// are equal across all trend events, whichever alias reads them.
func attrList(toks []lex.Token) (attrs []string, err error) {
	for c := lex.NewCursor(toks); ; {
		_, attr, ok := c.Qualified()
		if !ok || c.Peek().Kind != lex.EOF && !c.Peek().Is(",") {
			return nil, c.Peek().Unexpected("query: attribute list")
		}
		attrs = append(attrs, attr)
		if !c.Accept(",") {
			return attrs, nil
		}
	}
}

// parseWhere parses the WHERE clause. A bracketed equivalence group
// ([company, sector]) stands where a conjunct of the clause's top-level
// AND chain stands; the groups are taken out with one of the ANDs
// around them, and the tokens that remain are the predicate θ.
func (q *Query) parseWhere(toks []lex.Token) (err error) {
	var rest []lex.Token
	depth, or := 0, false
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch {
		case t.Is("("):
			depth++
		case t.Is(")"):
			depth--
		case depth == 0 && t.Keyword("OR"):
			or = true
		case t.Is("["):
			end := i + 1
			for end < len(toks) && !toks[end].Is("]") {
				end++
			}
			last := end+1 >= len(toks)
			if depth != 0 || end == len(toks) || i > 0 && !toks[i-1].Keyword("AND") || !last && !toks[end+1].Keyword("AND") {
				return fmt.Errorf("query: the equivalence group at offset %d is not a conjunct of WHERE's top-level AND", t.Pos)
			}
			attrs, err := attrList(toks[i+1 : end])
			if err != nil {
				return err
			}
			q.Equivalence = append(q.Equivalence, attrs...)
			if !last {
				end++
			} else if len(rest) > 0 {
				rest = rest[:len(rest)-1]
			}
			i = end
			continue
		}
		rest = append(rest, t)
	}
	if or && len(q.Equivalence) > 0 {
		return fmt.Errorf("query: an equivalence group beside OR: AND binds tighter, so the group would hold for one alternative only; write it once, outside")
	}
	if len(rest) > 0 {
		q.Where, err = predicate.ParseTokens(rest)
	}
	return err
}

// parseDuration parses "10 minutes", "30 seconds", "2 hours", or a bare
// tick count, into time ticks (seconds in the paper's workloads).
func parseDuration(toks []lex.Token) (event.Time, error) {
	if len(toks) == 0 || len(toks) > 2 || toks[0].Kind != lex.Number || toks[len(toks)-1].Kind == lex.String {
		return 0, fmt.Errorf("query: a duration is a count and an optional unit")
	}
	n, err := strconv.ParseInt(toks[0].Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad duration %q: %v", toks[0].Text, err)
	}
	if len(toks) == 1 {
		return n, nil
	}
	switch strings.TrimSuffix(strings.ToLower(toks[1].Text), "s") {
	case "tick", "second", "sec":
		return n, nil
	case "minute", "min":
		return n * 60, nil
	case "hour", "hr":
		return n * 3600, nil
	}
	return 0, fmt.Errorf("query: unknown duration unit %q", toks[1].Text)
}

// resolveAliases maps alias names used in RETURN aggregates and WHERE
// predicates to pattern aliases, and resolves bare attribute references
// when the pattern has a single alias.
func (q *Query) resolveAliases() error {
	aliases := map[string]bool{}
	aliasType := map[string]event.Type{}
	typeCount := map[event.Type]int{}
	for _, leaf := range q.Pattern.EventNodes() {
		aliases[leaf.Alias] = true
		aliasType[leaf.Alias] = leaf.Type
		typeCount[leaf.Type]++
	}
	// RETURN aggregate targets may be written with the type name, which
	// is what canonical text carries and so wins when a name is both, or
	// with the alias (SUM(M.cpu) where M aliases Measurement).
	for i := range q.Aggs {
		sp := &q.Aggs[i]
		if sp.Kind == aggregate.CountStar || typeCount[sp.Type] > 0 {
			continue
		}
		t, ok := aliasType[string(sp.Type)]
		if !ok {
			return fmt.Errorf("query: aggregate %s references unknown type or alias %q", sp, sp.Type)
		}
		sp.Type = t
	}
	if q.Where != nil {
		if len(aliases) == 1 {
			var only string
			for a := range aliases {
				only = a
			}
			q.Where = predicate.ResolveBareRefs(q.Where, only)
		}
		for _, r := range predicate.Refs(q.Where) {
			if r.Alias == "" {
				return fmt.Errorf("query: bare attribute %q is ambiguous; qualify it with a pattern alias", r.Attr)
			}
			if !aliases[r.Alias] {
				// Allow the underlying type name as a stand-in for a
				// uniquely aliased type.
				if cnt := typeCount[event.Type(r.Alias)]; cnt == 1 {
					var al string
					for a, t := range aliasType {
						if t == event.Type(r.Alias) {
							al = a
						}
					}
					q.Where = renameAlias(q.Where, r.Alias, al)
					continue
				}
				return fmt.Errorf("query: predicate references unknown alias %q", r.Alias)
			}
		}
	}
	return nil
}

func renameAlias(e predicate.Expr, from, to string) predicate.Expr {
	switch n := e.(type) {
	case predicate.Ref:
		if n.Alias == from {
			return predicate.Ref{Alias: to, Attr: n.Attr, Next: n.Next}
		}
		return n
	case predicate.Binary:
		return predicate.Binary{Op: n.Op, L: renameAlias(n.L, from, to), R: renameAlias(n.R, from, to)}
	}
	return e
}

// String is the query's canonical text: what Parse reads back to this
// query, and so what a checkpoint stores, a coordinator ships to its
// shards and ShardHost.Register compiles.
func (q *Query) String() string {
	items := slices.Clone(q.ReturnAttrs)
	for _, a := range q.Aggs {
		items = append(items, a.String())
	}
	return "RETURN " + strings.Join(items, ", ") + " " + q.Formation()
}

// Formation is the canonical text of the clauses that decide which
// trends form — every clause but RETURN. Statements with equal
// Formation build identical graphs, which is what sharing keys on.
func (q *Query) Formation() string {
	var b strings.Builder
	b.WriteString("PATTERN " + q.Pattern.String())
	if q.Where != nil || len(q.Equivalence) > 0 {
		b.WriteString(" WHERE ")
		if len(q.Equivalence) > 0 {
			b.WriteString("[" + strings.Join(q.Equivalence, ", ") + "]")
			if q.Where != nil {
				b.WriteString(" AND ")
			}
		}
		if q.Where != nil {
			b.WriteString(q.Where.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP-BY " + strings.Join(q.GroupBy, ", "))
	}
	if !q.Window.Unbounded() {
		fmt.Fprintf(&b, " WITHIN %d SLIDE %d", q.Window.Within, q.Window.Slide)
	}
	if q.MinLen > 1 {
		fmt.Fprintf(&b, " MINLEN %d", q.MinLen)
	}
	if q.Semantics != SkipTillAnyMatch {
		b.WriteString(" SEMANTICS " + q.Semantics.String())
	}
	return b.String()
}
