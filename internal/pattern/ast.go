// Package pattern implements the Kleene pattern model of GRETA (paper
// §2 Definition 1): event types, event sequence (SEQ), Kleene plus, and
// negation (NOT), plus the syntactic-sugar operators of §9 (Kleene star,
// optional, disjunction, conjunction) which are rewritten away before
// execution.
//
// It also implements the pattern split algorithm (paper §5.1,
// Algorithm 3) that separates a pattern with nested negation into a
// positive root sub-pattern and a forest of negative sub-patterns, each
// annotated with its previous and following connection points.
//
// Parse reads the tokens of internal/lex, the one tokenizer of the query
// language, and Node.String writes text that parses back to the same
// pattern.
package pattern

import (
	"fmt"
	"strings"

	"github.com/greta-cep/greta/internal/event"
)

// Kind discriminates pattern AST nodes.
type Kind uint8

// Pattern node kinds. KindEvent..KindNot are the core operators of
// Definition 1; KindStar, KindOpt, KindOr, KindAnd are the §9 extensions.
const (
	KindEvent Kind = iota
	KindSeq
	KindPlus
	KindNot
	KindStar
	KindOpt
	KindOr
	KindAnd
)

func (k Kind) String() string {
	switch k {
	case KindEvent:
		return "EVENT"
	case KindSeq:
		return "SEQ"
	case KindPlus:
		return "PLUS"
	case KindNot:
		return "NOT"
	case KindStar:
		return "STAR"
	case KindOpt:
		return "OPT"
	case KindOr:
		return "OR"
	case KindAnd:
		return "AND"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node is a pattern AST node.
//
// KindEvent uses Type and Alias (Alias defaults to the type name and is
// made unique by EnsureAliases when a type occurs more than once, per
// the §9 multi-occurrence extension). KindSeq, KindOr, and KindAnd use
// Children (n-ary); KindPlus, KindStar, KindOpt, and KindNot use
// Children[0].
type Node struct {
	Kind  Kind
	Type  event.Type
	Alias string
	// Label optionally carries a user-facing alias distinct from the
	// (unique) Alias: pattern rewrites that copy leaves (minimal trend
	// length unrolling, §9) keep the original alias here so predicates
	// written against it still attach to every copy.
	Label    string
	Children []*Node
}

// Event returns an event-type leaf with the alias defaulting to the
// type name.
func Event(t event.Type) *Node { return &Node{Kind: KindEvent, Type: t, Alias: string(t)} }

// EventAs returns an event-type leaf with an explicit alias, as in the
// paper's "PATTERN Stock S+" (type Stock, alias S).
func EventAs(t event.Type, alias string) *Node {
	return &Node{Kind: KindEvent, Type: t, Alias: alias}
}

// Seq returns SEQ(children...).
func Seq(children ...*Node) *Node { return &Node{Kind: KindSeq, Children: children} }

// Plus returns p+.
func Plus(p *Node) *Node { return &Node{Kind: KindPlus, Children: []*Node{p}} }

// Star returns p* (syntactic sugar, §9).
func Star(p *Node) *Node { return &Node{Kind: KindStar, Children: []*Node{p}} }

// Opt returns p? (syntactic sugar, §9).
func Opt(p *Node) *Node { return &Node{Kind: KindOpt, Children: []*Node{p}} }

// Not returns NOT p.
func Not(p *Node) *Node { return &Node{Kind: KindNot, Children: []*Node{p}} }

// Or returns (children[0] OR children[1] OR ...), §9 disjunction.
func Or(children ...*Node) *Node { return &Node{Kind: KindOr, Children: children} }

// And returns (children[0] AND children[1] AND ...), §9 conjunction.
func And(children ...*Node) *Node { return &Node{Kind: KindAnd, Children: children} }

var postfixText = map[Kind]string{KindPlus: "+", KindStar: "*", KindOpt: "?"}

// String renders the pattern in the paper's surface syntax, as text
// Parse reads back to the same pattern.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b)
	return b.String()
}

func (n *Node) write(b *strings.Builder) {
	if n == nil {
		b.WriteString("<nil>")
		return
	}
	open, sep := "(", ""
	switch n.Kind {
	case KindEvent:
		b.WriteString(string(n.Type))
		if n.Alias != "" && n.Alias != string(n.Type) {
			b.WriteString(" " + n.Alias)
		}
		return
	case KindNot:
		b.WriteString("NOT ")
		n.Children[0].write(b)
		return
	case KindPlus, KindStar, KindOpt:
		if c := n.Children[0]; c.Kind == KindEvent {
			c.write(b)
		} else {
			b.WriteString("(")
			c.write(b)
			b.WriteString(")")
		}
		b.WriteString(postfixText[n.Kind])
		return
	case KindSeq:
		open, sep = "SEQ(", ", "
	case KindOr:
		sep = " OR "
	case KindAnd:
		sep = " AND "
	default:
		b.WriteString("?")
		return
	}
	b.WriteString(open)
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(sep)
		}
		c.write(b)
	}
	b.WriteString(")")
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Type: n.Type, Alias: n.Alias, Label: n.Label}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Size is the number of event types and operators in the pattern
// (paper Definition 1).
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// HasKleene reports whether the pattern contains at least one Kleene
// plus (or star), i.e., whether it is a Kleene pattern per Definition 1.
func (n *Node) HasKleene() bool {
	if n == nil {
		return false
	}
	if n.Kind == KindPlus || n.Kind == KindStar {
		return true
	}
	for _, c := range n.Children {
		if c.HasKleene() {
			return true
		}
	}
	return false
}

// IsPositive reports whether the pattern contains no negation.
func (n *Node) IsPositive() bool {
	if n == nil {
		return true
	}
	if n.Kind == KindNot {
		return false
	}
	for _, c := range n.Children {
		if !c.IsPositive() {
			return false
		}
	}
	return true
}

// EventNodes appends all KindEvent leaves in left-to-right order.
func (n *Node) EventNodes() []*Node {
	var out []*Node
	n.walk(func(m *Node) {
		if m.Kind == KindEvent {
			out = append(out, m)
		}
	})
	return out
}

func (n *Node) walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// Aliases returns the aliases of all event leaves in order.
func (n *Node) Aliases() []string {
	nodes := n.EventNodes()
	out := make([]string, len(nodes))
	for i, m := range nodes {
		out[i] = m.Alias
	}
	return out
}

// EnsureAliases makes every event leaf carry a unique alias. Leaves that
// already have distinct aliases are untouched; when the same alias (or
// bare type) occurs several times, occurrences are renamed by appending
// their 1-based position among all event leaves, following the §9
// convention where SEQ(A+,B,A,A+,B+) becomes SEQ(A1+,B2,A3,A4+,B5+).
func EnsureAliases(n *Node) {
	leaves := n.EventNodes()
	for _, l := range leaves {
		if l.Alias == "" {
			l.Alias = string(l.Type)
		}
	}
	count := map[string]int{}
	for _, l := range leaves {
		count[l.Alias]++
	}
	for i, l := range leaves {
		if count[l.Alias] > 1 {
			l.Alias = fmt.Sprintf("%s%d", l.Alias, i+1)
		}
	}
}

// Validate enforces the structural assumptions of paper §2:
//   - negation appears within an event sequence (never outermost),
//   - negation applies to an event sequence or an event type (never to
//     a Kleene or another negation, since NOT(P+) ≡ (NOT P)+ ≡ NOT P),
//   - no two consecutive negative sub-patterns inside a SEQ (equivalent
//     to NOT SEQ(Pi,Pj)),
//   - aliases of event leaves are unique (call EnsureAliases first),
//   - every operator node has the right arity.
func Validate(n *Node) error {
	if n == nil {
		return fmt.Errorf("pattern: empty pattern")
	}
	if n.Kind == KindNot {
		return fmt.Errorf("pattern: negation may not be the outermost operator")
	}
	seen := map[string]bool{}
	for _, l := range n.EventNodes() {
		if l.Alias == "" {
			return fmt.Errorf("pattern: event type %s has no alias", l.Type)
		}
		if seen[l.Alias] {
			return fmt.Errorf("pattern: duplicate alias %q (call EnsureAliases)", l.Alias)
		}
		seen[l.Alias] = true
	}
	return validate(n)
}

func validate(n *Node) error {
	switch n.Kind {
	case KindEvent:
		if n.Type == "" {
			return fmt.Errorf("pattern: event leaf with empty type")
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("pattern: event leaf with children")
		}
		return nil
	case KindSeq:
		if len(n.Children) < 2 {
			return fmt.Errorf("pattern: SEQ requires at least two sub-patterns, got %d", len(n.Children))
		}
		prevNeg := false
		for i, c := range n.Children {
			neg := c.Kind == KindNot
			if neg && prevNeg {
				return fmt.Errorf("pattern: consecutive negative sub-patterns in SEQ (position %d); rewrite as NOT SEQ(...)", i)
			}
			prevNeg = neg
			if err := validate(c); err != nil {
				return err
			}
		}
		return nil
	case KindPlus, KindStar, KindOpt:
		if len(n.Children) != 1 {
			return fmt.Errorf("pattern: %s requires exactly one sub-pattern", n.Kind)
		}
		if n.Children[0].Kind == KindNot {
			return fmt.Errorf("pattern: (NOT P)%s is equivalent to NOT P and not allowed", postfixText[n.Kind])
		}
		return validate(n.Children[0])
	case KindNot:
		if len(n.Children) != 1 {
			return fmt.Errorf("pattern: NOT requires exactly one sub-pattern")
		}
		inner := n.Children[0]
		switch inner.Kind {
		case KindEvent, KindSeq:
			return validate(inner)
		case KindNot:
			return fmt.Errorf("pattern: NOT NOT P is not allowed")
		default:
			return fmt.Errorf("pattern: NOT applies to an event sequence or event type, not %s (NOT(P+) ≡ NOT P)", inner.Kind)
		}
	case KindOr, KindAnd:
		if len(n.Children) < 2 {
			return fmt.Errorf("pattern: %s requires at least two sub-patterns", n.Kind)
		}
		for _, c := range n.Children {
			if !c.IsPositive() {
				return fmt.Errorf("pattern: %s branches must be positive patterns", n.Kind)
			}
			if err := validate(c); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("pattern: unknown node kind %d", n.Kind)
}

// Start returns the start alias of a positive pattern per Algorithm 1
// lines 10–14: the alias of the first event type reachable at a trend's
// beginning. Negative children of a SEQ are skipped because they do not
// contribute events to the parent's trends.
func Start(n *Node) string {
	switch n.Kind {
	case KindEvent:
		return n.Alias
	case KindPlus, KindStar, KindOpt:
		return Start(n.Children[0])
	case KindSeq:
		for _, c := range n.Children {
			if c.Kind != KindNot {
				return Start(c)
			}
		}
	}
	return ""
}

// End returns the end alias of a positive pattern per Algorithm 1
// lines 15–19.
func End(n *Node) string {
	switch n.Kind {
	case KindEvent:
		return n.Alias
	case KindPlus, KindStar, KindOpt:
		return End(n.Children[0])
	case KindSeq:
		for i := len(n.Children) - 1; i >= 0; i-- {
			if n.Children[i].Kind != KindNot {
				return End(n.Children[i])
			}
		}
	}
	return ""
}

// StripNegation returns a copy of the pattern with all NOT children of
// SEQ nodes removed. A SEQ left with a single child collapses to that
// child. The result is the positive sub-pattern used to build the
// parent GRETA template.
func StripNegation(n *Node) *Node {
	if n == nil {
		return nil
	}
	switch n.Kind {
	case KindEvent:
		return n.Clone()
	case KindSeq:
		var kids []*Node
		for _, c := range n.Children {
			if c.Kind == KindNot {
				continue
			}
			kids = append(kids, StripNegation(c))
		}
		switch len(kids) {
		case 0:
			return nil
		case 1:
			return kids[0]
		default:
			return &Node{Kind: KindSeq, Children: kids}
		}
	default:
		c := &Node{Kind: n.Kind, Type: n.Type, Alias: n.Alias, Label: n.Label}
		for _, ch := range n.Children {
			sc := StripNegation(ch)
			if sc != nil {
				c.Children = append(c.Children, sc)
			}
		}
		return c
	}
}
