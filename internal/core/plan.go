package core

import (
	"fmt"
	"math/bits"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/pattern"
	"github.com/greta-cep/greta/internal/predicate"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/template"
	"github.com/greta-cep/greta/internal/window"
)

// GraphSpec is the static configuration of one GRETA graph: the
// template of a positive or negative sub-pattern together with its
// compiled predicates and aggregation definition (the per-sub-pattern
// part of the GRETA configuration, paper Fig. 4).
type GraphSpec struct {
	Idx      int
	Tmpl     *template.Template
	Def      *aggregate.Def
	Negative bool
	// Previous / Following are the connection aliases in the parent
	// graph (paper §5.1): events of the Previous alias arriving before a
	// negative match may no longer connect to events of the Following
	// alias arriving after it. Either may be empty (Cases 2 and 3).
	Previous  string
	Following string
	Parent    int   // index of the parent GraphSpec, -1 for the root
	Deps      []int // negative sub-patterns constraining this graph

	// VertexPreds holds local predicates per state index.
	VertexPreds map[int][]*predicate.Vertex
	// EdgePreds holds edge predicates keyed by destination state index;
	// each entry applies to edges whose source state carries the
	// predicate's From label.
	EdgePreds map[int][]*predicate.Edge
	// SortAttr is the Vertex Tree sort attribute per state index; empty
	// means the tree is sorted by time.
	SortAttr map[int]string
}

// Plan is the full GRETA configuration of a query: the output of the
// static query analyzer (paper Fig. 4).
type Plan struct {
	Query    *query.Query
	Mode     aggregate.Mode
	Window   window.Spec
	GroupBy  []string
	Specs    []aggregate.SpecSlot
	Subs     []*GraphSpec // Subs[0] is the root positive graph
	Branches []*Plan      // disjunction branches (Kleene star / optional / OR), nil for simple plans
	Products []*Plan      // inclusion–exclusion intersection plans aligned with subset masks
	Masks    []uint       // subset masks for Products (|mask| >= 2)
	Conjunct bool         // top-level AND composition (paper §9)
	Sem      query.Semantics
}

// Compile is the static query analyzer end to end: query text and
// arithmetic mode in, the parsed query and its plan out. Everything that
// turns text into a plan — the public Compile, a cluster registration, a
// shard's side of it, a checkpoint restore — calls it, so they cannot
// disagree about what a text means. The plan's Query differs from the
// parsed one where NewPlan rewrote it (MINLEN unrolling).
func Compile(src string, exact bool) (*query.Query, *Plan, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	mode := aggregate.ModeNative
	if exact {
		mode = aggregate.ModeExact
	}
	plan, err := NewPlan(q, mode)
	return q, plan, err
}

// NewPlan compiles a parsed query into a GRETA configuration:
// syntactic-sugar expansion (§9), pattern split (§5.1, Algorithm 3),
// template construction (§4.1, Algorithm 1), predicate classification
// (§6), and aggregation slot planning (Theorem 9.1).
func NewPlan(q *query.Query, mode aggregate.Mode) (*Plan, error) {
	if q.MinLen > 1 {
		unrolled, err := pattern.UnrollMinLength(q.Pattern, q.MinLen)
		if err != nil {
			return nil, err
		}
		q2 := *q
		q2.Pattern = unrolled
		q2.MinLen = 0
		q = &q2
	}
	if q.Pattern.Kind == pattern.KindAnd {
		return newConjunctionPlan(q, mode)
	}
	branches, err := pattern.Expand(q.Pattern)
	if err != nil {
		return nil, err
	}
	if len(branches) == 1 {
		return newSimplePlan(q, branches[0], mode)
	}
	return newDisjunctionPlan(q, branches, mode)
}

// newSimplePlan compiles a single sugar-free branch.
func newSimplePlan(q *query.Query, branch *pattern.Node, mode aggregate.Mode) (*Plan, error) {
	p := &Plan{Query: q, Mode: mode, Window: q.Window, GroupBy: q.GroupBy, Sem: q.Semantics}
	subs, err := pattern.Split(branch)
	if err != nil {
		return nil, err
	}
	aliases := patternAliases(q.Pattern)
	cls, err := predicate.Classify(q.Where, aliases)
	if err != nil {
		return nil, err
	}
	rootDef := &aggregate.Def{Mode: mode}
	p.Specs = rootDef.PlanSpecs(q.Aggs)
	for i, sub := range subs {
		tmpl, err := template.Build(sub.Pattern)
		if err != nil {
			return nil, err
		}
		gs := &GraphSpec{
			Idx:       i,
			Tmpl:      tmpl,
			Negative:  sub.Negative,
			Previous:  sub.Previous,
			Following: sub.Following,
			Parent:    sub.Parent,
			Deps:      sub.Deps,
		}
		if sub.Negative {
			// Negative graphs only need trend start times to compute
			// invalidation watermarks (Definition 5).
			gs.Def = &aggregate.Def{Mode: mode, TrackStart: true}
		} else {
			gs.Def = rootDef
		}
		attachPredicates(gs, cls)
		p.Subs = append(p.Subs, gs)
	}
	return p, nil
}

// attachPredicates distributes classified predicates onto the states of
// a graph spec and chooses each state's Vertex Tree sort attribute from
// the first range-compilable edge predicate leaving it (paper §7: "we
// utilize a tree index ... sort events by the most selective
// predicate").
func attachPredicates(gs *GraphSpec, cls *predicate.Classified) {
	gs.VertexPreds = map[int][]*predicate.Vertex{}
	gs.EdgePreds = map[int][]*predicate.Edge{}
	gs.SortAttr = map[int]string{}
	for _, st := range gs.Tmpl.States {
		for _, vp := range cls.Vertex {
			if vp.Alias == "" || hasLabel(st, vp.Alias) {
				gs.VertexPreds[st.Idx] = append(gs.VertexPreds[st.Idx], vp)
			}
		}
	}
	for _, ep := range cls.Edge {
		for _, to := range gs.Tmpl.States {
			if !hasLabel(to, ep.To) {
				continue
			}
			applies := false
			for _, fromIdx := range to.Preds {
				if hasLabel(gs.Tmpl.States[fromIdx], ep.From) {
					applies = true
					break
				}
			}
			if applies {
				gs.EdgePreds[to.Idx] = append(gs.EdgePreds[to.Idx], ep)
			}
		}
	}
	// Sort attribute per source state: pick the attribute of the first
	// range-compilable edge predicate out of this state, destinations in
	// state order — a state has one Vertex Tree order, and a restored
	// snapshot must find the one it was taken under.
	for _, from := range gs.Tmpl.States {
		for _, to := range gs.Tmpl.States {
			for _, ep := range gs.EdgePreds[to.Idx] {
				if ep.Range != nil && hasLabel(from, ep.From) {
					if _, done := gs.SortAttr[from.Idx]; !done {
						gs.SortAttr[from.Idx] = ep.Range.Attr
					}
				}
			}
		}
	}
}

func hasLabel(st *template.State, label string) bool {
	for _, l := range st.Labels {
		if l == label {
			return true
		}
	}
	return false
}

// newDisjunctionPlan compiles a pattern whose expansion has several
// branches; final counts are combined by inclusion–exclusion (paper §9).
func newDisjunctionPlan(q *query.Query, branches []*pattern.Node, mode aggregate.Mode) (*Plan, error) {
	if len(branches) > maxBranches {
		return nil, fmt.Errorf("core: disjunction with %d branches exceeds the supported maximum %d", len(branches), maxBranches)
	}
	for _, b := range branches {
		if !b.IsPositive() {
			return nil, fmt.Errorf("core: disjunction/star/optional combined with negation is not supported (branch %s)", b)
		}
	}
	return newCompositePlan(q, branches, mode)
}

// maxBranches bounds inclusion–exclusion blow-up (2^maxBranches plans).
const maxBranches = 4

// newConjunctionPlan compiles a top-level AND of positive patterns
// (paper §9). Counts are composed from the two branch counts and their
// intersection count — the two-branch composite, whose one product has
// mask 3; only COUNT(*) is defined by the paper for conjunction.
func newConjunctionPlan(q *query.Query, mode aggregate.Mode) (*Plan, error) {
	if len(q.Pattern.Children) != 2 {
		return nil, fmt.Errorf("core: conjunction of %d patterns is not supported; use nested binary AND", len(q.Pattern.Children))
	}
	for _, spec := range q.Aggs {
		if spec.Kind != aggregate.CountStar {
			return nil, fmt.Errorf("core: conjunction supports COUNT(*) only, got %s", spec)
		}
	}
	for _, b := range q.Pattern.Children {
		if !b.IsPositive() {
			return nil, fmt.Errorf("core: conjunction with negation is not supported")
		}
	}
	p, err := newCompositePlan(q, q.Pattern.Children, mode)
	if err != nil {
		return nil, err
	}
	p.Conjunct = true
	return p, nil
}

// newCompositePlan gives each branch its own sub-plan and every subset
// of two or more branches, in ascending mask order, an intersection
// sub-plan over the iterated product of the subset's templates.
func newCompositePlan(q *query.Query, branches []*pattern.Node, mode aggregate.Mode) (*Plan, error) {
	p := &Plan{Query: q, Mode: mode, Window: q.Window, GroupBy: q.GroupBy, Sem: q.Semantics}
	def := &aggregate.Def{Mode: mode}
	p.Specs = def.PlanSpecs(q.Aggs)
	for _, b := range branches {
		bp, err := newSimplePlan(q, b, mode)
		if err != nil {
			return nil, err
		}
		p.Branches = append(p.Branches, bp)
	}
	cls, err := predicate.Classify(q.Where, patternAliases(q.Pattern))
	if err != nil {
		return nil, err
	}
	for mask := uint(1); mask < 1<<uint(len(branches)); mask++ {
		if bits.OnesCount(mask) < 2 {
			continue
		}
		var prod *template.Template
		for i, bp := range p.Branches {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if prod == nil {
				prod = bp.Subs[0].Tmpl
			} else {
				prod = template.Product(prod, bp.Subs[0].Tmpl)
			}
		}
		sub := &Plan{Query: q, Mode: mode, Window: q.Window, GroupBy: q.GroupBy, Sem: q.Semantics, Specs: p.Specs}
		gs := &GraphSpec{Idx: 0, Tmpl: prod, Def: def, Parent: -1}
		attachPredicates(gs, cls)
		sub.Subs = []*GraphSpec{gs}
		p.Products = append(p.Products, sub)
		p.Masks = append(p.Masks, mask)
	}
	return p, nil
}

// Simple reports whether the plan is a single positive-or-negated
// pattern plan (no composition).
func (p *Plan) Simple() bool { return len(p.Branches) == 0 }

// Def returns the aggregation definition of the root positive graph.
func (p *Plan) Def() *aggregate.Def {
	if p.Simple() {
		return p.Subs[0].Def
	}
	return p.Branches[0].Subs[0].Def
}

// patternAliases collects the alias and label names predicates may
// reference: every event leaf's unique alias plus its user-facing label
// (set by pattern rewrites such as minimal-length unrolling).
func patternAliases(p *pattern.Node) map[string]bool {
	aliases := map[string]bool{}
	for _, leaf := range p.EventNodes() {
		aliases[leaf.Alias] = true
		if leaf.Label != "" {
			aliases[leaf.Label] = true
		}
	}
	return aliases
}
