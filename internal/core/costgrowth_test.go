package core_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// costSizes are the stream lengths TestCostGrowth measures each shape at.
var costSizes = []int{2000, 8000, 32000}

// growthBound is each class's largest log–log slope of 1 + (ScanVisits +
// SummaryFolds) / n across costSizes, compared with the slope read to
// one decimal: a Θ(n) scan whose in-range share drifts a little with n
// reads 1.01 and is still "linear"; a fold reads below 0.2.
var growthBound = map[string]float64{"log": 0.25, "linear": 1}

// rebuildBound is the largest log–log slope of 1 + SummaryRebuilds / n
// across costSizes, read to one decimal like the work's, whatever the
// row's class: a rebuild walks a whole tree, so rebuilds an event that
// grow with n would cost time the work does not count.
const rebuildBound = 0.25

// costRows are the shapes TestCostGrowth gates: every
// TestFastPathDifferential shape, the three selection semantics, and the
// shapes the summary fold does not reach yet. {W} is a tumbling window
// of the whole stream for a "log" row and of a sixteenth of it for a
// "linear" one, whose scans cost n × window visits. class is the growth
// of the shape's work an event today; a change that moves a row to a
// better class edits it (and so widens its window).
var costRows = []struct {
	name    string
	class   string
	qs      []string // one statement, or a shared pair
	mode    aggregate.Mode
	haltDiv int // one Halt in haltDiv events (0: 40)
	newsDiv int // one News in newsDiv events (0: none)
}{
	// TestFastPathDifferential's shapes.
	{"stam-range-windowed", "log", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"stam-range-unbounded", "log", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price"}, aggregate.ModeNative, 0, 0},
	{"stam-no-predicate", "log", []string{"RETURN COUNT(*), MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ {W}"}, aggregate.ModeNative, 0, 0},
	{"stam-seq", "log", []string{"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"stam-inexact-range", "log", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND 2 * S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"skip-till-next-match", "linear", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match {W}"}, aggregate.ModeNative, 0, 0},
	{"contiguous", "linear", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous {W}"}, aggregate.ModeNative, 0, 0},
	{"negation-case3", "log", []string{"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"negation-case2", "log", []string{"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"negation-case2-unwindowed", "log", []string{"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price >= NEXT(S).price"}, aggregate.ModeNative, 0, 0},
	{"negation-case3-unwindowed", "log", []string{"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price"}, aggregate.ModeNative, 0, 0},
	{"negation-case2-burst", "log", []string{"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 8, 0},
	{"negation-case3-burst", "log", []string{"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 8, 0},
	{"negation-case1-mixed", "linear", []string{"RETURN COUNT(*) PATTERN SEQ(Stock A+, NOT Halt H, Stock B+) WHERE [company] AND A.price > NEXT(A).price AND B.price > NEXT(B).price {W}"}, aggregate.ModeNative, 12, 0},
	{"negation-case1-prunable", "log", []string{"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price {W}"}, aggregate.ModeNative, 12, 0},
	{"negation-nested", "log", []string{"RETURN COUNT(*) PATTERN SEQ(NOT SEQ(Halt X, NOT News N, Halt Y), Stock S+) WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeNative, 8, 20},
	{"exact-mode", "log", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price {W}"}, aggregate.ModeExact, 0, 0},

	// The three semantics on one predicate.
	{"any-match", "log", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"next-match", "linear", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price SEMANTICS skip-till-next-match {W}"}, aggregate.ModeNative, 0, 0},
	{"contiguous-match", "linear", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price SEMANTICS contiguous {W}"}, aggregate.ModeNative, 0, 0},

	// Shapes the fold does not reach (ROADMAP item 14), and plan shapes
	// around the fold.
	{"two-attribute-kleene", "linear", []string{"RETURN COUNT(*) PATTERN SEQ(Stock A+, Stock B+) WHERE A.price >= NEXT(A).price AND A.vol < NEXT(A).vol {W}"}, aggregate.ModeNative, 0, 0},
	{"case1-after-kleene", "linear", []string{"RETURN COUNT(*) PATTERN SEQ(Stock A+, NOT Halt H, Stock B+) {W}"}, aggregate.ModeNative, 0, 0},
	{"non-linear", "linear", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price * S.price >= NEXT(S).price * NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
	{"nested-kleene", "log", []string{"RETURN COUNT(*) PATTERN (SEQ(Stock A+, Halt H))+ WHERE A.price >= NEXT(A).price {W}"}, aggregate.ModeNative, 0, 0},
	{"composite-or", "log", []string{"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ {W}"}, aggregate.ModeNative, 0, 0},
	{"shared-pair", "log", []string{
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price {W}",
		"RETURN SUM(S.price) PATTERN Stock S+ WHERE S.price >= NEXT(S).price {W}"}, aggregate.ModeNative, 0, 0},
}

// costStream is n events, one a tick, all of company c0 (one partition):
// Stock prices and volumes are seeded random walks on a circle of
// circumference 100 (steps uniform in [-10, 10)), so values do not
// repeat and the share of earlier events in a predicate's range stays
// steady as the stream grows; one event in haltDiv is a Halt and, with
// newsDiv > 0, one in newsDiv a News.
func costStream(n, haltDiv, newsDiv int) []*event.Event {
	rng := rand.New(rand.NewSource(7))
	walk := func(v float64) float64 { return math.Mod(v+rng.Float64()*20+90, 100) }
	price, vol := 50.0, 50.0
	schemas := map[event.Type]*event.Schema{} // bound events: predicates read slots
	for _, typ := range []event.Type{"Stock", "Halt", "News"} {
		schemas[typ] = &event.Schema{Type: typ, Numeric: []string{"price", "vol"}, Strings: []string{"company"}}
	}
	evs := make([]*event.Event, n)
	for i := range evs {
		price, vol = walk(price), walk(vol)
		typ := event.Type("Stock")
		switch {
		case rng.Intn(haltDiv) == 0:
			typ = "Halt"
		case newsDiv > 0 && rng.Intn(newsDiv) == 0:
			typ = "News"
		}
		evs[i] = &event.Event{ID: uint64(i + 1), Type: typ, Time: event.Time(i + 1),
			Attrs: map[string]float64{"price": price, "vol": vol}, Str: map[string]string{"company": "c0"}}
		schemas[typ].Bind(evs[i])
	}
	return evs
}

// costCounts runs one row at one size, {W} spanning span ticks, and
// returns its counters. A shared pair's work is its shared graph's, so
// the first statement's counters are the row's.
func costCounts(t *testing.T, qs []string, mode aggregate.Mode, span int, evs []*event.Event) core.Stats {
	t.Helper()
	rt := core.NewRuntime()
	var stmts []*core.Stmt
	for _, q := range qs {
		q = strings.ReplaceAll(q, "{W}", fmt.Sprintf("WITHIN %d SLIDE %d", span, span))
		plan, err := core.NewPlan(query.MustParse(q), mode)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{NoRetain: true, Share: true})
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, st)
	}
	if len(qs) > 1 && rt.Stats().SharedGraphs != 1 {
		t.Fatalf("%d statements on %d graphs, want one shared graph", len(qs), rt.Stats().SharedGraphs)
	}
	for _, ev := range evs {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return stmts[0].Stats()
}

// growthSlope is the least-squares slope of log(1 + y) over log(x).
func growthSlope(xs []int, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += math.Log(float64(xs[i]))
		my += math.Log1p(ys[i])
	}
	mx, my = mx/float64(len(xs)), my/float64(len(xs))
	var sxy, sxx float64
	for i := range xs {
		dx := math.Log(float64(xs[i])) - mx
		sxy += dx * (math.Log1p(ys[i]) - my)
		sxx += dx * dx
	}
	return sxy / sxx
}

// TestCostGrowth is a gate on Theorem 8's cost and on what the engine
// pays below it: per shape, in one partition at n = 2 000, 8 000 and
// 32 000, it counts edges an event (the paper's quantity) and scan
// visits plus summary folds an event (the engine's work), and fails
// when the work grows faster than the shape's class allows. The counts
// are exact, so the gate does not depend on the host. Summary rebuilds
// an event are not in the work; they are gated on their own, at
// rebuildBound.
func TestCostGrowth(t *testing.T) {
	for _, row := range costRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			bound, ok := growthBound[row.class]
			if !ok {
				t.Fatalf("unknown class %q", row.class)
			}
			haltDiv := cmp.Or(row.haltDiv, 40)
			var works, rebuilds []float64
			var b strings.Builder
			for _, n := range costSizes {
				span := n
				if row.class == "linear" {
					span = n / 16
				}
				s := costCounts(t, row.qs, row.mode, span, costStream(n, haltDiv, row.newsDiv))
				work := float64(s.ScanVisits+s.SummaryFolds) / float64(n)
				works = append(works, work)
				rebuilds = append(rebuilds, float64(s.SummaryRebuilds)/float64(n))
				fmt.Fprintf(&b, "\n  n=%-6d edges/ev %8.1f  work/ev %7.1f  rebuilds/kev %6.1f",
					n, float64(s.Edges)/float64(n), work, 1000*float64(s.SummaryRebuilds)/float64(n))
			}
			slope, rslope := growthSlope(costSizes, works), growthSlope(costSizes, rebuilds)
			t.Logf("class %s, slope %.3f, rebuild slope %.3f:%s", row.class, slope, rslope, b.String())
			if math.Round(10*slope)/10 > bound {
				t.Errorf("work an event grows with slope %.2f across n = %v; class %q allows %.2f", slope, costSizes, row.class, bound)
			}
			if math.Round(10*rslope)/10 > rebuildBound {
				t.Errorf("summary rebuilds an event grow with slope %.2f across n = %v; %.2f allowed", rslope, costSizes, rebuildBound)
			}
		})
	}
}
