package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// The lifecycle table: every way a statement can be hosted — an
// unshareable exclusive statement, a lone sharing candidate, a
// two-subscriber union, a union that shrank to one subscriber, a
// composite plan, a ShardHost worker unit — retained and NoRetain,
// closed one by one and by Runtime.Close, must look the same from
// outside. A row of the table is one property checked over all of them.

const (
	lcTrend = "PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	lcA     = "RETURN COUNT(*), SUM(S.price) " + lcTrend
	lcB     = "RETURN MIN(S.price), AVG(S.price) " + lcTrend
	lcNeg   = "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10"
	lcOr    = "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5"
)

// lcReg is one statement of a scenario: its query, the event index it
// closes after (-1: it lives until the scenario's end) and the
// SharedStatements figure it must report once closed, by whichever route
// the scenario ends.
type lcReg struct {
	q          string
	share      bool
	closeAfter int
	wantShared [2]int // ended by Stmt.Close in registration order, by Runtime.Close
}

var lcShapes = []struct {
	name string
	regs []lcReg
}{
	{"exclusive", []lcReg{{q: lcNeg, share: true, closeAfter: -1}}},
	{"candidate", []lcReg{{q: lcA, share: true, closeAfter: -1}}},
	{"union", []lcReg{
		{q: lcA, share: true, closeAfter: -1, wantShared: [2]int{2, 2}},
		{q: lcB, share: true, closeAfter: -1, wantShared: [2]int{1, 2}},
	}},
	{"shrunk", []lcReg{
		{q: lcA, share: true, closeAfter: -1, wantShared: [2]int{1, 1}},
		{q: lcB, share: true, closeAfter: 150, wantShared: [2]int{2, 2}},
	}},
	{"composite", []lcReg{{q: lcOr, closeAfter: -1}}},
}

// lcOutcome is what one statement showed from outside.
type lcOutcome struct {
	label      string
	noRetain   bool
	delivered  []Result // through the callback, in delivery order
	results    []Result // Results() after close
	solo       []Result // a solo engine over the events the statement saw
	stats      Stats
	wantShared int
	secondErr  error
	groupsLeft int // RouteGroups() once every statement of the runtime closed
}

func lcSolo(t *testing.T, q string, evs []*event.Event) []Result {
	t.Helper()
	plan, err := NewPlan(query.MustParse(q), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	eng.Run(event.NewSliceStream(evs))
	return eng.Results()
}

// lcRun plays one shape: every statement registers before the first
// event, each with its callback set before the next one registers.
func lcRun(t *testing.T, name string, regs []lcReg, evs []*event.Event, noRetain, runtimeClose bool) []*lcOutcome {
	t.Helper()
	rt := NewRuntime()
	outs := make([]*lcOutcome, len(regs))
	stmts := make([]*Stmt, len(regs))
	route := 0
	if runtimeClose {
		route = 1
	}
	for i, r := range regs {
		o := &lcOutcome{
			label:      fmt.Sprintf("%s/noRetain=%t/runtimeClose=%t/stmt%d", name, noRetain, runtimeClose, i),
			noRetain:   noRetain,
			wantShared: r.wantShared[route],
		}
		stmts[i] = rcRegister(t, rt, fmt.Sprintf("s%d", i), r.q, aggregate.ModeNative, StmtConfig{Share: r.share, NoRetain: noRetain})
		stmts[i].OnResult(func(res Result) { o.delivered = append(o.delivered, res) })
		outs[i] = o
	}
	closeStmt := func(i, seen int) {
		if err := stmts[i].Close(); err != nil {
			t.Fatalf("%s: close: %v", outs[i].label, err)
		}
		outs[i].solo = lcSolo(t, regs[i].q, evs[:seen])
	}
	for n, ev := range evs {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
		for i, r := range regs {
			if r.closeAfter == n {
				closeStmt(i, n+1)
			}
		}
	}
	for i, r := range regs {
		if r.closeAfter >= 0 {
			continue
		}
		if runtimeClose {
			outs[i].solo = lcSolo(t, r.q, evs)
		} else {
			closeStmt(i, len(evs))
		}
	}
	groups := rt.RouteGroups()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if runtimeClose {
		groups = rt.RouteGroups()
	}
	for i, o := range outs {
		o.results, o.stats = stmts[i].Results(), stmts[i].Stats()
		o.secondErr = stmts[i].Close()
		o.groupsLeft = groups
	}
	return outs
}

// lcRunUnit plays the ShardHost shape: one worker slot, one unit, every
// event routed to it, closed by CloseUnit.
func lcRunUnit(t *testing.T, evs []*event.Event) *lcOutcome {
	t.Helper()
	o := &lcOutcome{label: "unit", noRetain: true}
	h := NewShardHost(0, func(_, _ int, r Result) { o.delivered = append(o.delivered, r) })
	plan, err := NewPlan(query.MustParse(lcA), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterPlan(0, 0, plan, "u", false); err != nil {
		t.Fatal(err)
	}
	st := h.unit(0)
	acc := st.RouteAccessors()
	for _, ev := range evs {
		h.Apply(ev, []int{0}, []uint64{HashRoute(acc, ev)})
	}
	if _, err := h.CloseUnit(0); err != nil {
		t.Fatal(err)
	}
	o.solo = lcSolo(t, lcA, evs)
	o.results, o.stats = st.Results(), st.Stats()
	o.secondErr = st.Close()
	o.groupsLeft = h.rt.RouteGroups()
	return o
}

func lcSorted(rs []Result) []Result {
	rs = slices.Clone(rs)
	sortResults(rs)
	return rs
}

func TestStmtLifecycle(t *testing.T) {
	evs := rcStream(rand.New(rand.NewSource(11)), 300, true, 15, 0)
	var outs []*lcOutcome
	for _, sh := range lcShapes {
		for _, noRetain := range []bool{false, true} {
			for _, runtimeClose := range []bool{false, true} {
				outs = append(outs, lcRun(t, sh.name, sh.regs, evs, noRetain, runtimeClose)...)
			}
		}
	}
	outs = append(outs, lcRunUnit(t, evs))

	rows := []struct {
		name  string
		check func(t *testing.T, o *lcOutcome)
	}{
		{"delivers-what-a-solo-engine-emits", func(t *testing.T, o *lcOutcome) {
			if len(o.solo) == 0 {
				t.Fatalf("%s: the solo engine emitted nothing; the scenario checks nothing", o.label)
			}
			rcResultsEqual(t, o.label, lcSorted(o.delivered), o.solo)
		}},
		{"counts-every-delivery", func(t *testing.T, o *lcOutcome) {
			if o.stats.Results != len(o.delivered) {
				t.Errorf("%s: Stats().Results = %d, %d results delivered", o.label, o.stats.Results, len(o.delivered))
			}
		}},
		{"retains-sorted-unless-NoRetain", func(t *testing.T, o *lcOutcome) {
			if o.noRetain {
				if len(o.results) != 0 {
					t.Errorf("%s: Results() holds %d results under NoRetain", o.label, len(o.results))
				}
				return
			}
			rcResultsEqual(t, o.label, o.results, o.solo) // solo results are (group, wid)-sorted
		}},
		{"second-close-is-ErrStatementClosed", func(t *testing.T, o *lcOutcome) {
			if !errors.Is(o.secondErr, ErrStatementClosed) {
				t.Errorf("%s: second Close returned %v", o.label, o.secondErr)
			}
		}},
		{"shared-statements-counts-the-graph-when-left", func(t *testing.T, o *lcOutcome) {
			if o.stats.SharedStatements != o.wantShared {
				t.Errorf("%s: SharedStatements = %d, want %d", o.label, o.stats.SharedStatements, o.wantShared)
			}
		}},
		{"route-groups-return-to-zero", func(t *testing.T, o *lcOutcome) {
			if o.groupsLeft != 0 {
				t.Errorf("%s: %d route groups left after every statement closed", o.label, o.groupsLeft)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, o := range outs {
				row.check(t, o)
			}
		})
	}
}

// TestStmtLifecycleAttachWindow pins who a same-signature registration
// attaches to: never a candidate that closed inside its epoch, never a
// warm graph, and closing a warm graph's statement does not evict the
// cold candidate registered after it.
func TestStmtLifecycleAttachWindow(t *testing.T) {
	evs := rcStream(rand.New(rand.NewSource(12)), 200, true, 15, 0)
	reg := func(rt *Runtime, id, q string) *Stmt {
		return rcRegister(t, rt, id, q, aggregate.ModeNative, StmtConfig{Share: true})
	}

	rt := NewRuntime()
	gone := reg(rt, "gone", lcA)
	if err := gone.Close(); err != nil {
		t.Fatal(err)
	}
	lone := reg(rt, "lone", lcB)
	if rs := rt.Stats(); rs.SharedGraphs != 0 || rs.SharedStatements != 0 {
		t.Fatalf("registration attached to a candidate closed inside its epoch: %+v", rs)
	}
	rcFeed(rt, evs, 0)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rcResultsEqual(t, "after a closed candidate", lone.Results(), lcSolo(t, lcB, evs))
	if n := len(gone.Results()); n != 0 {
		t.Fatalf("statement closed before the first event holds %d results", n)
	}

	rt = NewRuntime()
	warm := reg(rt, "warm", lcA)
	rcFeed(rt, evs[:50], 0)
	cold := reg(rt, "cold", lcA) // a fresh candidate under the warm graph's key
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	joined := reg(rt, "joined", lcB)
	if rs := rt.Stats(); rs.SharedGraphs != 1 || rs.SharedStatements != 2 {
		t.Fatalf("closing the warm statement evicted the cold candidate: %+v", rs)
	}
	if cold.Engine() != joined.Engine() {
		t.Fatal("same-epoch registration did not join the cold candidate")
	}
}

// TestStmtCallbackOwner pins that a hosted engine's callback is its
// source's alone: whatever one subscriber does with its own callback —
// or with the Engine() it shares with the others — its siblings keep
// receiving every result.
func TestStmtCallbackOwner(t *testing.T) {
	evs := rcStream(rand.New(rand.NewSource(13)), 300, true, 15, 0)
	rt := NewRuntime()
	got := make([]int, 3)
	var stmts []*Stmt
	for i, q := range []string{lcA, lcB, lcA} {
		st := rcRegister(t, rt, fmt.Sprintf("s%d", i), q, aggregate.ModeNative, StmtConfig{Share: true, NoRetain: i == 2})
		st.OnResult(func(Result) { got[i]++ })
		stmts = append(stmts, st)
	}
	rcFeed(rt, evs[:100], 0)
	stray := 0
	stmts[1].Engine().OnResult(func(Result) { stray++ })
	rcFeed(rt, evs[100:200], 0)
	stmts[1].OnResult(nil)
	before := got[1]
	rcFeed(rt, evs[200:], 0)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	want := len(lcSolo(t, lcA, evs))
	if want == 0 || before == 0 || before == want {
		t.Fatalf("scenario checks nothing: %d results, %d before the callback was cleared", want, before)
	}
	if got[0] != want || got[2] != want {
		t.Errorf("siblings received %d and %d of %d results", got[0], got[2], want)
	}
	if got[1] != before {
		t.Errorf("a cleared callback received %d more results", got[1]-before)
	}
	if stray != 0 {
		t.Errorf("a callback set on the hosted engine received %d results; it belongs to the source", stray)
	}
	for i, st := range stmts {
		if n := st.Stats().Results; n != want {
			t.Errorf("statement %d counts %d of %d deliveries", i, n, want)
		}
	}
}

// TestStmtRecord holds the delivery record to its bounds. A NoRetain
// statement's holds nothing with no cursor live, the newest tailMax
// deliveries at most while one is, and nothing again once the cursor
// returned, a spent iterator run twice included. A retaining statement's
// is never trimmed or reordered: Results() is a copy, sorted once the
// statement closed, over a record that stays in emission order for the
// cursors that index it.
func TestStmtRecord(t *testing.T) {
	tick := func(rt *Runtime, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := rt.Process(&event.Event{ID: uint64(i + 1), Type: "A", Time: event.Time(i),
				Str: map[string]string{"k": fmt.Sprint(i % 3)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	resultOrder := func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Wid, b.Wid))
	}
	held := func(st *Stmt) (base, n, c int) {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.base, len(st.results), cap(st.results)
	}

	rt := NewRuntime()
	drop := rcRegister(t, rt, "drop", "RETURN COUNT(*) PATTERN A+ WITHIN 1 SLIDE 1", aggregate.ModeNative, StmtConfig{NoRetain: true})
	tick(rt, 0, 10_001) // closes windows 0..9999
	if base, n, c := held(drop); base != 10_000 || n != 0 || c != 0 {
		t.Errorf("no cursor live: base %d, %d results held (cap %d), want 10000, 0 (0)", base, n, c)
	}
	seq := drop.Stream()
	tick(rt, 10_001, 10_001+tailMax+500)
	if base, n, _ := held(drop); n != tailMax || base+n != 10_000+tailMax+500 {
		t.Errorf("a stalled cursor live: base %d, %d results held, want %d and %d", base, n, 10_000+500, tailMax)
	}
	for r := range seq {
		if want := int64(10_000 + 500); r.Wid != want {
			t.Errorf("the stalled cursor resumes at window %d, want %d", r.Wid, want)
		}
		break
	}
	emptied := func(when string) {
		t.Helper()
		if base, n, c := held(drop); n != 0 || c != 0 || base != drop.Stats().Results || drop.cursors != 0 {
			t.Errorf("%s: base %d of %d deliveries, %d results held (cap %d), %d cursors", when, base, drop.Stats().Results, n, c, drop.cursors)
		}
	}
	emptied("cursor returned")
	if n := drop.Stats().Results; n != 10_000+tailMax+500 {
		t.Errorf("Stats counts %d deliveries, want %d", n, 10_000+tailMax+500)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for range seq { // spent: it has no tail to read, and none to give back
		t.Error("a spent iterator yields")
	}
	emptied("spent iterator run again")

	rt = NewRuntime()
	keep := rcRegister(t, rt, "keep", "RETURN COUNT(*) PATTERN A+ WHERE [k] GROUP-BY k WITHIN 4 SLIDE 2", aggregate.ModeNative, StmtConfig{})
	tick(rt, 0, 40)
	live := keep.Results()
	if len(live) < 30 || slices.IsSortedFunc(live, resultOrder) {
		t.Fatalf("%d results mid-stream, (group, wid)-sorted %t: emission order is (wid, group)", len(live), slices.IsSortedFunc(live, resultOrder))
	}
	keep.Results()[0].Wid = -1 // a copy: the record does not see this
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	closed := keep.Results()
	if !slices.IsSortedFunc(closed, resultOrder) {
		t.Error("Results() of a closed statement is not (group, wid)-sorted")
	}
	base, n, _ := held(keep)
	if base != 0 || n != len(closed) || n != keep.Stats().Results {
		t.Errorf("record holds %d results from %d on, Results() %d, Stats %d", n, base, len(closed), keep.Stats().Results)
	}
	i := 0
	for r := range keep.Stream() { // replays the record: emission order, the prefix seen mid-stream first
		if i < len(live) && (r.Group != live[i].Group || r.Wid != live[i].Wid) {
			t.Fatalf("delivery %d is (%q,%d) after close, was (%q,%d) mid-stream", i, r.Group, r.Wid, live[i].Group, live[i].Wid)
		}
		i++
	}
	if i != n {
		t.Errorf("a cursor opened after close yields %d of %d deliveries", i, n)
	}
}
