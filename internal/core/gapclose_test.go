package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// gapSlide is the SLIDE of every gapCloseQueries window.
const gapSlide = 5

// gapCloseQueries are the statement kinds a multi-window close must
// serve: Kleene with GROUP-BY over several partitions per group (the
// equivalence key is price, the group company), Case-2 negation (lazy
// finals), and a composite OR.
var gapCloseQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [price] AND S.price >= NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
	"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WHERE [company] GROUP-BY company WITHIN 20 SLIDE 5",
}

// gapSharedQueries share one graph; the second leaves mid-stream, so its
// last results come from a peek.
var gapSharedQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	"RETURN MIN(S.price), MAX(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
}

// gapStream is diffStreamHalts with a gap of 10 to 30 ticks before one
// event in 20, so that event closes two to six windows at once;
// diffStreamHalts alone steps time by 1–2 against SLIDE 5.
func gapStream(rng *rand.Rand, n int) []*event.Event {
	evs := diffStreamHalts(rng, n, true, 12, 0)
	var shift event.Time
	for _, ev := range evs {
		if rng.Intn(20) == 0 {
			shift += event.Time(10 + rng.Intn(21))
		}
		ev.Time += shift
	}
	return evs
}

// gapRun feeds evs into a fresh runtime holding gapCloseQueries and the
// gapSharedQueries pair, closing the pair's second statement after event
// leave. stepped closes the windows one at a time: before each event it
// advances every statement's engine to each window boundary the event's
// time passes. It returns every statement's results in delivery order and
// its stats.
func gapRun(t *testing.T, evs []*event.Event, leave int, stepped bool) ([][]core.Result, []core.Stats) {
	t.Helper()
	rt := core.NewRuntime()
	stmts, got := registerCollect(t, rt, gapCloseQueries)
	for i, src := range gapSharedQueries {
		plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{Share: true, NoRetain: true})
		if err != nil {
			t.Fatal(err)
		}
		rs := &[]core.Result{}
		st.OnResult(func(r core.Result) { *rs = append(*rs, r) })
		stmts, got = append(stmts, st), append(got, rs)
		if i > 0 && st.Engine() != stmts[len(stmts)-2].Engine() {
			t.Fatal("the shared pair did not share")
		}
	}
	prev := event.Time(0)
	for i, ev := range evs {
		if stepped {
			for b := (prev/gapSlide + 1) * gapSlide; b <= ev.Time; b += gapSlide {
				for _, st := range rt.Statements() {
					st.Engine().AdvanceTo(b)
				}
			}
		}
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
		prev = ev.Time
		if i == leave {
			if err := stmts[len(stmts)-1].Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	results := make([][]core.Result, len(got))
	stats := make([]core.Stats, len(stmts))
	for i := range stmts {
		results[i], stats[i] = *got[i], stmts[i].Stats()
	}
	return results, stats
}

// TestMultiWindowClose: one event whose time gap closes k ≥ 2 windows
// gives the same results, in the same order, with equal Stats, as the
// same stream with AdvanceTo closing the windows one at a time — for
// Kleene with GROUP-BY, Case-2 negation, a composite OR and a shared
// pair one of whose subscribers leaves mid-window.
func TestMultiWindowClose(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		evs := gapStream(rand.New(rand.NewSource(seed)), 600)
		gaps := 0
		for i := 1; i < len(evs); i++ {
			if evs[i].Time-evs[i-1].Time >= 2*gapSlide {
				gaps++
			}
		}
		if gaps == 0 {
			t.Fatalf("seed %d: the stream has no gap closing two windows", seed)
		}
		leave := len(evs) / 2
		for evs[leave].Time%gapSlide == 0 { // mid-window
			leave++
		}
		once, onceStats := gapRun(t, evs, leave, false)
		steps, stepsStats := gapRun(t, evs, leave, true)
		for i, label := range slices.Concat(gapCloseQueries, gapSharedQueries) {
			if len(once[i]) < 10 {
				t.Fatalf("seed %d, %s: %d results; the stream closes too few windows", seed, label, len(once[i]))
			}
			compareSequences(t, label, once[i], steps[i])
			if onceStats[i] != stepsStats[i] {
				t.Fatalf("seed %d, %s: stats differ\none close %+v\nstepped   %+v", seed, label, onceStats[i], stepsStats[i])
			}
		}
	}
}
