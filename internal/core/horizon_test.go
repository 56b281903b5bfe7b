package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// horizonShape is one runtime TestHorizonProperty drives: statements
// registered before the stream (shared when share is set), more
// registered halfway through it, and an optional reorder slack under
// which the stream arrives locally shuffled.
type horizonShape struct {
	name             string
	queries, late    []string
	share            bool
	mode             aggregate.Mode
	haltDiv, newsDiv int
	slack            event.Time
}

// horizonShapes are TestFastPathDifferential's shapes (negation cases
// 1–3, nested negation and three unbounded windows among them) plus a
// composite OR, a shared pair, slack-armed reorder and a statement with
// a wider window registered mid-stream.
func horizonShapes() []horizonShape {
	var shapes []horizonShape
	for _, tc := range fastPathCases {
		shapes = append(shapes, horizonShape{name: tc.name, queries: []string{tc.q}, mode: tc.mode, haltDiv: tc.haltDiv, newsDiv: tc.newsDiv})
	}
	const down = "PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	return append(shapes,
		horizonShape{name: "composite-or", queries: []string{"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WHERE [company] GROUP-BY company WITHIN 20 SLIDE 5"}},
		horizonShape{name: "shared-pair", queries: []string{"RETURN COUNT(*) " + down, "RETURN SUM(S.price) " + down}, share: true},
		horizonShape{name: "slack", queries: []string{"RETURN COUNT(*), SUM(S.price) " + down}, slack: 6},
		horizonShape{name: "slack-negation", queries: []string{"RETURN COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8"}, haltDiv: 8, slack: 4},
		horizonShape{name: "mid-stream", queries: []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5"},
			late: []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 40 SLIDE 10"}},
		horizonShape{name: "mid-stream-unbounded", queries: []string{"RETURN COUNT(*) " + down},
			late: []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price >= NEXT(S).price"}},
	)
}

// TestHorizonProperty holds Runtime.Horizon to its contract (doc.go, "One
// horizon") after every event of every shape: no vertex in any pane of
// any live graph, no event pending in the reorder buffer and no
// in-flight event is older than the horizon, and the horizon never
// decreases. A bounded shape's horizon must also move past the stream's
// start, so a horizon stuck at −∞ does not pass.
func TestHorizonProperty(t *testing.T) {
	for _, sh := range horizonShapes() {
		t.Run(sh.name, func(t *testing.T) {
			haltDiv := sh.haltDiv
			if haltDiv == 0 {
				haltDiv = 40
			}
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				evs := diffStreamHalts(rng, 300, sh.mode != aggregate.ModeExact, haltDiv, sh.newsDiv)
				if sh.slack > 0 {
					// Swap neighbours whose times are within the slack: the
					// buffer re-sorts them, and some land behind the oldest
					// pending event.
					for i := 1; i < len(evs); i++ {
						if rng.Intn(3) == 0 && evs[i].Time-evs[i-1].Time <= sh.slack {
							evs[i], evs[i-1] = evs[i-1], evs[i]
						}
					}
				}
				checkHorizon(t, seed, sh, evs)
			}
		})
	}
}

func checkHorizon(t *testing.T, seed int64, sh horizonShape, evs []*event.Event) {
	t.Helper()
	rt := core.NewRuntime(core.WithReorderSlack(sh.slack))
	defer rt.Close()
	register := func(queries []string) {
		for _, src := range queries {
			plan, err := core.NewPlan(query.MustParse(src), sh.mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Register(plan, core.StmtConfig{Share: sh.share}); err != nil {
				t.Fatal(err)
			}
		}
	}
	register(sh.queries)
	if h := rt.Horizon(); h != math.MaxInt64 {
		t.Fatalf("seed %d: horizon %d before the first event, want +inf", seed, h)
	}
	prev, bounded, walked := event.Time(math.MinInt64), true, 0
	for i, ev := range evs {
		if i == len(evs)/2 {
			register(sh.late)
		}
		if err := rt.Process(ev); err != nil && !errors.Is(err, core.ErrOutOfOrder) {
			t.Fatal(err)
		}
		h := rt.Horizon()
		oldest, n := rt.OldestHeld()
		walked += n
		if oldest < h {
			t.Fatalf("seed %d, event %d (time %d): the runtime refers to time %d, older than its horizon %d", seed, i, ev.Time, oldest, h)
		}
		if h < prev {
			t.Fatalf("seed %d, event %d (time %d): horizon fell from %d to %d", seed, i, ev.Time, prev, h)
		}
		prev = h
	}
	for _, st := range rt.Statements() {
		bounded = bounded && !st.Plan().Window.Unbounded()
	}
	if walked == 0 {
		t.Fatalf("seed %d: no vertex was ever held: the check is vacuous", seed)
	}
	if bounded && prev <= evs[0].Time {
		t.Fatalf("seed %d: horizon %d never passed the stream's start %d", seed, prev, evs[0].Time)
	}
}
