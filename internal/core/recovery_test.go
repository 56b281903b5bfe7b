package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// rcSchema mirrors the stock generator's schema; the workload mixes
// schema-bound and schemaless events so restore covers both access
// paths (restored events re-bind to freshly decoded schemas).
var rcSchema = &event.Schema{
	Type:    "Stock",
	Numeric: []string{"price"},
	Strings: []string{"company"},
}

// rcStream generates the randomized stock workload of the fastpath
// differential: small-integer prices (exact float64 sums), occasional
// Halt and News events, same-timestamp bursts, missing and NaN prices,
// and a mix of schema-bound and schemaless events.
func rcStream(rng *rand.Rand, n int, allowNaN bool, haltDiv, newsDiv int) []*event.Event {
	evs := make([]*event.Event, 0, n)
	t := event.Time(1)
	for i := 0; i < n; i++ {
		if rng.Intn(5) >= 2 {
			t += event.Time(1 + rng.Intn(2))
		}
		typ := event.Type("Stock")
		if rng.Intn(haltDiv) == 0 {
			typ = "Halt"
		} else if newsDiv > 0 && rng.Intn(newsDiv) == 0 {
			typ = "News"
		}
		ev := &event.Event{
			ID:    uint64(i + 1),
			Type:  typ,
			Time:  t,
			Attrs: map[string]float64{},
			Str:   map[string]string{"company": fmt.Sprintf("c%d", rng.Intn(3))},
		}
		switch rng.Intn(20) {
		case 0: // missing price
		case 1:
			if allowNaN {
				ev.Attrs["price"] = math.NaN()
			} else {
				ev.Attrs["price"] = float64(1 + rng.Intn(8))
			}
		default:
			ev.Attrs["price"] = float64(1 + rng.Intn(8))
		}
		if typ == "Stock" && rng.Intn(2) == 0 {
			rcSchema.Bind(ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// rcJitter pulls event times back by up to slack+2 (clamped at 0):
// bounded disorder for the reorder buffer, occasionally past the slack
// so deterministic drops occur. Arrival order and IDs are unchanged.
func rcJitter(rng *rand.Rand, evs []*event.Event, slack int64) {
	for _, ev := range evs {
		j := event.Time(rng.Intn(int(slack) + 3))
		if ev.Time > j {
			ev.Time -= j
		} else {
			ev.Time = 0
		}
	}
}

// rcSnap is one captured checkpoint.
type rcSnap struct {
	replayFrom event.Time
	data       []byte
}

// rcCapture is a checkpoint schedule capturing every snapshot in
// memory.
func rcCapture(t testing.TB, every event.Time, snaps *[]rcSnap) Option {
	return rcArm(t, every, func(body []byte) {
		*snaps = append(*snaps, rcSnap{replayFrom: ckReplayFrom(body), data: body})
	})
}

// rcDiscard is the same boundary schedule discarding the snapshots —
// restored runs take it so their AdvanceTo cadence matches the
// interrupted run's.
func rcDiscard(t testing.TB, every event.Time) Option {
	return rcArm(t, every, nil)
}

// rcArm is a checkpoint schedule with a test sink handing each snapshot
// to keep.
func rcArm(t testing.TB, every event.Time, keep func(body []byte)) Option {
	return WithCheckpoint(every, NewTestSink(t, keep), func(err error) { t.Errorf("checkpoint save: %v", err) })
}

// ckReplayFrom reads the replay bound from a snapshot's header.
func ckReplayFrom(body []byte) event.Time {
	w := checkpoint.Decode(body)
	var h ckHeader
	h.walk(&w)
	return h.replayFrom
}

// ckEncode is the snapshot of rt with replay bound replayFrom, as a
// sink would receive it.
func ckEncode(t testing.TB, rt *Runtime, replayFrom event.Time) []byte {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	parts, err := rt.snapshotLocked(replayFrom)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return slices.Concat(parts[:]...)
}

func rcFeed(rt *Runtime, evs []*event.Event, from event.Time) {
	for _, ev := range evs {
		if ev.Time >= from {
			rt.Process(ev)
		}
	}
}

// rcState is the observable state of every live statement, by id.
type rcState struct {
	results map[string][]Result
	stats   map[string]Stats
}

func rcCaptureState(stmts []*Stmt) rcState {
	s := rcState{results: map[string][]Result{}, stats: map[string]Stats{}}
	for _, st := range stmts {
		if st.closed {
			continue
		}
		s.results[st.id] = st.Results()
		s.stats[st.id] = st.Stats()
	}
	return s
}

// rcResultsEqual compares result streams bit for bit (float values by
// IEEE bit pattern so NaNs and signed zeros must match), ignoring only
// the wall-clock Emitted stamp and payload pointer identity.
func rcResultsEqual(t *testing.T, ctx string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", ctx, len(a), len(b))
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Group != y.Group || x.Wid != y.Wid ||
			x.WindowStart != y.WindowStart || x.WindowEnd != y.WindowEnd {
			t.Fatalf("%s: result %d keyed (%q,%d,[%d,%d)) vs (%q,%d,[%d,%d))", ctx, i,
				x.Group, x.Wid, x.WindowStart, x.WindowEnd,
				y.Group, y.Wid, y.WindowStart, y.WindowEnd)
		}
		if len(x.Values) != len(y.Values) {
			t.Fatalf("%s: result %d has %d values vs %d", ctx, i, len(x.Values), len(y.Values))
		}
		for j := range x.Values {
			if math.Float64bits(x.Values[j]) != math.Float64bits(y.Values[j]) {
				t.Fatalf("%s: result %d (%q, wid %d) value %d: %v vs %v (bit mismatch)",
					ctx, i, x.Group, x.Wid, j, x.Values[j], y.Values[j])
			}
		}
		if (x.Payload == nil) != (y.Payload == nil) {
			t.Fatalf("%s: result %d payload presence differs", ctx, i)
		}
		if x.Payload != nil && x.Payload.Count != y.Payload.Count {
			t.Fatalf("%s: result %d payload count %d vs %d", ctx, i, x.Payload.Count, y.Payload.Count)
		}
	}
}

func rcStatesEqual(t *testing.T, ctx string, a, b rcState, compareStats bool) {
	t.Helper()
	if len(a.results) != len(b.results) {
		t.Fatalf("%s: %d live statements vs %d", ctx, len(a.results), len(b.results))
	}
	for id, ra := range a.results {
		rb, ok := b.results[id]
		if !ok {
			t.Fatalf("%s: statement %q missing", ctx, id)
		}
		rcResultsEqual(t, fmt.Sprintf("%s: statement %q", ctx, id), ra, rb)
	}
	if !compareStats {
		return
	}
	for id, sa := range a.stats {
		if sb := b.stats[id]; sa != sb {
			t.Fatalf("%s: statement %q stats diverge:\n  %+v\nvs\n  %+v", ctx, id, sa, sb)
		}
	}
}

func rcRegister(t testing.TB, rt *Runtime, id, q string, mode aggregate.Mode, cfg StmtConfig) *Stmt {
	t.Helper()
	plan, err := NewPlan(query.MustParse(q), mode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ID = id
	st, err := rt.Register(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// rcTwoAttr has two range predicates out of state S, on different
// attributes: the plan must pick one Vertex Tree order for S and pick
// it again when a snapshot is restored.
const rcTwoAttr = "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, Halt H) WHERE [company] AND S.price > NEXT(S).price AND S.vol < NEXT(H).vol WITHIN 40 SLIDE 10"

// rcCases are the fastpath shapes the recovery differential runs.
var rcCases = []struct {
	name             string
	q                string
	mode             aggregate.Mode
	haltDiv, newsDiv int
}{
	{"stam-range-windowed",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 0, 0},
	{"stam-range-unbounded",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price",
		aggregate.ModeNative, 0, 0},
	{"stam-no-predicate",
		"RETURN COUNT(*), MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ WITHIN 16 SLIDE 4",
		aggregate.ModeNative, 0, 0},
	{"stam-seq",
		"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, 0, 0},
	{"skip-till-next-match",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 0, 0},
	{"contiguous",
		"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 0, 0},
	{"negation-case2",
		"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		aggregate.ModeNative, 0, 0},
	{"negation-case3",
		"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		aggregate.ModeNative, 0, 0},
	{"negation-case2-burst",
		"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, 8, 0},
	{"negation-case1-prunable",
		"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, 12, 0},
	{"negation-nested",
		"RETURN COUNT(*) PATTERN SEQ(NOT SEQ(Halt X, NOT News N, Halt Y), Stock S+) WHERE [company] AND S.price > NEXT(S).price WITHIN 24 SLIDE 8",
		aggregate.ModeNative, 8, 20},
	{"exact-mode",
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		aggregate.ModeExact, 0, 0},
	{"disjunction",
		"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 8, 0},
	{"conjunction",
		"RETURN COUNT(*) PATTERN Stock S+ AND Halt H+ WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 8, 0},
	{"kleene-star",
		"RETURN COUNT(*) PATTERN SEQ(Stock S*, Halt H) WHERE [company] WITHIN 20 SLIDE 5",
		aggregate.ModeNative, 8, 0},
	{"two-attribute", rcTwoAttr, aggregate.ModeNative, 8, 0},
}

// rcVols gives every event a vol, a function of its ID alone: the
// stream's random sequence, which other fixtures pin, is left as it is.
func rcVols(evs []*event.Event) {
	for _, ev := range evs {
		ev.Attrs["vol"] = float64(1 + ev.ID*7%9)
	}
}

// planChoice renders what compiling chose for every graph: its Vertex
// Tree sort attributes, which transitions fold summaries (fastScan) and
// under which gating dependencies (augDeps), and the pane size.
func planChoice(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pane %d;", p.Window.PaneSize())
	for _, gs := range p.Subs {
		cs := newCompiledSpec(gs, p.Subs, p.Sem)
		fmt.Fprint(&b, gs.SortAttr, cs.fastScan, cs.augDeps, ";")
	}
	for _, sub := range slices.Concat(p.Branches, p.Products) {
		fmt.Fprintf(&b, "(%s)", planChoice(sub))
	}
	return b.String()
}

// TestPlanDeterministic: compiling a query again yields the same plan
// choice for every state — Vertex Tree order, summary fast paths, their
// gating dependencies, pane size — what a restore relies on. The sort
// attribute choice once followed map iteration order (177/23 over 200
// compiles of rcTwoAttr).
func TestPlanDeterministic(t *testing.T) {
	for _, tc := range rcCases {
		q := query.MustParse(tc.q)
		var want string
		for i := 0; i < 1000; i++ {
			plan, err := NewPlan(q, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if got := planChoice(plan); i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s: compile %d chose %s, compile 0 %s", tc.name, i, got, want)
			}
		}
	}
}

// TestRecoveryDifferential kills and restores a checkpointed runtime at
// every window boundary of each fastpath shape and asserts the restored
// run is bit-identical to the uninterrupted one: same results (IEEE bit
// patterns), same Stats counters, same summary folds. A third,
// checkpoint-free run guards the guard: boundary advancement must not
// change the emitted results either.
func TestRecoveryDifferential(t *testing.T) {
	const every = event.Time(16)
	for _, tc := range rcCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			haltDiv := tc.haltDiv
			if haltDiv == 0 {
				haltDiv = 40
			}
			cfg := StmtConfig{}
			for seed := int64(1); seed <= 2; seed++ {
				evs := rcStream(rand.New(rand.NewSource(seed)), 300,
					tc.mode != aggregate.ModeExact, haltDiv, tc.newsDiv)
				rcVols(evs)

				// Run A: no checkpointing (results baseline).
				rtA := NewRuntime()
				stA := rcRegister(t, rtA, "q", tc.q, tc.mode, cfg)
				rcFeed(rtA, evs, 0)
				preA := rcCaptureState([]*Stmt{stA})
				rtA.Close()
				finalA := rcCaptureState([]*Stmt{stA})

				// Run B: checkpointing on, uninterrupted (bit-identity
				// reference — boundary AdvanceTo may split summary folds,
				// so Stats are compared within the checkpointed pair only).
				var snaps []rcSnap
				rtB := NewRuntime(rcCapture(t, every, &snaps))
				stB := rcRegister(t, rtB, "q", tc.q, tc.mode, cfg)
				rcFeed(rtB, evs, 0)
				preB := rcCaptureState([]*Stmt{stB})
				rcStatesEqual(t, fmt.Sprintf("seed %d: plain vs checkpointed", seed), preA, preB, false)
				rtB.Close()
				finalB := rcCaptureState([]*Stmt{stB})
				rcStatesEqual(t, fmt.Sprintf("seed %d: plain vs checkpointed (closed)", seed), finalA, finalB, false)

				if len(snaps) < 5 {
					t.Fatalf("seed %d: only %d checkpoints taken", seed, len(snaps))
				}

				// Kill + restore at every boundary: replay the suffix and
				// demand bit-identity with the uninterrupted run.
				for i, sn := range snaps {
					rtR, info, err := RestoreRuntime(sn.data, rcDiscard(t, every))
					if err != nil {
						t.Fatalf("seed %d: restore checkpoint %d: %v", seed, i, err)
					}
					replayFrom := info.ReplayFrom
					if replayFrom != sn.replayFrom {
						t.Fatalf("seed %d: checkpoint %d replayFrom %d, serialized %d",
							seed, i, sn.replayFrom, replayFrom)
					}
					if info.Every != every {
						t.Fatalf("seed %d: checkpoint %d interval %d, want %d", seed, i, info.Every, every)
					}
					rcFeed(rtR, evs, replayFrom)
					stmts := append([]*Stmt(nil), rtR.stmts...)
					preR := rcCaptureState(stmts)
					rcStatesEqual(t, fmt.Sprintf("seed %d: checkpoint %d restored", seed, i), preB, preR, true)
					rtR.Close()
					finalR := rcCaptureState(stmts)
					rcStatesEqual(t, fmt.Sprintf("seed %d: checkpoint %d restored (closed)", seed, i), finalB, finalR, false)
				}
			}
		})
	}
}

// TestReorderRecoveryDifferential is the disorder-window recovery
// differential: a slack-armed runtime is checkpointed on schedule while
// a jittered stream is in flight, then killed and restored at every
// snapshot; replaying the arrival suffix from the snapshot's meta
// cursor must reproduce the uninterrupted run bit for bit — results,
// Stats, watermark, pending-window size, and drop totals. The cursor is
// written by the meta provider at encode time (inside Process, before
// the trigger event applies), so the test also pins the two contracts
// the serving layer's sequence replay depends on: the cursor points at
// the exact resume spot, and a release in flight when the boundary
// fires survives inside the snapshot (no silent flush).
func TestReorderRecoveryDifferential(t *testing.T) {
	cases := []struct {
		name    string
		queries []string
		slack   int64
		share   bool
	}{
		{"kleene-windowed", []string{
			"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		}, 4, false},
		{"negation", []string{
			"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		}, 5, false},
		{"shared-disjunction", []string{
			"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
			"RETURN SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
			"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5",
		}, 3, true},
		{"conjunction", []string{
			"RETURN COUNT(*) PATTERN Stock S+ AND Halt H+ WITHIN 20 SLIDE 5",
		}, 4, false},
		{"kleene-star", []string{
			"RETURN COUNT(*) PATTERN SEQ(Stock S*, Halt H) WHERE [company] WITHIN 20 SLIDE 5",
		}, 4, false},
	}
	const every = event.Time(16)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				evs := rcStream(rand.New(rand.NewSource(seed)), 300, false, 12, 0)
				rcJitter(rand.New(rand.NewSource(seed^0x5eed)), evs, tc.slack)

				build := func(opts ...Option) (*Runtime, []*Stmt) {
					rt := NewRuntime(append(opts, WithReorderSlack(event.Time(tc.slack)))...)
					stmts := make([]*Stmt, len(tc.queries))
					for i, q := range tc.queries {
						stmts[i] = rcRegister(t, rt, fmt.Sprintf("q%d", i), q,
							aggregate.ModeNative, StmtConfig{Share: tc.share})
					}
					return rt, stmts
				}
				feed := func(rt *Runtime, evs []*event.Event, onEvent func(int)) int {
					drops := 0
					for i, ev := range evs {
						if err := rt.Process(ev); err != nil {
							var oe *OrderError
							if !errors.As(err, &oe) {
								t.Fatalf("seed %d: event %d: %v", seed, i, err)
							}
							drops++
						}
						if onEvent != nil {
							onEvent(i)
						}
					}
					return drops
				}

				// Baseline A: slack armed, no checkpointing.
				rtA, stA := build()
				dropsA := feed(rtA, evs, nil)

				// Run B: checkpointing armed; the meta cursor counts the
				// events consumed so far, advanced AFTER each Process —
				// a boundary snapshot fired inside Process must still
				// point at the previous event.
				var snaps []rcSnap
				rtB, stB := build(rcCapture(t, every, &snaps))
				cur := 0
				rtB.SetCheckpointMeta(func(int, int) []byte { return []byte(strconv.Itoa(cur)) })
				dropsB := feed(rtB, evs, func(i int) { cur = i + 1 })
				nFeed := len(snaps) // Close's barrier below may emit more
				if dropsB == 0 {
					t.Fatalf("seed %d: jitter produced no drops (slack %d); widen the jitter", seed, tc.slack)
				}
				if dropsA != dropsB {
					t.Fatalf("seed %d: baseline dropped %d, checkpointed run %d", seed, dropsA, dropsB)
				}
				preA := rcCaptureState(stA)
				preB := rcCaptureState(stB)
				rcStatesEqual(t, fmt.Sprintf("seed %d: plain vs checkpointed", seed), preA, preB, false)
				pendB := rtB.Metrics().ReorderPending
				droppedB := rtB.reorder.Dropped()
				wmB := rtB.watermark

				// Closing flushes the identical disorder window everywhere.
				rtA.Close()
				rtB.Close()
				finalA := rcCaptureState(stA)
				finalB := rcCaptureState(stB)
				rcStatesEqual(t, fmt.Sprintf("seed %d: plain vs checkpointed (closed)", seed), finalA, finalB, false)

				if len(snaps) < 4 {
					t.Fatalf("seed %d: only %d checkpoints taken", seed, len(snaps))
				}

				withPending := 0
				for i, sn := range snaps {
					rtR, info, err := RestoreRuntime(sn.data, rcDiscard(t, every))
					if err != nil {
						t.Fatalf("seed %d: restore snapshot %d: %v", seed, i, err)
					}
					if info.Every != every || rtR.Metrics().ReorderSlack != event.Time(tc.slack) {
						t.Fatalf("seed %d: snapshot %d info %+v, want every %d slack %d",
							seed, i, info, every, tc.slack)
					}
					curR, err := strconv.Atoi(string(info.Meta))
					if err != nil {
						t.Fatalf("seed %d: snapshot %d meta %q: %v", seed, i, info.Meta, err)
					}
					if rtR.Metrics().ReorderPending > 0 {
						withPending++
					}
					if i >= nFeed {
						// Emitted by Close's end-of-stream barrier: the
						// cursor already covers the whole stream, so there
						// is nothing to replay — mid-barrier state only has
						// to close into the final state.
						if curR != len(evs) {
							t.Fatalf("seed %d: close-time snapshot %d cursor %d, want %d",
								seed, i, curR, len(evs))
						}
						stmts := append([]*Stmt(nil), rtR.stmts...)
						rtR.Close()
						finalR := rcCaptureState(stmts)
						rcStatesEqual(t, fmt.Sprintf("seed %d: close-time snapshot %d restored (closed)", seed, i), finalB, finalR, false)
						continue
					}
					feed(rtR, evs[curR:], nil)
					stmts := append([]*Stmt(nil), rtR.stmts...)
					preR := rcCaptureState(stmts)
					rcStatesEqual(t, fmt.Sprintf("seed %d: snapshot %d restored", seed, i), preB, preR, true)
					if got := rtR.Metrics().ReorderPending; got != pendB {
						t.Fatalf("seed %d: snapshot %d: pending %d after replay, want %d", seed, i, got, pendB)
					}
					if got := rtR.reorder.Dropped(); got != droppedB {
						t.Fatalf("seed %d: snapshot %d: buffer dropped %d, want %d", seed, i, got, droppedB)
					}
					if rtR.watermark != wmB {
						t.Fatalf("seed %d: snapshot %d: watermark %d, want %d", seed, i, rtR.watermark, wmB)
					}
					rtR.Close()
					finalR := rcCaptureState(stmts)
					rcStatesEqual(t, fmt.Sprintf("seed %d: snapshot %d restored (closed)", seed, i), finalB, finalR, false)
				}
				if withPending == 0 {
					t.Fatalf("seed %d: no snapshot carried pending reorder events", seed)
				}
			}
		})
	}
}

// TestRecoveryTopology restores a runtime whose statement topology
// exercises every registration shape at once: a shared entry that
// shrank to one subscriber, a later same-signature candidate from a
// newer epoch, a lone candidate, an ungrouped exclusive statement,
// and a composite (disjunction) statement. Restores at post-action
// boundaries must reproduce the interrupted run bit for bit, and the
// restored share index must not admit new subscribers into warm graphs.
func TestRecoveryTopology(t *testing.T) {
	const every = event.Time(32)
	const sharedQ = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	const candQ = "RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] WITHIN 24 SLIDE 8"

	// Strictly increasing timestamps so every index maps to one time.
	evs := rcStream(rand.New(rand.NewSource(7)), 280, true, 20, 0)
	tt := event.Time(0)
	for _, ev := range evs {
		tt++
		ev.Time = tt
	}

	type runState struct {
		rt    *Runtime
		stmts map[string]*Stmt
	}
	script := func(t *testing.T, rt *Runtime) runState {
		rs := runState{rt: rt, stmts: map[string]*Stmt{}}
		reg := func(id, q string, cfg StmtConfig) {
			rs.stmts[id] = rcRegister(t, rt, id, q, aggregate.ModeNative, cfg)
		}
		reg("sharedA", sharedQ, StmtConfig{Share: true})
		reg("sharedB", sharedQ, StmtConfig{Share: true})
		reg("solo", "RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price WITHIN 16 SLIDE 4",
			StmtConfig{})
		reg("comp", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5", StmtConfig{})
		for _, ev := range evs[:80] {
			rt.Process(ev)
		}
		// New epoch: same signature no longer attaches — C becomes a
		// fresh candidate whose index node shadows the entry's.
		reg("sharedC", sharedQ, StmtConfig{Share: true})
		reg("cand", candQ, StmtConfig{Share: true})
		for _, ev := range evs[80:120] {
			rt.Process(ev)
		}
		// Entry shrinks to a single subscriber (detach flush).
		if err := rs.stmts["sharedB"].Close(); err != nil {
			t.Fatal(err)
		}
		delete(rs.stmts, "sharedB")
		for _, ev := range evs[120:] {
			rt.Process(ev)
		}
		return rs
	}

	live := func(rs runState) []*Stmt {
		out := make([]*Stmt, 0, len(rs.stmts))
		for _, st := range rs.stmts {
			out = append(out, st)
		}
		return out
	}

	// Uninterrupted checkpointed run.
	var snaps []rcSnap
	rtB := NewRuntime(rcCapture(t, every, &snaps))
	rsB := script(t, rtB)
	preB := rcCaptureState(live(rsB))

	// Checkpoint-free baseline (results must match regardless).
	rsA := script(t, NewRuntime())
	preA := rcCaptureState(live(rsA))
	rcStatesEqual(t, "plain vs checkpointed", preA, preB, false)

	if got := preB.stats["sharedA"].SharedStatements; got != 1 {
		t.Fatalf("sharedA shares with %d statements, want 1 (detached entry)", got)
	}

	closeTime := evs[119].Time
	tested := 0
	for i, sn := range snaps {
		if sn.replayFrom <= closeTime {
			continue // mid-script snapshots need the script's actions replayed too
		}
		tested++
		rtR, info, err := RestoreRuntime(sn.data, rcDiscard(t, every))
		if err != nil {
			t.Fatalf("restore checkpoint %d: %v", i, err)
		}
		rcFeed(rtR, evs, info.ReplayFrom)
		preR := rcCaptureState(rtR.stmts)
		rcStatesEqual(t, fmt.Sprintf("checkpoint %d restored", i), preB, preR, true)

		// Restored graphs are warm: a new same-signature registration
		// must become an exclusive candidate, not a subscriber.
		st := rcRegister(t, rtR, "late", sharedQ, aggregate.ModeNative, StmtConfig{Share: true})
		if st.src.union {
			t.Fatalf("checkpoint %d: late registration attached to a restored warm graph", i)
		}
		if st.Stats().SharedStatements != 0 {
			t.Fatalf("checkpoint %d: late registration reports shared statements", i)
		}
	}
	if tested == 0 {
		t.Fatalf("no post-action checkpoints to test (close at %d, %d snaps)", closeTime, len(snaps))
	}
}

// TestCheckpointNow covers the manual path: replayFrom is watermark+1,
// no boundary advancement happens, and on a strictly increasing stream
// the restored run is exact.
func TestCheckpointNow(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	evs := rcStream(rand.New(rand.NewSource(3)), 200, true, 30, 0)
	tt := event.Time(0)
	for _, ev := range evs {
		tt++
		ev.Time = tt
	}

	if err := NewRuntime().CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow succeeded without checkpointing configured")
	}
	var snaps []rcSnap
	rtB := NewRuntime(rcCapture(t, 1<<40, &snaps)) // interval too long to self-trigger
	stB := rcRegister(t, rtB, "q", q, aggregate.ModeNative, StmtConfig{})
	for i, ev := range evs {
		rtB.Process(ev)
		if i == 127 {
			if err := rtB.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want exactly the manual one", len(snaps))
	}
	if want := evs[127].Time + 1; snaps[0].replayFrom != want {
		t.Fatalf("manual replayFrom %d, want watermark+1 = %d", snaps[0].replayFrom, want)
	}
	preB := rcCaptureState([]*Stmt{stB})

	rtR, info, err := RestoreRuntime(snaps[0].data)
	if err != nil {
		t.Fatal(err)
	}
	rcFeed(rtR, evs, info.ReplayFrom)
	preR := rcCaptureState(rtR.stmts)
	rcStatesEqual(t, "manual checkpoint restored", preB, preR, true)
}
