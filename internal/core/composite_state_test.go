package core

import (
	"math/rand"
	"os"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// TestCompositeBoundedState holds a drop-on-delivery composite statement
// to the bound a simple one has: state linear in the open windows. Over
// 200 000 events and 5 000 tumbling windows no sub-engine retains a
// result once Process returns, the merger is empty at every snapshot
// (which is why the checkpoint has no section for it), and the snapshot
// taken at event 200 000 is no bigger than the one at event 10 000.
func TestCompositeBoundedState(t *testing.T) {
	const n = 200_000
	var st *Stmt
	sizes := map[event.Time]int{} // boundary → body bytes
	rt := NewRuntime(
		WithTraceHook(func(te TraceEvent) {
			if te.Kind != TraceCheckpointBegin {
				return
			}
			if p := st.src.eng.merge.Pending(); p != 0 {
				t.Errorf("boundary %d: merger holds %d windows at the snapshot", te.Boundary, p)
			}
		}),
		rcArm(t, 500, func(body []byte) { sizes[ckReplayFrom(body)] = len(body) }))
	st = rcRegister(t, rt, "q", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 20",
		aggregate.ModeNative, StmtConfig{NoRetain: true})
	delivered := 0
	st.OnResult(func(Result) { delivered++ })

	// Two events a tick, every tenth a Halt: event i has time i/2.
	for i := 0; i < n; i++ {
		ev := &event.Event{ID: uint64(i + 1), Type: "Stock", Time: event.Time(i / 2),
			Attrs: map[string]float64{"price": float64(1 + i%7)}}
		if i%10 == 9 {
			ev.Type = "Halt"
		}
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
		for slot, se := range st.src.eng.subs {
			if len(se.results) != 0 {
				t.Fatalf("event %d: sub-engine %d retains %d results", i, slot, len(se.results))
			}
		}
	}
	if want := n/40 - 1; delivered != want {
		t.Errorf("%d results delivered before Close, want %d", delivered, want)
	}
	if len(st.results) != 0 {
		t.Errorf("drop-on-delivery statement retains %d results", len(st.results))
	}
	early, late := sizes[event.Time(n/40)], sizes[event.Time(n/2-500)]
	if early == 0 || late == 0 {
		t.Fatalf("no snapshot at boundary %d or %d (%d taken)", n/40, n/2-500, len(sizes))
	}
	t.Logf("snapshot body: %d bytes at boundary %d, %d at boundary %d", early, n/40, late, n/2-500)
	if d := late - early; d*20 > early || -d*20 > early {
		t.Errorf("snapshot grew from %d bytes (boundary %d) to %d (boundary %d): state is not bounded by the open windows",
			early, n/40, late, n/2-500)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// The scenario behind testdata/ckpt-v3-composite-parent.gck: three
// composite statements over a seeded stream, checkpointed every 16
// ticks. The file is the eighth scheduled snapshot as written by the
// commit before composite plans emitted per window (3a39291), whose
// sub-engines listed every window they had closed in the body.
const legacyBodyPath = "testdata/ckpt-v3-composite-parent.gck"

var legacyStmts = [][2]string{
	{"or", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5"},
	{"and", "RETURN COUNT(*) PATTERN Stock S+ AND Halt H+ WITHIN 20 SLIDE 5"},
	{"star", "RETURN COUNT(*) PATTERN SEQ(Stock S*, Halt H) WHERE [company] GROUP-BY company WITHIN 24 SLIDE 8"},
}

func legacyRun(t *testing.T) (*Runtime, []*event.Event) {
	rt := NewRuntime()
	for _, s := range legacyStmts {
		rcRegister(t, rt, s[0], s[1], aggregate.ModeNative, StmtConfig{})
	}
	return rt, rcStream(rand.New(rand.NewSource(5)), 300, false, 8, 0)
}

// TestCompositeLegacyBody restores a version-3 body whose composite
// sub-engines carry results: each of those windows must be delivered
// exactly once, by the first window close after the restore, and the
// run must end with the uninterrupted run's results.
func TestCompositeLegacyBody(t *testing.T) {
	data, err := os.ReadFile(legacyBodyPath)
	if err != nil {
		t.Fatalf("%v (the file cannot be regenerated by this revision: see legacyBodyPath)", err)
	}
	rtU, evs := legacyRun(t)
	rcFeed(rtU, evs, 0)
	stU := append([]*Stmt(nil), rtU.stmts...)
	rtU.Close()

	rtR, info, err := RestoreRuntime(data)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		group string
		wid   int64
	}
	stR := append([]*Stmt(nil), rtR.stmts...)
	seen := make([]map[key]int, len(stR))
	legacy := make([][]key, len(stR)) // the body's windows that compose to a result
	for i, st := range stR {
		seen[i] = map[key]int{}
		st.OnResult(func(r Result) { seen[i][key{r.Group, r.Wid}]++ })
		for _, r := range stU[i].Results() {
			if st.src.eng.merge.pending[r.Wid][r.Group] != nil {
				legacy[i] = append(legacy[i], key{r.Group, r.Wid})
			}
		}
		if len(legacy[i]) == 0 {
			t.Fatalf("statement %q: the body lists no sub-engine results, so the parent revision did not write it", st.id)
		}
	}
	for _, ev := range evs {
		if ev.Time < info.ReplayFrom {
			continue
		}
		rtR.Process(ev)
		for i, st := range stR {
			if len(seen[i]) == 0 {
				continue // no window of this statement has closed since the restore
			}
			if p := st.src.eng.merge.Pending(); p != 0 {
				t.Fatalf("statement %q: %d windows in the merger after a close", st.id, p)
			}
			for _, k := range legacy[i] {
				if seen[i][k] != 1 {
					t.Fatalf("statement %q: legacy window %v delivered %d times by the first close", st.id, k, seen[i][k])
				}
			}
		}
	}
	rtR.Close()
	for i, st := range stR {
		rcResultsEqual(t, "statement "+st.id, st.Results(), stU[i].Results())
		for _, r := range st.Results() {
			if n := seen[i][key{r.Group, r.Wid}]; n != 1 {
				t.Errorf("statement %q: (%q, %d) delivered %d times", st.id, r.Group, r.Wid, n)
			}
		}
	}
}
