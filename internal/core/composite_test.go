package core_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

const compositeGoldenPath = "testdata/composite_golden.txt"

// compositeCases are the §9 plan shapes: every one compiles to branch
// and product engines behind one statement. "overlap" is the shape whose
// branches share trends, so its inclusion–exclusion masks subtract
// something.
var compositeCases = []struct{ name, q string }{
	{"or2", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+"},
	{"or3", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ OR News N+"},
	{"and", "RETURN COUNT(*) PATTERN Stock S+ AND Halt H+"},
	{"star", "RETURN COUNT(*) PATTERN SEQ(Stock S*, Halt H)"},
	{"optional", "RETURN COUNT(*) PATTERN SEQ(Stock S?, Halt H+)"},
	{"grouped", "RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WHERE [company] GROUP-BY company"},
	{"sum-min", "RETURN COUNT(*), SUM(Stock.price), MIN(Stock.price) PATTERN Stock S+ OR SEQ(Stock A+, Halt H)"},
	{"overlap", "RETURN COUNT(*) PATTERN Stock S+ OR SEQ(Stock A, Stock B+)"},
}

var compositeWindows = []struct{ name, clause string }{
	{"tumbling", " WITHIN 20 SLIDE 20"},
	{"sliding", " WITHIN 20 SLIDE 5"},
}

// compositeRun registers src in drop-on-delivery mode and returns the
// runtime and the slice its callback appends to.
func compositeRun(t *testing.T, src string) (*core.Runtime, *[]core.Result) {
	t.Helper()
	rt := core.NewRuntime()
	_, got := registerCollect(t, rt, []string{src})
	return rt, got[0]
}

// compositeDigest renders a result sequence as the golden line: every
// key, value (IEEE bits) and payload byte, in order.
func compositeDigest(t *testing.T, def *aggregate.Def, rs []core.Result) string {
	t.Helper()
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%q %d %d %d %d", r.Group, r.Wid, r.WindowStart, r.WindowEnd, len(r.Values))
		for _, v := range r.Values {
			binary.Write(h, binary.BigEndian, math.Float64bits(v))
		}
		pl, err := core.MarshalPayload(def, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(pl)
	}
	return fmt.Sprintf("results=%d sha256=%x", len(rs), h.Sum(nil))
}

func byWidGroup(a, b core.Result) int {
	return cmp.Or(cmp.Compare(a.Wid, b.Wid), strings.Compare(a.Group, b.Group))
}

// TestCompositeStreams pins the one emit path for composite plans: a
// window's composed result is delivered by the event that closes it —
// per event and per batch alike — in ascending (wid, group) order, the
// same sequence on every run; every value and payload is the one the
// at-flush composition computed (testdata/composite_golden.txt was
// written by the commit before the per-window merge, which composed
// inside Close); and on a stream small enough to enumerate, the counts
// are the brute-force enumerator's.
func TestCompositeStreams(t *testing.T) {
	evs := batchDiffStream(rand.New(rand.NewSource(11)), 300, 6, 8)
	small := batchDiffStream(rand.New(rand.NewSource(12)), 13, 3, 4)
	var fresh bytes.Buffer
	for _, tc := range compositeCases {
		for _, w := range compositeWindows {
			name, src := tc.name+"/"+w.name, tc.q+w.clause
			t.Run(name, func(t *testing.T) {
				plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
				if err != nil {
					t.Fatal(err)
				}
				def := plan.Def()
				// Run 1, per event: the reference sequence.
				rt, ref := compositeRun(t, src)
				closedBy := func(tm event.Time) int { // reference results whose window tm has closed
					n := 0
					for _, r := range *ref {
						if r.WindowEnd <= tm {
							n++
						}
					}
					return n
				}
				feedEach(t, rt, evs, nil)
				early := len(*ref)
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				if early == 0 || early == len(*ref) {
					t.Errorf("%d of %d results delivered before Close; want some, not all", early, len(*ref))
				}
				if !slices.IsSortedFunc(*ref, byWidGroup) {
					t.Errorf("delivery order is not ascending (wid, group)")
				}
				sorted := slices.Clone(*ref)
				slices.SortStableFunc(sorted, byWidGroup)
				fmt.Fprintf(&fresh, "%s %s\n", name, compositeDigest(t, def, sorted))

				// Run 2, per event: after every event, exactly the windows
				// its time has closed are out, the same sequence as run 1.
				rt, got := compositeRun(t, src)
				for i, ev := range evs {
					if err := rt.Process(ev); err != nil {
						t.Fatal(err)
					}
					if n := closedBy(ev.Time); len(*got) != n {
						t.Fatalf("after event %d (t=%d): %d results delivered, %d windows' worth closed", i, ev.Time, len(*got), n)
					}
				}
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				compareSequences(t, "second per-event run", def, *got, *ref)

				// Run 3, batches: the same holds at every batch edge.
				rt, got = compositeRun(t, src)
				hooks := map[int]func(){}
				for i := 5; i < len(evs); i += 5 {
					hooks[i] = func() {
						if n := closedBy(evs[i-1].Time); len(*got) != n {
							t.Fatalf("batches up to row %d (t=%d): %d results delivered, %d windows' worth closed", i, evs[i-1].Time, len(*got), n)
						}
					}
				}
				feedBatches(t, rt, evs, 7, hooks, nil)
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				compareSequences(t, "batch run", def, *got, *ref)

				// The enumerator, on a stream it can afford.
				q := query.MustParse(src)
				rt, got = compositeRun(t, src)
				feedEach(t, rt, small, nil)
				if err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				want, err := enum.Run(q, small)
				if err != nil {
					t.Fatal(err)
				}
				want = slices.DeleteFunc(want, func(r enum.Result) bool { return r.Count == 0 })
				if len(want) == 0 || len(want) != len(*got) {
					t.Fatalf("enumerator has %d non-empty results, engine %d", len(want), len(*got))
				}
				slices.SortFunc(want, func(a, b enum.Result) int {
					return byWidGroup(core.Result{Group: a.Group, Wid: a.Wid}, core.Result{Group: b.Group, Wid: b.Wid})
				})
				for i, wr := range want {
					gr := (*got)[i]
					if gr.Group != wr.Group || gr.Wid != wr.Wid {
						t.Fatalf("result %d keyed (%q,%d), enumerator (%q,%d)", i, gr.Group, gr.Wid, wr.Group, wr.Wid)
					}
					for j := range wr.Values {
						if !almostEqual(gr.Values[j], wr.Values[j]) {
							t.Errorf("(%q,%d) aggregate %d: got %v, enumerator %v", gr.Group, gr.Wid, j, gr.Values[j], wr.Values[j])
						}
					}
				}
			})
		}
	}
	want, err := os.ReadFile(compositeGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(compositeGoldenPath, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote it, review and commit\n%s", compositeGoldenPath, fresh.Bytes())
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Errorf("composed values differ from the at-flush composition's:\n--- got\n%s--- want\n%s", fresh.Bytes(), want)
	}
}

// compareSequences demands the same results in the same order, values
// by IEEE bit pattern and payloads by their encoding.
func compareSequences(t *testing.T, label string, def *aggregate.Def, got, want []core.Result) {
	t.Helper()
	if g, w := compositeDigest(t, def, got), compositeDigest(t, def, want); g != w {
		t.Fatalf("%s: sequence differs from the first run's (%s vs %s)", label, g, w)
	}
}
