package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// windowCountQueries cover every path that reads a vertex's windows: the
// fold path (scans, summaries), Case 3 (windows below the valid suffix
// hold no payload), Case 2 (maxStart-filtered summaries, lazy finals)
// and a prunable Case 1 (invalid event pruning).
var windowCountQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price",
	"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] AND S.price > NEXT(S).price",
	"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price",
	"RETURN COUNT(*), SUM(B.price) PATTERN SEQ(Stock A, NOT Halt H, Stock B+) WHERE [company] AND B.price > NEXT(B).price",
}

// TestWindowCounts runs each window shape a vertex's block and presence
// bits must hold — more than 64 windows an event (a presence word and
// more), a count that changes from event to event (recycled blocks), one
// window, the unbounded window — through the fold ≡ forced-scan
// differential (bit-identical results, equal counters, every payload
// accounted), a checkpoint round trip at every boundary, and the
// brute-force enumerator on a stream small enough for it.
func TestWindowCounts(t *testing.T) {
	for _, tc := range []struct {
		name, win string
		k         int // the most windows an event falls into
	}{
		{"65-windows", " WITHIN 130 SLIDE 2", 65},
		{"150-windows", " WITHIN 300 SLIDE 2", 150},
		{"2-or-3-windows", " WITHIN 10 SLIDE 4", 3},
		{"1-window", " WITHIN 5 SLIDE 5", 1},
		{"unbounded", "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for qi, src := range windowCountQueries {
				src += tc.win
				evs := rcStream(rand.New(rand.NewSource(int64(qi+1))), 400, true, 12, 0)
				fold, scan := windowCountEngine(t, src, evs, false), windowCountEngine(t, src, evs, true)
				rcResultsEqual(t, src, fold.Results(), scan.Results())
				fs, ss := fold.Stats(), scan.Stats()
				if fs.Events != ss.Events || fs.Inserted != ss.Inserted || fs.Edges != ss.Edges ||
					fs.PeakVertices != ss.PeakVertices || fs.Results != ss.Results {
					t.Fatalf("%s: stats differ\nfold %+v\nscan %+v", src, fs, ss)
				}
				if qi == 0 && fs.SummaryFolds == 0 {
					t.Fatalf("%s: the fold path never folded", src)
				}
				fv, widest := windowCountPayloads(t, src, fold)
				if sv, _ := windowCountPayloads(t, src, scan); fv != sv {
					t.Fatalf("%s: vertices hold %d payloads on the fold path, %d on the forced scan", src, fv, sv)
				}
				if qi == 0 && widest != tc.k {
					t.Fatalf("%s: the most payloads a vertex holds is %d, want %d (every event starts a trend)", src, widest, tc.k)
				}

				windowCountRoundTrip(t, src, evs)

				// The enumerator's stream is spread out until it runs past
				// WITHIN, so its last events fall into k windows.
				small := rcStream(rand.New(rand.NewSource(int64(qi+1))), 24, false, 8, 0)
				win := query.MustParse(src).Window
				stretch := win.Within*6/5/small[len(small)-1].Time + 1
				widest = 0
				for _, ev := range small {
					ev.Time *= stretch
					lo, hi := win.Wids(ev.Time)
					widest = max(widest, int(hi-lo+1))
				}
				if widest != tc.k {
					t.Fatalf("%s: the enumerator's events fall into at most %d windows, want %d", src, widest, tc.k)
				}
				windowCountEnum(t, src, small)
			}
		})
	}
}

func windowCountEngine(t *testing.T, src string, evs []*event.Event, forceScan bool) *Engine {
	t.Helper()
	plan, err := NewPlan(query.MustParse(src), aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(plan)
	eng.SetForceVertexScan(forceScan)
	eng.Run(event.NewSliceStream(evs))
	return eng
}

// windowCountPayloads checks that every graph's Payloads counter is the
// payloads its vertices hold plus those of its subtree summaries, and
// returns the vertices' share and the most one vertex holds.
func windowCountPayloads(t *testing.T, src string, eng *Engine) (vertexPayloads uint64, widest int) {
	t.Helper()
	for _, p := range eng.parts.all() {
		for _, g := range p.graphs {
			var verts, sums uint64
			for _, pn := range g.panes {
				for _, tr := range pn.trees {
					if tr == nil {
						continue
					}
					tr.DumpNodes(func(items []vitem, s *vertexSum, _ int) bool {
						for _, it := range items {
							n := it.Val.Present.Count()
							verts += uint64(n)
							widest = max(widest, n)
						}
						if s != nil {
							for _, sp := range s.agg.Sums {
								if sp != nil {
									sums++
								}
							}
						}
						return true
					})
				}
			}
			if g.stats.Payloads != verts+sums {
				t.Fatalf("%s: graph counts %d payloads, holds %d in vertices and %d in summaries", src, g.stats.Payloads, verts, sums)
			}
			vertexPayloads += verts
		}
	}
	return vertexPayloads, widest
}

// windowCountRoundTrip checkpoints a run at every boundary and requires
// each snapshot to decode and encode back to its own bytes.
func windowCountRoundTrip(t *testing.T, src string, evs []*event.Event) {
	t.Helper()
	const every = 24
	rt := NewRuntime()
	rcRegister(t, rt, "q", src, aggregate.ModeNative, StmtConfig{})
	var snaps []rcSnap
	rcCapture(t, rt, every, -1, &snaps)
	rcFeed(rt, evs, 0)
	if err := rt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for i, sn := range snaps {
		rtR, info, err := RestoreRuntime(sn.data)
		if err != nil {
			t.Fatalf("%s: snapshot %d: restore: %v", src, i, err)
		}
		rcDiscard(t, rtR, every, info.ReplayFrom)
		var buf bytes.Buffer
		if err := rtR.encodeLocked(&buf, sn.replayFrom); err != nil {
			t.Fatalf("%s: snapshot %d: re-encode: %v", src, i, err)
		}
		if !bytes.Equal(sn.data, buf.Bytes()) {
			t.Fatalf("%s: snapshot %d: round trip diverges (%d bytes vs %d)", src, i, len(sn.data), buf.Len())
		}
	}
}

// windowCountEnum compares the engine with the brute-force enumerator.
func windowCountEnum(t *testing.T, src string, evs []*event.Event) {
	t.Helper()
	got := windowCountEngine(t, src, evs, false).Results()
	want, err := enum.Run(query.MustParse(src), evs)
	if err != nil {
		t.Fatal(err)
	}
	want = slices.DeleteFunc(want, func(r enum.Result) bool { return r.Count == 0 })
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("%s: enumerator has %d non-empty results, engine %d", src, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Group != w.Group || g.Wid != w.Wid {
			t.Fatalf("%s: result %d keyed (%q, %d), enumerator (%q, %d)", src, i, g.Group, g.Wid, w.Group, w.Wid)
		}
		for j, wv := range w.Values {
			if gv := g.Values[j]; gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
				t.Fatalf("%s: (%q, %d) aggregate %d: %v, enumerator %v", src, g.Group, g.Wid, j, gv, wv)
			}
		}
	}
}
