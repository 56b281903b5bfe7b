package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
)

// fuzzShapes are the statement mixes the round-trip fuzzer builds
// runtimes from; each exercises a different serialized surface.
var fuzzShapes = []struct {
	name    string
	queries []string
	mode    aggregate.Mode
	share   bool
	slack   int64 // > 0 arms the reorder buffer (and a session-meta blob)
}{
	{"minmax-nan", []string{ // NaN sort keys in MIN/MAX summary trees
		"RETURN MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ WHERE [company] WITHIN 20 SLIDE 5",
	}, aggregate.ModeNative, false, 0},
	{"shared-pair", []string{ // one shared graph, union payload slots
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN SUM(S.price), MIN(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	}, aggregate.ModeNative, true, 0},
	{"negation", []string{ // invalidation cursors, wmVer summaries
		"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10",
		"RETURN COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+) WHERE [company] WITHIN 24 SLIDE 8",
	}, aggregate.ModeNative, false, 0},
	{"exact", []string{ // big.Int counters, big.Float sums
		"RETURN COUNT(*), SUM(S.price), AVG(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
	}, aggregate.ModeExact, false, 0},
	{"disjunction", []string{ // composite engines
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5",
	}, aggregate.ModeNative, false, 0},
	{"reorder-meta", []string{ // disorder window + session-meta blob (v2 frame)
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5",
	}, aggregate.ModeNative, false, 4},
}

// fuzzBuild feeds a randomized workload into a runtime of the given
// shape and captures every scheduled checkpoint plus a final manual
// one.
func fuzzBuild(t testing.TB, shape int, seed int64, nEv int, every event.Time) []rcSnap {
	t.Helper()
	sh := fuzzShapes[shape]
	rt := NewRuntime()
	if sh.slack > 0 {
		if err := rt.SetReorderSlack(event.Time(sh.slack)); err != nil {
			t.Fatal(err)
		}
		rt.SetCheckpointMeta(func() []byte { return []byte(`{"sess":"fuzz","cursor":7}`) })
	}
	for _, q := range sh.queries {
		rcRegister(t, rt, "", q, sh.mode, StmtConfig{Share: sh.share})
	}
	var snaps []rcSnap
	rcCapture(t, rt, every, -1, &snaps)
	evs := rcStream(rand.New(rand.NewSource(seed)), nEv, sh.mode != aggregate.ModeExact, 8, 20)
	if sh.slack > 0 {
		rcJitter(rand.New(rand.NewSource(seed^0x5eed)), evs, sh.slack)
	}
	rcFeed(rt, evs, 0)
	if err := rt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// FuzzCheckpointRoundTrip asserts encode → decode → encode is the
// identity on the bytes: every captured snapshot, decoded with
// RestoreRuntime and re-serialized with the same replay bound, must
// reproduce itself bit for bit. The format is deterministic (sorted
// keys, first-encounter event references), so any divergence means
// state was lost or invented in the round trip — including NaN sort
// keys, degenerate-key counters, big.Int/big.Float exact aggregates,
// and shared-entry topology.
func FuzzCheckpointRoundTrip(f *testing.F) {
	for shape := range fuzzShapes {
		f.Add(shape, int64(1), 160, int64(16))
	}
	f.Add(0, int64(7), 300, int64(8))
	f.Add(2, int64(3), 240, int64(48))
	f.Fuzz(func(t *testing.T, shape int, seed int64, nEv int, everyRaw int64) {
		if shape < 0 {
			shape = -shape
		}
		shape %= len(fuzzShapes)
		nEv = 20 + absInt(nEv)%280
		every := event.Time(4 + absInt64(everyRaw)%44)

		snaps := fuzzBuild(t, shape, seed, nEv, every)
		for i, sn := range snaps {
			rtR, info, err := RestoreRuntime(sn.data)
			if err != nil {
				t.Fatalf("snapshot %d: restore: %v", i, err)
			}
			if info.ReplayFrom != sn.replayFrom || info.Every != every {
				t.Fatalf("snapshot %d: info %+v, want replay %d every %d", i, info, sn.replayFrom, every)
			}
			// Arm the same schedule so the re-encoded header carries the
			// same interval, then re-serialize with the original bound.
			rcDiscard(t, rtR, every, info.ReplayFrom)
			var buf bytes.Buffer
			if err := rtR.encodeLocked(&buf, sn.replayFrom); err != nil {
				t.Fatalf("snapshot %d: re-encode: %v", i, err)
			}
			if !bytes.Equal(sn.data, buf.Bytes()) {
				t.Fatalf("snapshot %d: round trip diverges (%d bytes vs %d)",
					i, len(sn.data), len(buf.Bytes()))
			}
		}
	})
}

func absInt(v int) int {
	if v < 0 {
		if v == -v { // MinInt
			return 0
		}
		return -v
	}
	return v
}

func absInt64(v int64) int64 {
	if v < 0 {
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}

// FuzzRestoreCorrupt asserts RestoreRuntime never panics on arbitrary
// input: it either succeeds or returns an error (structural damage is
// reported as checkpoint.ErrCorrupt). The seed corpus is a set of
// valid bodies, which the fuzzer then mutates into near-valid ones —
// the interesting region where naive decoders index out of range.
func FuzzRestoreCorrupt(f *testing.F) {
	for shape := range fuzzShapes {
		snaps := fuzzBuild(f, shape, 1, 120, 16)
		f.Add(snaps[len(snaps)-1].data)
		f.Add(snaps[0].data)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, _, err := RestoreRuntime(data)
		if err != nil {
			if rt != nil {
				t.Fatal("error with non-nil runtime")
			}
			return
		}
		// A successful decode must at least produce a coherent topology.
		if rt.Stats().Statements != len(rt.Statements()) {
			t.Fatal("restored runtime is incoherent")
		}
	})
}

// TestRestoreCorruptErrors pins a few specific corruptions to the
// error (not panic) contract without relying on the fuzz engine.
func TestRestoreCorruptErrors(t *testing.T) {
	snaps := fuzzBuild(t, 1, 1, 120, 16)
	data := snaps[len(snaps)-1].data
	if _, _, err := RestoreRuntime(nil); err == nil {
		t.Fatal("RestoreRuntime(nil) succeeded")
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad-version", func(b []byte) []byte { b[0] = 0xff; return b }},
		{"flipped-mid", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), data...))
			if _, _, err := RestoreRuntime(mut); err == nil {
				// Flipping one byte mid-body can land in a don't-care slot
				// (e.g. a float payload); only structural mutations must fail.
				if tc.name != "flipped-mid" {
					t.Fatal("corrupt restore succeeded")
				}
			} else if !errors.Is(err, checkpoint.ErrCorrupt) && tc.name != "flipped-mid" {
				// Structural mutations should classify as corruption.
				t.Logf("non-ErrCorrupt error (acceptable): %v", err)
			}
		})
	}
	// A decode that fails midway must stop touching state it did not
	// build: seeded truncations and bit flips of every fuzz shape's bodies
	// restore or fail, never panic.
	t.Run("seeded-mutations", func(t *testing.T) {
		var bodies [][]byte
		for shape := range fuzzShapes {
			snaps := fuzzBuild(t, shape, 1, 120, 16)
			bodies = append(bodies, snaps[0].data, snaps[len(snaps)-1].data)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			b := slices.Clone(bodies[rng.Intn(len(bodies))])
			if rng.Intn(3) == 0 {
				b = b[:rng.Intn(len(b))]
			} else {
				b[rng.Intn(len(b))] ^= 1 << rng.Intn(8)
			}
			_, _, _ = RestoreRuntime(b) // restored or refused are both fine; a panic fails the test
		}
	})
	// State no run can make — a vertex whose windows are not the ones its
	// time falls into (a seeded flip once decoded one with 513), finals out
	// of wid order — is written from a live runtime changed by hand, and
	// the restore must refuse it as corrupt.
	const (
		incremental = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
		lazy        = "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	)
	for _, tc := range []struct {
		name, query, want string
		change            func(g *Graph)
	}{
		{"vertex-first-window", incremental, "its time falls into", func(g *Graph) { g.panes[0].firstWid++ }},
		{"vertex-window-count", incremental, "its time falls into", func(g *Graph) {
			g.panes[0].trees[0].Ascend(func(it vitem) bool {
				it.Val.Aggs, it.Val.Present = g.def.NewBlock(513), aggregate.NewPresence(513)
				return false
			})
		}},
		{"vertex-outside-pane", incremental, "in pane", func(g *Graph) { g.panes[len(g.panes)-1].idx++ }},
		{"finals-descending", incremental, "final of window", func(g *Graph) { g.finals[0], g.finals[1] = g.finals[1], g.finals[0] }},
		{"finals-duplicate", lazy, "with an END vertex follows", func(g *Graph) { g.finals[1].wid = g.finals[0].wid }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntime()
			st := rcRegister(t, rt, "q", tc.query, aggregate.ModeNative, StmtConfig{})
			rcFeed(rt, rcStream(rand.New(rand.NewSource(1)), 120, false, 8, 0), 0)
			encode := func() []byte {
				var buf bytes.Buffer
				if err := rt.encodeLocked(&buf, rt.watermark+1); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if _, _, err := RestoreRuntime(encode()); err != nil {
				t.Fatalf("restore of the unchanged runtime: %v", err)
			}
			g := st.src.eng.parts.all()[0].graphs[0]
			if len(g.finals) < 2 {
				t.Fatalf("root graph holds %d finals, want at least 2", len(g.finals))
			}
			tc.change(g)
			_, _, err := RestoreRuntime(encode())
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore: %v, want ErrCorrupt (%s)", err, tc.want)
			}
		})
	}
}

// TestRestorePlanMismatch: a Vertex Tree item carries the key the
// writing plan sorted its state by. One whose key is not what this
// build's plan reads from the item's event — here a key with one bit
// flipped, in the field a body written under another sort attribute —
// is refused as corrupt instead of being folded over in the wrong
// order; on disk the same flip fails the checksum, and Load answers
// with the generation before.
func TestRestorePlanMismatch(t *testing.T) {
	store := &checkpoint.Store{Dir: t.TempDir()}
	rt := NewRuntime()
	rcRegister(t, rt, "q", "RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price WITHIN 20 SLIDE 5", aggregate.ModeNative, StmtConfig{})
	err := rt.SetCheckpoint(8, -1, func(_ event.Time, snapshot func(io.Writer) error) error {
		_, err := store.Write(snapshot)
		return err
	}, func(err error) { t.Errorf("checkpoint save: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	// Prices no counter, window id or result value can be mistaken for.
	price := func(i int) float64 { return 1000.25 + float64(i*5%7) }
	for i := 0; i < 40; i++ {
		rt.Process(&event.Event{ID: uint64(i + 1), Type: "Stock", Time: event.Time(i), Attrs: map[string]float64{"price": price(i)}})
	}
	body, gen, err := store.Load()
	if err != nil || gen < 2 {
		t.Fatalf("load: generation %d, %v", gen, err)
	}
	if _, _, err := RestoreRuntime(body); err != nil {
		t.Fatalf("restore of the untouched body: %v", err)
	}

	// The first price after the header and the event table is the first
	// item key of the first tree.
	c := ckWalk{Walker: checkpoint.Decode(body)}
	new(ckHeader).walk(&c.Walker)
	c.tab.walkSchemas(&c.Walker)
	c.tab.walkEvents(&c.Walker)
	at := len(body) - c.Remaining()
	for ; at+8 <= len(body); at++ {
		if k := math.Float64frombits(binary.LittleEndian.Uint64(body[at:])) - price(0); k >= 0 && k < 7 && k == math.Trunc(k) {
			break
		}
	}
	if c.Err() != nil || at+8 > len(body) {
		t.Fatalf("no item key found in the body (%v)", c.Err())
	}
	body[at] ^= 1
	_, _, err = RestoreRuntime(body)
	if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), "plan mismatch") {
		t.Fatalf("restore with a flipped item key: %v, want ErrCorrupt (plan mismatch)", err)
	}

	name := filepath.Join(store.Dir, fmt.Sprintf("ckpt-%08d.gck", gen))
	file, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	file[len(checkpoint.Magic)+at] ^= 1
	if err := os.WriteFile(name, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got, err := store.Load(); err != nil || got != gen-1 {
		t.Fatalf("load after the flip: generation %d, %v; want %d", got, err, gen-1)
	}
}

// TestEvTableEncodeCarriers: the checkpoint writes an event's attributes
// the same way however the event carries them — in maps only, bound to a
// schema listing all of them, bound to one listing a few (the rest left
// in the maps), or as a map-free batch row. Only the schema table and
// the event's reference into it may differ.
func TestEvTableEncodeCarriers(t *testing.T) {
	full := &event.Schema{Type: "T", Numeric: []string{"c", "a", "b"}, Strings: []string{"s", "r"}}
	partial := &event.Schema{Type: "T", Numeric: []string{"b", "zz"}, Strings: []string{"r"}}
	// record returns the bytes of ev's entry between the event count and
	// the schema reference.
	record := func(ev *event.Event) []byte {
		tab := newEvTable()
		tab.intern(ev)
		enc := checkpoint.Encode(nil)
		tab.walkSchemas(&enc)
		tab.walkEvents(&enc)
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		buf := enc.Out()
		d := checkpoint.Decode(buf)
		new(evTable).walkSchemas(&d)
		rec := buf[len(buf)-d.Remaining()+4:]
		if ev.Sch != nil {
			return rec[:len(rec)-5]
		}
		return rec[:len(rec)-1]
	}
	for i, ev := range []*event.Event{
		{ID: 7, Type: "T", Time: 3, Attrs: map[string]float64{"a": 1, "b": 2.5, "c": -3}, Str: map[string]string{"r": "x", "s": "y"}},
		{ID: 8, Type: "T", Time: 4, Attrs: map[string]float64{"b": 2}, Str: map[string]string{"s": "y"}},
		{ID: 9, Type: "T", Time: 5, Attrs: map[string]float64{"a": 1, "c": 0}},
		{ID: 10, Type: "T", Time: 6},
	} {
		want := record(ev)
		for _, sch := range []*event.Schema{full, partial} {
			bound := *ev
			sch.Bind(&bound)
			if got := record(&bound); !bytes.Equal(got, want) {
				t.Errorf("event %d bound to %v encodes\n%x\nmap-carried\n%x", i, sch.Numeric, got, want)
			}
		}
		b := event.NewBatch(full, 1)
		if err := b.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
		if got := record(b.Row(0)); !bytes.Equal(got, want) {
			t.Errorf("event %d as a batch row encodes\n%x\nmap-carried\n%x", i, got, want)
		}
	}
}
