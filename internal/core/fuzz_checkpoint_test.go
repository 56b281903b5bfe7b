package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	"github.com/greta-cep/greta/internal/query"
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
	var snaps []rcSnap
	rt := NewRuntime(WithReorderSlack(event.Time(sh.slack)), rcCapture(t, every, &snaps))
	if sh.slack > 0 {
		rt.SetCheckpointMeta(func(int, int) []byte { return []byte(`{"sess":"fuzz","cursor":7}`) })
	}
	for _, q := range sh.queries {
		rcRegister(t, rt, "", q, sh.mode, StmtConfig{Share: sh.share})
	}
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
			// Arm the same schedule so the re-encoded header carries the
			// same interval, then re-serialize with the original bound.
			rtR, info, err := RestoreRuntime(sn.data, rcDiscard(t, every))
			if err != nil {
				t.Fatalf("snapshot %d: restore: %v", i, err)
			}
			if info.ReplayFrom != sn.replayFrom || info.Every != every {
				t.Fatalf("snapshot %d: info %+v, want replay %d every %d", i, info, sn.replayFrom, every)
			}
			re := ckEncode(t, rtR, sn.replayFrom)
			if !bytes.Equal(sn.data, re) {
				t.Fatalf("snapshot %d: round trip diverges (%d bytes vs %d)",
					i, len(sn.data), len(re))
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

// fuzzShardHostBlobs are handoff blobs of one worker slot hosting three
// units in two route groups (a Kleene trend, a negation, an exact-mode
// trend), taken back to back at three points of a randomized stream
// with barriers between them: every blob after the first is encoded
// into the storage the one before it left.
func fuzzShardHostBlobs(t testing.TB) [][]byte {
	t.Helper()
	h := NewShardHost(1, func(int, int, Result) {})
	units := []struct {
		q     string
		exact bool
		gi    int
	}{{lcA, false, 0}, {lcNeg, false, 1}, {lcB, true, 0}}
	for si, u := range units {
		mode := aggregate.ModeNative
		if u.exact {
			mode = aggregate.ModeExact
		}
		plan, err := NewPlan(query.MustParse(u.q), mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RegisterPlan(si, u.gi, plan, fmt.Sprintf("u%d", si), false); err != nil {
			t.Fatal(err)
		}
	}
	acc := [][]event.Accessor{h.unit(0).RouteAccessors(), h.unit(1).RouteAccessors()}
	var blobs [][]byte
	for i, ev := range rcStream(rand.New(rand.NewSource(5)), 360, false, 8, 20) {
		h.Apply(ev, []int{0, 1}, []uint64{HashRoute(acc[0], ev), HashRoute(acc[1], ev)})
		if i%40 == 39 {
			for si := range units {
				h.Barrier(si, ev.Time-5)
			}
		}
		if i%120 == 119 {
			blob, err := h.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	h.Discard()
	return blobs
}

// FuzzAdoptShardHost asserts that AdoptShardHost never panics on a
// handoff blob: it returns a host or an error. A host it returns encodes
// the same blob twice in a row (the second time into the storage the
// first left), and an unmutated seed comes back byte for byte.
func FuzzAdoptShardHost(f *testing.F) {
	seeds := map[string]bool{}
	for _, blob := range fuzzShardHostBlobs(f) {
		seeds[string(blob)] = true
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := AdoptShardHost(data, func(int, int, Result) {})
		if err != nil {
			if h != nil {
				t.Fatal("error with a non-nil host")
			}
			return
		}
		once, err := h.Snapshot()
		if err != nil {
			t.Fatalf("an adopted host does not snapshot: %v", err)
		}
		twice, err := h.Snapshot()
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("a second snapshot differs from the first (%d and %d bytes, err %v)", len(once), len(twice), err)
		}
		if seeds[string(data)] && !bytes.Equal(once, data) {
			t.Fatalf("a seed blob of %d bytes re-encodes to %d different bytes", len(data), len(once))
		}
	})
}

// TestAdoptShardHostRefusesDamage: a handoff blob is framed and
// checksummed, so every single-bit flip and every truncation of a seed
// blob is refused as corrupt before anything is decoded (unframed, the
// blobs adopted about a third of such mutations as altered state).
func TestAdoptShardHostRefusesDamage(t *testing.T) {
	adopt := func(what string, data []byte) {
		t.Helper()
		if _, err := AdoptShardHost(data, func(int, int, Result) {}); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: adopt returned %v, want checkpoint.ErrCorrupt", what, err)
		}
	}
	for i, blob := range fuzzShardHostBlobs(t) {
		if _, err := AdoptShardHost(blob, func(int, int, Result) {}); err != nil {
			t.Fatalf("blob %d: adopt: %v", i, err)
		}
		mut := slices.Clone(blob)
		for bit := range 8 * len(blob) {
			mut[bit/8] ^= 1 << (bit % 8)
			adopt(fmt.Sprintf("blob %d, bit %d flipped", i, bit), mut)
			mut[bit/8] ^= 1 << (bit % 8)
		}
		for n := range len(blob) {
			adopt(fmt.Sprintf("blob %d cut to %d of %d bytes", i, n, len(blob)), blob[:n])
		}
	}
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
			encode := func() []byte { return ckEncode(t, rt, rt.Watermark()+1) }
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
	// A retained result's payload is read with its statement's definition
	// — a union subscriber's with the union's — so a record whose results
	// carry more slots than the definition, written here by renaming the
	// statement's RETURN clause in the body, is refused as corrupt. So is
	// one whose slot value has a count where its kind keeps a float, or a
	// float where it keeps a count: a slot value is one word of its kind.
	const (
		withSum   = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
		withCount = "RETURN COUNT(*), COUNT(S) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
		bare      = "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	)
	for _, tc := range []struct {
		name    string
		queries []string
		from    string
		to      string
		cfg     StmtConfig
		want    string
	}{
		{"result-slot-count", []string{withSum}, withSum, bare, StmtConfig{}, "payload has 1 slots, definition has 0"},
		{"union-result-slot-count", []string{bare, withSum}, withSum, bare, StmtConfig{Share: true}, "payload has 1 slots, definition has 0"},
		{"result-sum-as-count", []string{withSum}, withSum, withCount, StmtConfig{}, "COUNT slot holds a float value"},
		{"result-count-as-sum", []string{withCount}, withCount, withSum, StmtConfig{}, "SUM slot holds a count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRuntime()
			var st *Stmt
			for i, q := range tc.queries {
				st = rcRegister(t, rt, fmt.Sprint("q", i), q, aggregate.ModeNative, tc.cfg)
			}
			rcFeed(rt, rcStream(rand.New(rand.NewSource(1)), 120, false, 8, 0), 0)
			st.Engine().AdvanceTo(rt.Watermark() + 100) // the results are the body's only payloads
			if len(st.Delivered()) == 0 {
				t.Fatal("no result retained")
			}
			body := ckEncode(t, rt, rt.Watermark()+1)
			if _, _, err := RestoreRuntime(body); err != nil {
				t.Fatalf("restore of the unchanged runtime: %v", err)
			}
			// A query is written as its canonical text behind its length.
			field := func(q string) []byte {
				text := query.MustParse(q).String()
				return append(binary.LittleEndian.AppendUint32(nil, uint32(len(text))), text...)
			}
			from, to := field(tc.from), field(tc.to)
			if bytes.Count(body, from) != 1 {
				t.Fatalf("body holds the statement's query text %d times, want once", bytes.Count(body, from))
			}
			_, _, err := RestoreRuntime(bytes.Replace(body, from, to, 1))
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
	rt := NewRuntime(WithCheckpoint(8, store, func(err error) { t.Errorf("checkpoint save: %v", err) }))
	rcRegister(t, rt, "q", "RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price WITHIN 20 SLIDE 5", aggregate.ModeNative, StmtConfig{})
	// Prices no counter, window id or result value can be mistaken for.
	price := func(i int) float64 { return 1000.25 + float64(i*5%7) }
	for i := 0; i < 40; i++ {
		rt.Process(&event.Event{ID: uint64(i + 1), Type: "Stock", Time: event.Time(i), Attrs: map[string]float64{"price": price(i)}})
	}
	if err := rt.Close(); err != nil { // settles the last boundary's write
		t.Fatal(err)
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
		tab := newEvTable(0)
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

	// Map-free events are written from their slots in their schema's name
	// order: a schema far from sorted, absent slots (NaN / ""), and a slot
	// array shorter than its schema must still read as the map twin does,
	// bound to that schema, to one listing a few of the names, or to none.
	wide := &event.Schema{Type: "T", Numeric: []string{"z", "m", "a", "q"}, Strings: []string{"y", "b", "x"}}
	nan := math.NaN()
	for i, tc := range []struct {
		num   []float64
		strv  []string
		attrs map[string]float64
		str   map[string]string
	}{
		{[]float64{nan, 2, nan, -4}, []string{"", "v", ""}, map[string]float64{"m": 2, "q": -4}, map[string]string{"b": "v"}},
		{[]float64{1, 2, 3, 4}, []string{"p", "q", "r"}, map[string]float64{"z": 1, "m": 2, "a": 3, "q": 4}, map[string]string{"y": "p", "b": "q", "x": "r"}},
		{[]float64{nan, nan, nan, nan}, []string{"", "", ""}, nil, nil},
		{[]float64{5}, []string{"", "w"}, map[string]float64{"z": 5}, map[string]string{"b": "w"}},
	} {
		twin := &event.Event{ID: uint64(20 + i), Type: "T", Time: 9, Attrs: tc.attrs, Str: tc.str}
		want := record(twin)
		free := &event.Event{ID: twin.ID, Type: "T", Time: 9, Sch: wide, Num: tc.num, StrV: tc.strv}
		if got := record(free); !bytes.Equal(got, want) {
			t.Errorf("map-free event %d encodes\n%x\nmap-carried\n%x", i, got, want)
		}
		for _, sch := range []*event.Schema{wide, partial, full} {
			bound := *twin
			sch.Bind(&bound)
			if got := record(&bound); !bytes.Equal(got, want) {
				t.Errorf("event %d bound to %v encodes\n%x\nmap-carried\n%x", i, sch.Numeric, got, want)
			}
		}
		b := event.NewBatch(wide, 1)
		if err := b.AppendEvent(twin); err != nil {
			t.Fatal(err)
		}
		if got := record(b.Row(0)); !bytes.Equal(got, want) {
			t.Errorf("event %d as a batch row encodes\n%x\nmap-carried\n%x", i, got, want)
		}
	}
}
