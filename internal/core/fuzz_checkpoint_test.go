package core

import (
	"bytes"
	"errors"
	"math/rand"
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
		tab.ref(ev)
		var buf bytes.Buffer
		enc := checkpoint.NewEncoder(&buf)
		tab.encode(enc)
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		d := checkpoint.NewDecoder(buf.Bytes())
		decodeSchemas(d)
		rec := buf.Bytes()[buf.Len()-d.Remaining()+4:]
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
