package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
)

// bareTable is a partTable whose partitions carry no graphs: identity
// and lookup are all these tests exercise.
func bareTable(attrs ...string) *partTable {
	t := newPartTable(attrs, func(*partition) {})
	return &t
}

func strKey(vals ...string) partKey {
	k := make(partKey, len(vals))
	for i, v := range vals {
		k[i] = keyAttr{kind: pkStr, str: v}
	}
	return k
}

// memoAliases returns n distinct one-attribute string keys whose
// fingerprints index the same memo slot (found by search: the memo has
// memoSize slots, so a few thousand candidates always contain them).
func memoAliases(t *testing.T, n int) []partKey {
	t.Helper()
	bySlot := map[uint64][]partKey{}
	for i := 0; i < 64*memoSize; i++ {
		k := strKey(fmt.Sprintf("k%d", i))
		slot := k.words().fp & (memoSize - 1)
		if bySlot[slot] = append(bySlot[slot], k); len(bySlot[slot]) == n {
			return bySlot[slot]
		}
	}
	t.Fatal("no memo-aliasing keys found")
	return nil
}

// TestPartTable drives every way into the table — get under the key's
// own hash, get with all keys forced onto one hash chain, and resolve
// through the memo — with key sets chosen to collide wherever the
// table could confuse them. Each distinct key must own exactly one
// partition, in creation order, however often and in whatever order it
// is asked for.
func TestPartTable(t *testing.T) {
	typedAcc := keyAccessors([]string{"k"})
	typed := func(ev *event.Event) partKey {
		k := make(partKey, 1)
		readKey(typedAcc, ev, k)
		return k
	}
	cases := []struct {
		name string
		keys []partKey
	}{
		// TestTypedPartitionIdentity's events: what the display string
		// conflates, the table must not.
		{"missing, empty, number and numeral", []partKey{
			typed(&event.Event{Type: "A"}),
			typed(&event.Event{Type: "A", Str: map[string]string{"k": ""}}),
			typed(&event.Event{Type: "A", Str: map[string]string{"k": "5"}}),
			typed(&event.Event{Type: "A", Attrs: map[string]float64{"k": 5}}),
			typed(&event.Event{Type: "A", Str: map[string]string{"k": "other"}}),
		}},
		// Six bytes fit a word exactly; a seventh does not, and two
		// seven-byte strings that differ only there share both words and
		// the fingerprint.
		{"six and seven byte strings sharing a prefix", []partKey{
			strKey("abcdef"), strKey("abcdefg"), strKey("abcdefh"), strKey("abcde"),
		}},
		// Only the first two attributes have words.
		{"keys differing past the second attribute", []partKey{
			strKey("a", "b", "c"), strKey("a", "b", "d"), strKey("a", "b", ""),
			{{kind: pkStr, str: "a"}, {kind: pkStr, str: "b"}, {}},
			{{kind: pkStr, str: "a"}, {kind: pkStr, str: "b"}, {kind: pkNum, num: math.Float64bits(1)}},
		}},
		// A number whose bits spell a short string's word.
		{"number mimicking a string word", []partKey{
			strKey("ab"),
			{{kind: pkNum, num: strKey("ab").words().w0 ^ uint64(pkNum)<<48}},
		}},
		{"keys aliasing one memo slot", memoAliases(t, 3)},
	}
	entries := []struct {
		name string
		get  func(*partTable, partKey) *partition
		find func(*partTable, partKey) *partition
	}{
		{"own hash",
			func(tab *partTable, k partKey) *partition { return tab.get(k.hash(), k) },
			func(tab *partTable, k partKey) *partition { return tab.lookup(k.hash(), k) }},
		{"one chain",
			func(tab *partTable, k partKey) *partition { return tab.get(42, k) },
			func(tab *partTable, k partKey) *partition { return tab.lookup(42, k) }},
		{"memo",
			func(tab *partTable, k partKey) *partition { return tab.resolve(k, k.words()) },
			func(tab *partTable, k partKey) *partition { return tab.lookup(k.hash(), k) }},
		// Restore inserts decoded keys without looking them up first.
		{"restore-insert on one chain",
			func(tab *partTable, k partKey) *partition {
				if p := tab.lookup(42, k); p != nil {
					return p
				}
				return tab.add(42, k.display(), k.clone())
			},
			func(tab *partTable, k partKey) *partition { return tab.lookup(42, k) }},
	}
	for _, tc := range cases {
		for _, en := range entries {
			t.Run(tc.name+"/"+en.name, func(t *testing.T) {
				tab := bareTable(make([]string, len(tc.keys[0]))...)
				parts := make([]*partition, len(tc.keys))
				for i, k := range tc.keys {
					scratch := k.clone() // the table must not keep the caller's storage
					p := en.get(tab, scratch)
					scratch[0] = keyAttr{kind: pkStr, str: "overwritten"}
					for j, q := range parts[:i] {
						if p == q {
							t.Fatalf("key %d resolved to key %d's partition", i, j)
						}
					}
					if !p.pk.equal(k) || p.key != k.display() || p.w != k.words() {
						t.Fatalf("key %d: partition identity %+v %q %+v", i, p.pk, p.key, p.w)
					}
					parts[i] = p
				}
				// Ask again, backwards, then forwards: no new partitions.
				for round := 0; round < 2; round++ {
					for n := range tc.keys {
						i := n
						if round == 0 {
							i = len(tc.keys) - 1 - n
						}
						if p := en.get(tab, tc.keys[i]); p != parts[i] {
							t.Fatalf("round %d: key %d resolved to another partition", round, i)
						}
						if p := en.find(tab, tc.keys[i]); p != parts[i] {
							t.Fatalf("round %d: key %d looked up as another partition", round, i)
						}
					}
				}
				all := tab.all()
				if len(all) != len(parts) {
					t.Fatalf("%d partitions for %d keys", len(all), len(parts))
				}
				for i := range all {
					if all[i] != parts[i] {
						t.Fatalf("partition %d out of creation order", i)
					}
				}
				never := make(partKey, len(tc.keys[0]))
				never[0] = keyAttr{kind: pkStr, str: "never inserted"}
				if en.find(tab, never) != nil || tab.cached(never, never.words()) != nil {
					t.Fatal("a key never inserted was found")
				}
			})
		}
	}
}

// TestPartTableMemoFallsThrough pins the memo's contract: a slot holds
// the last key resolved through it, a key it no longer holds is not
// "cached" yet still resolves to its own partition through the chain,
// and the probe creates nothing.
func TestPartTableMemoFallsThrough(t *testing.T) {
	keys := memoAliases(t, 2)
	a, b := keys[0], keys[1]
	tab := bareTable("k")
	if tab.cached(a, a.words()) != nil {
		t.Fatal("empty memo answered")
	}
	pa := tab.resolve(a, a.words())
	if tab.cached(a, a.words()) != pa {
		t.Fatal("resolved key not cached")
	}
	if tab.cached(b, b.words()) != nil || len(tab.all()) != 1 {
		t.Fatal("memo probe answered or created for a key never resolved")
	}
	pb := tab.resolve(b, b.words())
	if pb == pa || tab.cached(b, b.words()) != pb {
		t.Fatal("aliasing key did not take the slot with its own partition")
	}
	if tab.cached(a, a.words()) != nil {
		t.Fatal("evicted key still cached")
	}
	if tab.resolve(a, a.words()) != pa || len(tab.all()) != 2 {
		t.Fatal("evicted key did not fall through to its chain")
	}
}

// fuzzAttr turns three fuzzed values into one attribute of a logical
// event: absent, a number, a string, or both (the string wins).
func fuzzAttr(ev *event.Event, name string, sel uint8, f float64, s string) {
	if sel&1 != 0 {
		ev.Attrs[name] = f
	}
	if sel&2 != 0 {
		ev.Str[name] = s
	}
}

// FuzzPartKey checks that a key is a function of the logical event and
// nothing else: carried in maps only, bound to a full or a partial
// schema, or copied into a batch row, an event reads as the same key,
// with the same hash (stored or fused), display string and words; that
// equal keys pack to equal words and exact words are injective; and
// that the checkpoint codec round-trips key and hash.
func FuzzPartKey(f *testing.F) {
	f.Add(uint8(3), uint8(2), 0.0, "acme", uint8(1), 5.0, "", uint8(0), 0.0, "",
		uint8(2), 0.0, "acme", uint8(2), 0.0, "5", uint8(0), 0.0, "")
	f.Add(uint8(2), uint8(2), 0.0, "abcdef", uint8(2), 0.0, "abcdefg", uint8(0), 0.0, "",
		uint8(2), 0.0, "abcdef", uint8(2), 0.0, "abcdefh", uint8(0), 0.0, "")
	f.Add(uint8(1), uint8(3), 1.5, "", uint8(0), 0.0, "", uint8(0), 0.0, "",
		uint8(1), math.NaN(), "", uint8(0), 0.0, "", uint8(0), 0.0, "")
	f.Add(uint8(2), uint8(1), math.Inf(1), "", uint8(1), math.Copysign(0, -1), "", uint8(0), 0.0, "",
		uint8(1), 1e21, "", uint8(1), 0.0, "", uint8(0), 0.0, "")
	names := []string{"a", "b", "c"}
	full := &event.Schema{Type: "T", Numeric: names, Strings: names}
	partial := &event.Schema{Type: "T", Numeric: []string{"b"}, Strings: []string{"a"}}
	f.Fuzz(func(t *testing.T, n uint8,
		s0 uint8, f0 float64, x0 string, s1 uint8, f1 float64, x1 string, s2 uint8, f2 float64, x2 string,
		u0 uint8, g0 float64, y0 string, u1 uint8, g1 float64, y1 string, u2 uint8, g2 float64, y2 string) {
		attrs := names[:1+int(n)%3]
		logical := func(sel []uint8, fs []float64, xs []string) *event.Event {
			ev := &event.Event{ID: 1, Type: "T", Time: 1, Attrs: map[string]float64{}, Str: map[string]string{}}
			for i, a := range attrs {
				fuzzAttr(ev, a, sel[i], fs[i], xs[i])
			}
			return ev
		}
		// keyOf reads one carried form with accessors of its own, and
		// checks every derived value against the map-carried form's.
		var want partKey
		keyOf := func(form string, ev *event.Event) partKey {
			acc := keyAccessors(attrs)
			k := make(partKey, len(attrs))
			readKey(acc, ev, k)
			if h := HashRoute(acc, ev); h != k.hash() {
				t.Fatalf("%s: HashRoute %x, key hash %x", form, h, k.hash())
			}
			if want != nil && (!k.equal(want) || k.hash() != want.hash() ||
				k.display() != want.display() || k.words() != want.words()) {
				t.Fatalf("%s reads %+v, maps read %+v", form, k, want)
			}
			return k
		}
		clone := func(ev *event.Event) *event.Event {
			c := *ev
			return &c
		}
		ev := logical([]uint8{s0, s1, s2}, []float64{f0, f1, f2}, []string{x0, x1, x2})
		want = keyOf("maps", ev)
		bound := clone(ev)
		full.Bind(bound)
		keyOf("bound", bound)
		half := clone(ev)
		partial.Bind(half)
		keyOf("partially bound", half)
		// A batch cannot hold a present NaN or "" (AppendEvent says so);
		// every other event must read the same from its row.
		if b := event.NewBatch(full, 1); b.AppendEvent(ev) == nil {
			keyOf("batch row", b.Row(0))
		}

		enc := checkpoint.Encode(nil)
		walkPartKey(&enc, &want, len(attrs))
		if err := enc.Err(); err != nil {
			t.Fatal(err)
		}
		var back partKey
		dec := checkpoint.Decode(enc.Out())
		walkPartKey(&dec, &back, len(attrs))
		if err := dec.Err(); err != nil || !back.equal(want) || back.hash() != want.hash() {
			t.Fatalf("codec round trip: %+v -> %+v (%v)", want, back, err)
		}

		k := want
		want = nil // the second event is its own logical event
		other := keyOf("maps", logical([]uint8{u0, u1, u2}, []float64{g0, g1, g2}, []string{y0, y1, y2}))
		kw, ow := k.words(), other.words()
		switch same := k.equal(other); {
		case same && (kw != ow || k.hash() != other.hash() || k.display() != other.display()):
			t.Fatalf("equal keys %+v differ in words, hash or display", k)
		case !same && kw.exact && ow.exact && kw.w0 == ow.w0 && kw.w1 == ow.w1:
			t.Fatalf("exact words %x %x shared by distinct keys %+v and %+v", kw.w0, kw.w1, k, other)
		}
		// The table agrees with equal, collisions or not.
		tab := bareTable(attrs...)
		if p, q := tab.resolve(k, kw), tab.resolve(other, ow); (p == q) != k.equal(other) {
			t.Fatalf("table: keys %+v and %+v share=%v", k, other, p == q)
		}
	})
}
