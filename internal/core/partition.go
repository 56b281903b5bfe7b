// Partition identity and lifecycle. The paper (§6) partitions the
// stream by the GROUP-BY and equivalence attributes and keeps one set
// of GRETA graphs per sub-stream, so "which partition is this event's"
// is the first decision of every event on every entry point. This file
// is its only owner: how a key is read off an event, hashed, compared,
// packed into memo words and rendered; and the table that maps keys to
// partitions.
//
// Partition identity is typed: a missing attribute, an empty-string
// value, and a numeric value are three distinct keys. This is
// deliberately stricter than the display rendering, which conflates
// missing with "" and Str "5" with Attrs 5 — those degenerate keys do
// not share a partition (TestTypedPartitionIdentity locks this in).
package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/greta-cep/greta/internal/event"
)

// partition holds the dependent GRETA graphs of one stream partition
// (one combination of grouping and equivalence attribute values).
type partition struct {
	graphs []*Graph
	// group is the output grouping key (GROUP-BY attributes only).
	group string
	// key is the interned display form of the partition key, built once
	// at creation (debug rendering and deterministic iteration order).
	key string
	// pk is the typed key; w its packed words (see partKey.words).
	pk partKey
	w  keyWords
}

// keyAttr is one partitioning attribute's value: a string (str), a
// number (num, the float's bit pattern — matching the hash) or
// missing. The field a kind does not use stays zero, so two keyAttrs
// are the same value exactly when they are == .
type keyAttr struct {
	kind uint8
	num  uint64
	str  string
}

const (
	pkMissing uint8 = iota
	pkNum
	pkStr
)

// partKey is the typed identity of a partition: one entry per
// partitioning attribute, in plan order.
type partKey []keyAttr

// readAttr reads one partitioning attribute of ev. It is the one place
// that decides what an event's value for such an attribute is — a
// string value wins over a number, and what the accessor reports absent
// (no map entry; for a map-free batch row a "" or NaN dense slot) is
// missing — for map-carried, schema-bound and batch-row events alike.
func readAttr(a *event.Accessor, ev *event.Event) keyAttr {
	if s, ok := a.Str(ev); ok {
		return keyAttr{kind: pkStr, str: s}
	}
	if f, ok := a.Float(ev); ok {
		return keyAttr{kind: pkNum, num: math.Float64bits(f)}
	}
	return keyAttr{}
}

// readKey reads ev's partition key into k, one entry per accessor
// (len(k) == len(acc)).
func readKey(acc []event.Accessor, ev *event.Event, k partKey) {
	for i := range acc {
		k[i] = readAttr(&acc[i], ev)
	}
}

// hashOffset starts, and keyAttr.hash continues, FNV-1a over the
// kind-tagged values of a key.
const hashOffset = uint64(14695981039346656037)

func (a *keyAttr) hash(h uint64) uint64 {
	h = hashByte(h, a.kind)
	switch a.kind {
	case pkStr:
		for j := 0; j < len(a.str); j++ {
			h = hashByte(h, a.str[j])
		}
	case pkNum:
		for v, j := a.num, 0; j < 8; j++ {
			h = hashByte(h, uint8(v))
			v >>= 8
		}
	}
	return h
}

// hash is the key's routing hash. Checkpoints do not store it: a
// restored partition is re-chained under the hash of its decoded key,
// which is where a live event carrying that key probes.
func (k partKey) hash() uint64 {
	h := hashOffset
	for i := range k {
		h = k[i].hash(h)
	}
	return h
}

// HashRoute is readKey(acc, ev).hash() with no key stored: the Runtime,
// RunParallel and a cluster coordinator compute it once per distinct
// partition-attribute signature and forward it to every engine sharing
// that signature (ProcessRouted); workers and shards never rehash.
func HashRoute(acc []event.Accessor, ev *event.Event) uint64 {
	h := hashOffset
	for i := range acc {
		a := readAttr(&acc[i], ev)
		h = a.hash(h)
	}
	return h
}

func hashByte(h uint64, b uint8) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

// equal reports whether k and o are the same key, kind and value.
func (k partKey) equal(o partKey) bool { return slices.Equal(k, o) }

// clone returns a copy that does not alias k's storage.
func (k partKey) clone() partKey { return slices.Clone(k) }

// display renders the key for result grouping and debugging: values
// joined by \x1f, numbers in %g form, missing as the empty string.
func (k partKey) display() string {
	var b strings.Builder
	for i := range k {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		switch a := &k[i]; a.kind {
		case pkStr:
			b.WriteString(a.str)
		case pkNum:
			fmt.Fprintf(&b, "%g", math.Float64frombits(a.num))
		}
	}
	return b.String()
}

// groupPrefix returns the prefix of a display key that covers its first
// n of total \x1f-separated segments — the GROUP-BY attributes lead the
// partition-attribute list, so the group string is a substring of the
// key (no extra interning).
func groupPrefix(key string, n, total int) string {
	if n == 0 {
		return ""
	}
	if n >= total {
		return key
	}
	seen := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			seen++
			if seen == n {
				return key[:i]
			}
		}
	}
	return key
}

// keyWords is a key packed for cheap comparison: the first two
// attributes as one word each, plus a fingerprint folded over every
// attribute (the memo index).
type keyWords struct {
	fp, w0, w1 uint64
	exact      bool
}

// words packs k. Words are prefix-faithful — equal keys always produce
// equal words, so a word mismatch is a definitive key mismatch. When
// exact is true (at most two attributes, each a string of six or fewer
// bytes or missing) the words are also injective: equal words of two
// exact keys PROVE equal keys, and no value compare is needed. Longer
// strings, numbers, and wider keys clear exact. A string word packs
// length<<56 | kind<<48 | up to six leading bytes; a number uses the
// raw float bits XOR a kind marker (float bits can mimic any pattern,
// hence inexact); missing uses the bare kind marker (top byte zero,
// disjoint from every string).
func (k partKey) words() keyWords {
	const mix = 0x9E3779B97F4A7C15
	w := keyWords{fp: 0x2545F4914F6CDD1D, exact: len(k) <= 2}
	for i := range k {
		a := &k[i]
		x := uint64(pkMissing)
		switch a.kind {
		case pkStr:
			x = uint64(len(a.str))<<56 | uint64(pkStr)<<48
			for j := 0; j < len(a.str) && j < 6; j++ {
				x |= uint64(a.str[j]) << (8 * j)
			}
			if len(a.str) > 6 {
				w.exact = false
			}
		case pkNum:
			x = a.num ^ uint64(pkNum)<<48
			w.exact = false
		}
		w.fp = (w.fp ^ x) * mix
		if i == 0 {
			w.w0 = x
		} else if i == 1 {
			w.w1 = x
		}
	}
	// Fold the high half down: multiplication only carries differences
	// upward, and the memo indexes by the low bits.
	w.fp ^= w.fp >> 32
	return w
}

// has reports whether k, whose words are w, is p's key: by the words
// alone when both sides are exact, value for value otherwise.
func (p *partition) has(k partKey, w keyWords) bool {
	return w.w0 == p.w.w0 && w.w1 == p.w.w1 && (w.exact && p.w.exact || k.equal(p.pk))
}

// memoSize is the direct-mapped memo's slot count (power of two; 8KB
// per engine — sized so the Linear Road shapes' ~1k live partitions
// mostly stay resident).
const memoSize = 1024

// partTable maps partition keys to partitions. Routing is hash-first:
// chains maps the 64-bit key hash to its (almost always singleton)
// collision chain, and two distinct keys landing on one hash are told
// apart by comparing the typed keys. The batch path front-runs the
// chain probe with a direct-mapped memo indexed by the key
// fingerprint, exploiting key locality within a batch.
//
// Partitions are never removed. The memo rests on that (a slot stays
// valid for the table's lifetime and is never invalidated), and so
// does every *partition a caller holds across events.
type partTable struct {
	// acc reads the partitioning attributes and key is the scratch they
	// are read into: one owner, one event at a time, nothing allocated
	// per event.
	acc []event.Accessor
	key partKey
	// wire attaches what the table does not know — the graphs and the
	// output group — to a partition whose identity fields are set.
	wire func(*partition)

	chains map[uint64][]*partition
	list   []*partition // creation order
	memo   [memoSize]*partition
}

func newPartTable(attrs []string, wire func(*partition)) partTable {
	return partTable{acc: keyAccessors(attrs), key: make(partKey, len(attrs)), wire: wire,
		chains: map[uint64][]*partition{}}
}

// keyAccessors returns one accessor per partitioning attribute, the acc
// argument of readKey and HashRoute. Accessors cache schema slots, so
// every reader owns its set.
func keyAccessors(attrs []string) []event.Accessor {
	acc := make([]event.Accessor, len(attrs))
	for i, a := range attrs {
		acc[i] = event.NewAccessor(a)
	}
	return acc
}

// read returns ev's key in the table's scratch, valid until the next
// read.
func (t *partTable) read(ev *event.Event) partKey {
	readKey(t.acc, ev, t.key)
	return t.key
}

// lookup returns the partition keyed k on hash chain h, or nil.
func (t *partTable) lookup(h uint64, k partKey) *partition {
	for _, p := range t.chains[h] {
		if k.equal(p.pk) {
			return p
		}
	}
	return nil
}

// add creates the partition keyed pk (which the partition keeps) on
// chain h; display is pk.display(), passed in because a checkpoint
// carries it.
func (t *partTable) add(h uint64, display string, pk partKey) *partition {
	p := &partition{key: display, pk: pk, w: pk.words()}
	t.wire(p)
	t.chains[h] = append(t.chains[h], p)
	t.list = append(t.list, p)
	return p
}

// get returns (creating if needed) the partition keyed k; h must be
// k.hash(). The display key is interned here, once per partition —
// never on the per-event path.
func (t *partTable) get(h uint64, k partKey) *partition {
	if p := t.lookup(h, k); p != nil {
		return p
	}
	return t.add(h, k.display(), k.clone())
}

// cached is the memo-only probe: the partition keyed k if the memo
// slot of its fingerprint holds it, else nil. Creates nothing.
func (t *partTable) cached(k partKey, w keyWords) *partition {
	if p := t.memo[w.fp&(memoSize-1)]; p != nil && p.has(k, w) {
		return p
	}
	return nil
}

// resolve is get behind the memo: only a memo miss pays the routing
// hash and the chain probe, and it refills the slot.
func (t *partTable) resolve(k partKey, w keyWords) *partition {
	if p := t.cached(k, w); p != nil {
		return p
	}
	p := t.get(k.hash(), k)
	t.memo[w.fp&(memoSize-1)] = p
	return p
}

// all returns every partition in creation order; read-only.
func (t *partTable) all() []*partition { return t.list }
