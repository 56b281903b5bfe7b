package netstream

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/greta-cep/greta"
)

// carvedSince returns the events carved off a session's event slab
// between two reads of it, prev and cur, in carving order, and whether
// the slab was replaced in between. One call replaces it at most once: a
// new slab holds every row still to carve.
func carvedSince(prev, cur []greta.Event) (evs []*greta.Event, refilled bool) {
	if refilled = cap(prev) == 0 || &prev[:1][0] != &cur[:1][0]; refilled {
		for i := len(prev); i < cap(prev); i++ {
			evs = append(evs, &prev[:cap(prev)][i])
		}
		prev = cur[:0]
	}
	for i := len(prev); i < len(cur); i++ {
		evs = append(evs, &cur[i])
	}
	return evs, refilled
}

// slabWant is one event as encoding/json reads it off the wire.
type slabWant struct {
	id    uint64
	typ   string
	time  int64
	attrs map[string]float64
	strs  map[string]string
}

// checkSlabEvent compares an event the session carved with what
// encoding/json read, and checks that its slots have no spare capacity.
func checkSlabEvent(t *testing.T, ev *greta.Event, w slabWant) {
	t.Helper()
	if ev.ID != w.id || string(ev.Type) != w.typ || ev.Time != w.time || ev.Sch == nil ||
		len(ev.Num) != len(w.attrs) || len(ev.Sch.Numeric) != len(w.attrs) || len(ev.StrV) != len(w.strs) || len(ev.Sch.Strings) != len(w.strs) {
		t.Fatalf("event %d: carved %+v, encoding/json %+v", w.id, ev, w)
	}
	if cap(ev.Num) != len(ev.Num) || cap(ev.StrV) != len(ev.StrV) {
		t.Fatalf("event %d: slots have spare capacity: Num %d/%d, StrV %d/%d", w.id, len(ev.Num), cap(ev.Num), len(ev.StrV), cap(ev.StrV))
	}
	for k, a := range ev.Sch.Numeric {
		if v, ok := w.attrs[a]; !ok || math.Float64bits(v) != math.Float64bits(ev.Num[k]) {
			t.Fatalf("event %d: attr %q = %v, encoding/json %v (present %v)", w.id, a, ev.Num[k], v, ok)
		}
	}
	for k, a := range ev.Sch.Strings {
		if v, ok := w.strs[a]; !ok || v != ev.StrV[k] {
			t.Fatalf("event %d: str %q = %q, encoding/json %q (present %v)", w.id, a, ev.StrV[k], v, ok)
		}
	}
}

// TestSessionSlabEvents: event lines of two shapes (two numeric and two
// string slots; three numeric and none) interleaved with shard frames of
// 1, 63, 64, 65 and 512 rows carve their events off one session's slabs,
// across several slab replacements. Every event's slots are cut to their
// length, so an append to one cannot reach its neighbours, and ids,
// times and values are what encoding/json reads off the same lines.
func TestSessionSlabEvents(t *testing.T) {
	sess, conn := hotSession(t)
	if sess.handle(conn, &record{kind: recWire, we: WireEvent{Cmd: "shard", Seq: 1, Count: 1, Workers: []int{0}}}) || sess.shard == nil {
		t.Fatal("shard handshake refused")
	}
	var (
		enc      eventEncoder
		el       eventLine
		rec      record
		evs      []*greta.Event
		wants    []slabWant
		refills  int
		seq, nth uint64 = 1, 0
	)
	carved := func(prev []greta.Event, n int) []*greta.Event {
		got, refilled := carvedSince(prev, sess.evSlab)
		if len(got) != n {
			t.Fatalf("carved %d events, want %d", len(got), n)
		}
		if refilled {
			refills++
		}
		evs = append(evs, got...)
		return got
	}
	sendLine := func() {
		nth++
		typ, tm, attrs, strs := hotEvent(int(nth))
		if nth%2 == 0 {
			typ, attrs, strs = "Tick", map[string]float64{"a": float64(nth), "b": -float64(nth) / 3, "c": 1e-9 * float64(nth)}, nil
		}
		line, err := enc.appendLine(nil, 0, typ, tm, attrs, strs)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1]
		var we WireEvent
		if err := json.Unmarshal(line, &we); err != nil || !el.parse(line) {
			t.Fatalf("%q: encoding/json %v, fast parser declined", line, err)
		}
		prev := sess.evSlab
		sess.mu.Lock()
		sess.evID++
		ev := sess.bindLocked(&el, sess.evID)
		sess.mu.Unlock()
		if got := carved(prev, 1); got[0] != ev {
			t.Fatal("bindLocked returned an event other than the one it carved")
		}
		wants = append(wants, slabWant{sess.evID, we.Type, we.Time, we.Attrs, we.Str})
	}
	sendFrame := func(rows int) {
		seq++
		_, line := hotFrame(t, seq, "Quote", rows, true)
		var we WireEvent
		if err := json.Unmarshal(line, &we); err != nil {
			t.Fatalf("%d-row frame: encoding/json %v", rows, err)
		}
		if rec.decode(line); rec.kind != recBatch {
			t.Fatalf("%d-row frame: fast parser declined", rows)
		}
		prev, id := sess.evSlab, sess.evID
		if sess.handle(conn, &rec) || sess.lastSeq != seq {
			t.Fatalf("%d-row frame %d not applied", rows, seq)
		}
		carved(prev, rows)
		for i, tm := range we.Times {
			w := slabWant{id + uint64(i) + 1, we.Type, tm, map[string]float64{}, map[string]string{}}
			for a, col := range we.Cols {
				w.attrs[a] = col[i]
			}
			for a, col := range we.SCols {
				w.strs[a] = col[i]
			}
			wants = append(wants, w)
		}
	}
	for round := 0; round < 2; round++ {
		for _, rows := range []int{1, 63, 64, 65, 512} {
			for i := 0; i < 3; i++ {
				sendLine()
			}
			sendFrame(rows)
		}
	}
	if refills < 3 {
		t.Fatalf("%d slab replacements, want at least 3", refills)
	}
	checkAll := func(when string) {
		t.Helper()
		for i, ev := range evs {
			if wants[i].id != uint64(i)+1 {
				t.Fatalf("%s: event %d has id %d", when, i, wants[i].id)
			}
			checkSlabEvent(t, ev, wants[i])
		}
	}
	checkAll("carved")
	for _, ev := range evs {
		num, strv := append(ev.Num, math.Inf(1)), append(ev.StrV, "appended")
		if len(num) != len(ev.Num)+1 || len(strv) != len(ev.StrV)+1 {
			t.Fatal("append lost its element")
		}
	}
	checkAll("after an append to every event")
}
