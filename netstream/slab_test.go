package netstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime/debug"
	"slices"
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

// shardSession is hotSession in shard mode hosting worker slot 0, with
// unit 0 registered for query on route group 0 when query is not empty.
// The frames' rows are Quote events at their frame's seq.
func shardSession(t *testing.T, query string) (*session, net.Conn, uint64) {
	t.Helper()
	sess, conn := hotSession(t)
	if sess.handle(conn, &record{kind: recWire, we: WireEvent{Cmd: "shard", Seq: 1, Count: 1, Workers: []int{0}}}) || sess.shard == nil {
		t.Fatal("shard handshake refused")
	}
	if query == "" {
		return sess, conn, 1
	}
	if sess.handle(conn, &record{kind: recWire, we: WireEvent{Cmd: "sreg", Seq: 2, Query: query, ID: "u0"}}) || len(sess.shard.hosts[0].Units()) != 1 {
		t.Fatalf("unit %q not registered", query)
	}
	return sess, conn, 2
}

// TestSessionSlabEvents: event lines of two shapes (two numeric and two
// string slots; three numeric and none) interleaved with shard frames of
// 1, 63, 64, 65 and 512 rows carve their events off one session's slabs,
// across several slab replacements. Every event's slots are cut to their
// length, so an append to one cannot reach its neighbours, and ids,
// times and values are what encoding/json reads off the same lines. The
// slot's unit has an unbounded window, so the session's horizon never
// passes an event and no slab is reused: every event stays checkable to
// the end. The reused row moves the horizon past retired slabs, and the
// lines row holds an ordinary session's results to an in-process
// runtime's while its slabs are reused.
func TestSessionSlabEvents(t *testing.T) {
	t.Run("held", testSlabsHeld)
	t.Run("reused", testSlabsReused)
	t.Run("lines", testSlabsLines)
}

func testSlabsHeld(t *testing.T) {
	sess, conn, seq := shardSession(t, "RETURN COUNT(*) PATTERN Quote Q WHERE [company]")
	var (
		enc     eventEncoder
		el      eventLine
		rec     record
		evs     []*greta.Event
		wants   []slabWant
		refills int
		nth     uint64
	)
	carved := func(prev []greta.Event, n int) []*greta.Event {
		got, refilled := carvedSince(prev, sess.evs.cur)
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
		prev := sess.evs.cur
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
		prev, id := sess.evs.cur, sess.evID
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

// testSlabsReused feeds 32-row frames, each at its seq's time, to a unit
// whose window (WITHIN 4 SLIDE 2) moves the session's horizon past them:
// after a few frames every slab the carver moves to is a retired one,
// and each comes back cleared in full — the part no row has been carved
// off yet is zero — while every event still at or past the horizon keeps
// its values. The collector is held off, so no retired slab is reclaimed
// under the count.
func testSlabsReused(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sess, conn, seq := shardSession(t, "RETURN COUNT(*) PATTERN Quote Q WHERE [company] WITHIN 4 SLIDE 2")
	var (
		rec          record
		evs          []*greta.Event
		wants        []slabWant
		bases        = map[*greta.Event]bool{}
		fresh, again int
	)
	const frames, rows = 60, 32
	for f := 0; f < frames; f++ {
		seq++
		_, line := hotFrame(t, seq, "Quote", rows, true)
		var we WireEvent
		if err := json.Unmarshal(line, &we); err != nil {
			t.Fatal(err)
		}
		if rec.decode(line); rec.kind != recBatch {
			t.Fatal("fast parser declined a frame")
		}
		prev, id := sess.evs.cur, sess.evID
		if sess.handle(conn, &rec) || sess.lastSeq != seq {
			t.Fatalf("frame %d not applied", seq)
		}
		got, refilled := carvedSince(prev, sess.evs.cur)
		if len(got) != rows {
			t.Fatalf("frame %d: carved %d events, want %d", seq, len(got), rows)
		}
		for i, tm := range we.Times {
			w := slabWant{id + uint64(i) + 1, we.Type, tm, map[string]float64{}, map[string]string{}}
			for a, col := range we.Cols {
				w.attrs[a] = col[i]
			}
			for a, col := range we.SCols {
				w.strs[a] = col[i]
			}
			evs, wants = append(evs, got[i]), append(wants, w)
		}
		cur := sess.evs.cur
		for i, ev := range cur[len(cur):cap(cur)] {
			if ev.ID != 0 || ev.Time != 0 || ev.Sch != nil || ev.Num != nil || ev.StrV != nil {
				t.Fatalf("frame %d: slab element %d past the carved ones is not cleared: %+v", seq, len(cur)+i, ev)
			}
		}
		if refilled {
			if base := &cur[:1][0]; bases[base] {
				again++
			} else {
				bases[base] = true
				if f >= frames/2 {
					t.Errorf("frame %d: a new event slab in the steady state", seq)
				}
				fresh++
			}
		}
		sess.mu.Lock()
		h := sess.horizonLocked()
		sess.mu.Unlock()
		if h <= int64(seq)-8 || h > int64(seq) {
			t.Fatalf("frame %d: horizon %d, want it within the unit's open windows", seq, h)
		}
		for i, ev := range evs {
			if wants[i].time >= h {
				checkSlabEvent(t, ev, wants[i])
			}
		}
	}
	t.Logf("%d new event slabs, %d reused, over %d frames", fresh, again, frames)
	if again == 0 || fresh > 6 {
		t.Fatalf("%d new event slabs and %d reused over %d frames, want a few new and the rest reused", fresh, again, frames)
	}
}

// testSlabsLines feeds event lines to an ordinary session whose
// statement is on the scan path (an inequality is no range, so nothing
// folds: each event reads every candidate predecessor's event off the
// slabs) and holds
// its results to an in-process runtime fed the same events with their
// own storage: a slab reused while a window still held one of its
// events would change them. The stream fills dozens of slabs, and the
// carver must have reused some.
func testSlabsLines(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price != NEXT(S).price WITHIN 20 SLIDE 10"
	stmt, err := greta.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Statements: []*greta.Statement{stmt}}
	conn := discardConn{}
	w := bufio.NewWriter(conn)
	sess := srv.newSession(conn, w, json.NewEncoder(w))
	if sess == nil {
		t.Fatal("no session")
	}
	ref := greta.NewRuntime()
	h, err := ref.Register(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var (
		enc   eventEncoder
		rec   record
		bases = map[*greta.Event]bool{}
		slabs int
	)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		// Three companies, small random prices, four events a time unit:
		// every window holds unclosed vertices a later event can extend.
		typ, tm := "Stock", int64(i/4)
		attrs := map[string]float64{"price": float64(1 + rng.Intn(8))}
		strs := map[string]string{"company": fmt.Sprintf("c%d", rng.Intn(3))}
		line, err := enc.appendLine(nil, 0, typ, tm, attrs, strs)
		if err != nil {
			t.Fatal(err)
		}
		if rec.decode(line[:len(line)-1]); rec.kind != recEvent {
			t.Fatalf("fast parser declined %q", line)
		}
		if sess.handle(conn, &rec) {
			t.Fatal("session stopped")
		}
		if cur := sess.evs.cur; len(cur) == 1 {
			slabs++
			bases[&cur[0]] = true
		}
		if err := ref.Process(&greta.Event{ID: uint64(i + 1), Type: greta.Type(typ), Time: tm, Attrs: attrs, Str: strs}); err != nil {
			t.Fatal(err)
		}
	}
	reused := slabs - len(bases)
	t.Logf("%d event slabs carved, %d of them reused", slabs, reused)
	if reused == 0 || slabs < 40 {
		t.Fatalf("%d slabs carved, %d of them reused: the stream must fill many and reuse some", slabs, reused)
	}
	sess.mu.Lock()
	hs := sess.handles[sess.order[0]]
	sess.teardownLocked() // closes the runtime: the open windows flush, as ref's do
	sess.mu.Unlock()
	got := hs.Delivered()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	want := h.Delivered()
	if len(want) < 20 {
		t.Fatalf("the reference emitted %d results: too few to compare", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("session emitted %d results, the in-process runtime %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Group != want[i].Group || got[i].Wid != want[i].Wid || !slices.Equal(got[i].Values, want[i].Values) {
			t.Fatalf("result %d: session %+v, in-process runtime %+v", i, got[i], want[i])
		}
	}
}
