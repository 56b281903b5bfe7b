package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/greta-cep/greta/internal/event"
)

func mk(id uint64, t event.Time) *event.Event {
	return &event.Event{ID: id, Type: "A", Time: t}
}

func TestInOrderPassThrough(t *testing.T) {
	var got []event.Time
	b := New(0, func(e *event.Event) { got = append(got, e.Time) })
	for i := 1; i <= 5; i++ {
		b.Push(mk(uint64(i), event.Time(i)))
	}
	b.Flush()
	for i, tm := range got {
		if tm != event.Time(i+1) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if b.Dropped() != 0 {
		t.Errorf("dropped = %d", b.Dropped())
	}
}

func TestReordersWithinSlack(t *testing.T) {
	var got []event.Time
	b := New(5, func(e *event.Event) { got = append(got, e.Time) })
	for _, tm := range []event.Time{3, 1, 2, 7, 5, 4, 10, 9} {
		b.Push(mk(uint64(tm), tm))
	}
	b.Flush()
	want := []event.Time{1, 2, 3, 4, 5, 7, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if b.Dropped() != 0 {
		t.Errorf("dropped = %d", b.Dropped())
	}
}

func TestDropsBeyondSlack(t *testing.T) {
	var got []event.Time
	b := New(2, func(e *event.Event) { got = append(got, e.Time) })
	b.Push(mk(1, 10)) // maxSeen 10, horizon 8
	b.Push(mk(2, 20)) // horizon 18: releases 10
	b.Push(mk(3, 5))  // before released horizon 10: dropped
	b.Flush()
	if b.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", b.Dropped())
	}
	if len(got) != 2 {
		t.Errorf("released %v", got)
	}
}

// TestQuickOrdered: whatever the arrival permutation within slack, the
// output is non-decreasing in time.
func TestQuickOrdered(t *testing.T) {
	f := func(seed int64, nRaw uint8, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		slack := event.Time(slackRaw % 20)
		var prev event.Time = -1
		ok := true
		b := New(slack, func(e *event.Event) {
			if e.Time < prev {
				ok = false
			}
			prev = e.Time
		})
		base := event.Time(0)
		for i := 0; i < n; i++ {
			base += event.Time(rng.Intn(3))
			jitter := event.Time(rng.Intn(int(slack) + 1))
			tm := base - jitter
			if tm < 0 {
				tm = 0
			}
			b.Push(mk(uint64(i), tm))
			if !ok {
				return false
			}
		}
		b.Flush()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPending(t *testing.T) {
	b := New(100, func(*event.Event) {})
	b.Push(mk(1, 1))
	b.Push(mk(2, 2))
	if b.Pending() != 2 {
		t.Errorf("pending = %d", b.Pending())
	}
	b.Flush()
	if b.Pending() != 0 {
		t.Errorf("pending after flush = %d", b.Pending())
	}
}

// TestEqualTimestampArrivalOrder pins the arrival tiebreak: events
// sharing a timestamp drain in the order they arrived, regardless of
// their IDs (before the arrival counter the heap tie-broke on ID, so
// same-timestamp events could drain in ID order, not arrival order).
func TestEqualTimestampArrivalOrder(t *testing.T) {
	var got []uint64
	b := New(10, func(e *event.Event) { got = append(got, e.ID) })
	// Descending IDs with equal timestamps: arrival order 9,7,5; an
	// ID-ordered heap would emit 5,7,9.
	b.Push(mk(9, 3))
	b.Push(mk(7, 3))
	b.Push(mk(5, 3))
	b.Push(mk(1, 2)) // earlier time, later arrival: still drains first
	b.Flush()
	want := []uint64{1, 9, 7, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

// TestFlushMidDisorder: a barrier Flush in the middle of a disordered
// burst releases everything buffered, in order, and the buffer keeps
// working afterwards.
func TestFlushMidDisorder(t *testing.T) {
	var got []event.Time
	b := New(10, func(e *event.Event) { got = append(got, e.Time) })
	for _, tm := range []event.Time{8, 3, 6} {
		b.Push(mk(uint64(tm), tm))
	}
	b.Flush() // barrier: 3, 6, 8 out even though slack would hold them
	if len(got) != 3 || got[0] != 3 || got[1] != 6 || got[2] != 8 {
		t.Fatalf("after barrier flush: %v", got)
	}
	// The flush advanced released to 8 but the horizon stays maxSeen -
	// slack: a later event at 5 is still within slack of maxSeen 8.
	if !b.Push(mk(9, 5)) {
		t.Fatal("event within slack rejected after barrier flush")
	}
	b.Push(mk(10, 20))
	b.Flush()
	if len(got) != 5 || got[3] != 5 || got[4] != 20 {
		t.Fatalf("after resume: %v", got)
	}
	if b.Dropped() != 0 {
		t.Errorf("dropped = %d", b.Dropped())
	}
}

// TestDroppedAccounting: drops accumulate across slack boundaries as
// the horizon advances, and accepted events never count.
func TestDroppedAccounting(t *testing.T) {
	b := New(5, func(*event.Event) {})
	b.Push(mk(1, 100)) // horizon 95
	if b.Push(mk(2, 94)) {
		t.Fatal("event below horizon accepted")
	}
	if b.Push(mk(3, 90)) {
		t.Fatal("event below horizon accepted")
	}
	if !b.Push(mk(4, 95)) {
		t.Fatal("event at horizon rejected")
	}
	b.Push(mk(5, 200)) // horizon 195
	if b.Push(mk(6, 100)) {
		t.Fatal("event below advanced horizon accepted")
	}
	if b.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", b.Dropped())
	}
	if b.Horizon() != 195 {
		t.Errorf("horizon = %d, want 195", b.Horizon())
	}
}

// TestZeroSlackPassthrough: slack 0 releases every event as soon as a
// newer timestamp arrives and drops anything strictly older than the
// maximum seen.
func TestZeroSlackPassthrough(t *testing.T) {
	var got []event.Time
	b := New(0, func(e *event.Event) { got = append(got, e.Time) })
	b.Push(mk(1, 1))
	b.Push(mk(2, 2))
	b.Push(mk(3, 2)) // tie with maxSeen: accepted, released immediately
	if b.Push(mk(4, 1)) {
		t.Fatal("stale event accepted at zero slack")
	}
	b.Flush()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
	if b.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", b.Dropped())
	}
}

// oracleDrain replays an arrival sequence through the drop rule and a
// stable sort — the specification the heap must match: accepted events
// come out sorted by time, ties in arrival order.
func oracleDrain(evs []*event.Event, slack event.Time) (out []*event.Event, dropped uint64) {
	maxSeen := event.Time(-1)
	type rec struct {
		ev  *event.Event
		arr int
	}
	var kept []rec
	for i, e := range evs {
		if e.Time < maxSeen-slack {
			dropped++
			continue
		}
		kept = append(kept, rec{e, i})
		if e.Time > maxSeen {
			maxSeen = e.Time
		}
	}
	sortStable := func(i, j int) bool {
		if kept[i].ev.Time != kept[j].ev.Time {
			return kept[i].ev.Time < kept[j].ev.Time
		}
		return kept[i].arr < kept[j].arr
	}
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && sortStable(j, j-1); j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	for _, r := range kept {
		out = append(out, r.ev)
	}
	return out, dropped
}

// TestQuickOracle pins the full drain order (not just monotonicity)
// against the sort-based oracle, including equal-timestamp ties and
// drop accounting.
func TestQuickOracle(t *testing.T) {
	f := func(seed int64, nRaw uint8, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 1
		slack := event.Time(slackRaw % 12)
		evs := make([]*event.Event, n)
		base := event.Time(0)
		for i := 0; i < n; i++ {
			base += event.Time(rng.Intn(3))
			// Jitter past the slack sometimes, to exercise drops.
			tm := base - event.Time(rng.Intn(int(slack)+4))
			if tm < 0 {
				tm = 0
			}
			evs[i] = mk(uint64(rng.Intn(16)), tm) // colliding IDs on purpose
		}
		want, wantDropped := oracleDrain(evs, slack)
		var got []*event.Event
		b := New(slack, func(e *event.Event) { got = append(got, e) })
		for _, e := range evs {
			b.Push(e)
		}
		b.Flush()
		if b.Dropped() != wantDropped || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotRestore: a restored buffer releases the pending events in
// the original order and treats an arrival suffix exactly as the
// original would have — including drops decided by the restored
// horizon — and Snapshot of a restored buffer is canonical (identical
// pending order).
func TestSnapshotRestore(t *testing.T) {
	feedPrefix := func(b *Buffer) {
		for i, tm := range []event.Time{10, 4, 7, 7, 20, 15, 18} {
			b.Push(mk(uint64(i)+1, tm))
		}
	}
	var ref []event.Time
	orig := New(8, func(e *event.Event) { ref = append(ref, e.Time) })
	feedPrefix(orig)

	snap := orig.Snapshot(nil)
	if snap.MaxSeen != 20 || snap.Slack != 8 {
		t.Fatalf("snapshot watermarks: %+v", snap)
	}
	if len(snap.Pending) == 0 {
		t.Fatal("expected pending events in snapshot")
	}
	resnap := Restore(snap, func(*event.Event) {}).Snapshot(nil)
	if len(resnap.Pending) != len(snap.Pending) {
		t.Fatalf("round-trip pending %d != %d", len(resnap.Pending), len(snap.Pending))
	}
	for i := range snap.Pending {
		if resnap.Pending[i] != snap.Pending[i] {
			t.Fatalf("round-trip pending order differs at %d", i)
		}
	}

	var res []event.Time
	restored := Restore(snap, func(e *event.Event) { res = append(res, e.Time) })
	suffix := []event.Time{11, 25, 19, 30} // 11 < horizon 12: dropped in both
	for _, tm := range suffix {
		orig.Push(mk(uint64(tm)+100, tm))
		restored.Push(mk(uint64(tm)+100, tm))
	}
	orig.Flush()
	restored.Flush()
	// The restored run replays only the suffix; the original's full
	// output is prefix releases + the same tail.
	tail := ref[len(ref)-len(res):]
	for i := range res {
		if res[i] != tail[i] {
			t.Fatalf("restored tail %v, want %v", res, tail)
		}
	}
	if restored.Dropped() != orig.Dropped() {
		t.Fatalf("dropped %d != %d", restored.Dropped(), orig.Dropped())
	}
}
