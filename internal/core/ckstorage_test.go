package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// TestCheckpointStorageReuse: a boundary encodes into the storage the
// last snapshot left behind, so in the steady state it allocates a small
// fraction of what it writes; the spare is held only weakly, and a
// snapshot encoded into it reads the same as one encoded into new
// storage; and a snapshot taken while a write is in flight leaves that
// write's parts alone (the test sink fails the test at Wait otherwise).
func TestCheckpointStorageReuse(t *testing.T) {
	const (
		every = 200 // a multiple of the slide: each boundary sees the same state
		rate  = 4   // events a time unit
		slack = 3
	)
	rt := NewRuntime(WithReorderSlack(slack), rcDiscard(t, every))
	rcRegister(t, rt, "a", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 400 SLIDE 100", aggregate.ModeNative, StmtConfig{NoRetain: true})
	t.Cleanup(func() { _ = rt.Close() })

	// The stream is made before anything is measured: the runtime keeps
	// the events it is handed.
	const boundaries = 12
	evs := make([]*event.Event, (boundaries+4)*every*rate)
	for i := range evs {
		evs[i] = allocStockEvent(uint64(i+1), event.Time(i/rate), []string{"c0", "c1", "c2"}[i%3], float64(100-i%13))
	}
	debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(100) })

	// Warm up over three boundaries: the windows fill, and the spare grows
	// to the steady snapshot's size. Twelve boundaries are measured.
	i := 0
	feedTo := func(t event.Time) {
		for ; evs[i].Time < t; i++ {
			if err := rt.Process(evs[i]); err != nil {
				panic(err)
			}
		}
	}
	feedTo(3*every + slack + 1)
	var ms runtime.MemStats
	for b := event.Time(4); b < 4+boundaries; b++ {
		feedTo(b * every)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		// The release of the first event at the boundary fires it, once
		// an event slack later has arrived.
		feedTo(b*every + slack + 1)
		runtime.ReadMemStats(&ms)
		if rt.ck.next != (b+1)*every {
			t.Fatalf("no checkpoint at boundary %d", b*every)
		}
		if got, size := ms.TotalAlloc-before, rt.ckSize; got*20 > uint64(size) {
			t.Fatalf("boundary %d allocated %d bytes for a %d-byte snapshot, want at most 5%%", b*every, got, size)
		}
	}

	// A write is in flight: a snapshot taken now must encode elsewhere.
	// The next Wait (CheckpointNow settles it) fails the test if the
	// write's parts changed.
	ckEncode(t, rt, rt.watermark+1)
	if err := rt.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// No write in flight: the spare is reused, and after a collection that
	// reclaimed it, new storage encodes the same bytes.
	sp := rt.spare.Value()
	if sp == nil {
		t.Fatal("no spare after a snapshot with the collector off")
	}
	reused := ckEncode(t, rt, rt.watermark+1)
	if rt.spare.Value() != sp {
		t.Fatal("a snapshot with no write in flight did not encode into the spare")
	}
	sp = nil
	runtime.GC()
	if rt.spare.Value() != nil {
		t.Fatal("the spare survived a collection: it is strongly held")
	}
	if fresh := ckEncode(t, rt, rt.watermark+1); !bytes.Equal(reused, fresh) {
		t.Fatalf("a snapshot encoded into the spare (%d bytes) differs from one encoded into new storage (%d bytes)", len(reused), len(fresh))
	}
}
