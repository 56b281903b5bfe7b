package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/event"
)

const (
	goldenPath  = "testdata/ckpt-v3.golden"
	goldenEvery = event.Time(16)
	goldenSlack = event.Time(4)
)

// goldenSchema lists desk in both slot kinds: a bound event carries it
// as a number or as a string, exactly as its maps do.
var goldenSchema = &event.Schema{
	Type:    "Stock",
	Numeric: []string{"price", "desk"},
	Strings: []string{"company", "sector", "desk"},
}

// goldenEvents is the fixed scenario's arrival sequence, generated by
// integer arithmetic only (no library RNG whose stream could change):
// four companies (two names share a six-byte prefix), a sector that is
// sometimes missing, and a desk that is a number, the string "5", the
// empty string, or missing — so the statements partitioned by [desk]
// hold numeric-, string- and missing-keyed partitions. Every other
// Stock event is schema-bound; timestamps are pulled back by up to
// slack+1, so the reorder buffer both holds and drops events.
func goldenEvents() []*event.Event {
	x := uint32(2463534242)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return int(x>>8) % n
	}
	companies := []string{"alpha-", "alpha-1", "b", "gamma-corp"}
	sectors := []string{"tech", "fin", ""}
	evs := make([]*event.Event, 0, 120)
	t := event.Time(1)
	for i := 0; i < 120; i++ {
		t += event.Time(next(3))
		ev := &event.Event{
			ID:    uint64(i + 1),
			Type:  "Stock",
			Time:  max(t-event.Time(next(int(goldenSlack)+2)), 0),
			Attrs: map[string]float64{"price": float64(1 + next(8))},
			Str:   map[string]string{"company": companies[next(len(companies))]},
		}
		if next(12) == 0 {
			ev.Type = "Halt"
		}
		if s := sectors[next(len(sectors))]; s != "" {
			ev.Str["sector"] = s
		}
		switch next(6) {
		case 0:
			ev.Attrs["desk"] = 5
		case 1:
			ev.Str["desk"] = "5"
		case 2:
			ev.Str["desk"] = ""
		case 3:
			ev.Attrs["desk"] = 2.5
		case 4:
			ev.Str["desk"] = "equities-emea"
		}
		if ev.Type == "Stock" && i%2 == 0 {
			goldenSchema.Bind(ev)
		}
		evs = append(evs, ev)
	}
	return evs
}

// goldenRun plays the scenario — a grouped Kleene statement, a
// negation statement and two shared statements behind an armed reorder
// buffer — with its scheduled snapshots handed to sink, and returns
// the runtime. Result emission stamps (wall clock) are zeroed before
// each encode; everything else in the body is a pure function of the
// arrival sequence.
func goldenRun(t *testing.T, sink SnapshotSink) *Runtime {
	t.Helper()
	var rt *Runtime
	rt = NewRuntime(
		WithReorderSlack(goldenSlack),
		WithTraceHook(func(te TraceEvent) {
			if te.Kind == TraceCheckpointBegin {
				goldenZeroEmitted(rt)
			}
		}),
		WithCheckpoint(goldenEvery, sink, func(err error) { t.Errorf("checkpoint save: %v", err) }))
	rt.SetCheckpointMeta(func(int, int) []byte { return []byte(`{"sess":"golden","cursor":41}`) })
	const trend = "PATTERN Stock S+ WHERE [desk] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	rcRegister(t, rt, "kleene", "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 20 SLIDE 5", aggregate.ModeNative, StmtConfig{})
	rcRegister(t, rt, "neg", "RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10", aggregate.ModeNative, StmtConfig{})
	rcRegister(t, rt, "sh1", "RETURN COUNT(*) "+trend, aggregate.ModeNative, StmtConfig{Share: true})
	rcRegister(t, rt, "sh2", "RETURN SUM(S.price), MIN(S.price) "+trend, aggregate.ModeNative, StmtConfig{Share: true})
	if s := rt.Stats(); s.SharedStatements != 2 || s.SharedGraphs != 1 {
		t.Fatalf("scenario lost its shared graph: %+v", s)
	}
	rcFeed(rt, goldenEvents(), 0)
	return rt
}

// goldenZeroEmitted overwrites the wall-clock stamp of every retained
// result; rt.mu held (called from the trace hook at a snapshot's
// begin) or rt quiescent.
func goldenZeroEmitted(rt *Runtime) {
	for _, st := range rt.stmts {
		for i := range st.results {
			st.results[i].Emitted = time.Unix(0, 0)
		}
	}
}

// TestCheckpointGolden pins the version-3 checkpoint body to bytes
// written by an earlier revision: the committed snapshot must restore
// and re-encode to itself, and the scenario re-run from scratch must
// still produce it. The round-trip guards (FuzzCheckpointRoundTrip)
// compare the codec with itself; this one notices a partition key, an
// interned display key or a section order drifting under a refactor.
//
// A deliberate format change bumps ckVersion and replaces the file:
// delete it and run the test once — a missing file is written, and
// the run fails so the new bytes get reviewed.
func TestCheckpointGolden(t *testing.T) {
	var fresh []byte
	goldenRun(t, NewTestSink(t, func(body []byte) { fresh = body }))
	if fresh == nil {
		t.Fatal("scenario fired no scheduled checkpoint")
	}
	want, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote %d bytes, review and commit them", goldenPath, len(fresh))
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("scenario re-run encodes %d bytes that differ from the %d golden ones (first difference at byte %d)",
			len(fresh), len(want), firstDiff(fresh, want))
	}

	rt, info, err := RestoreRuntime(want, rcDiscard(t, 0))
	if err != nil {
		t.Fatalf("restore golden: %v", err)
	}
	if m := rt.Metrics(); info.Every != goldenEvery || m.ReorderSlack != goldenSlack || m.ReorderPending == 0 {
		t.Fatalf("golden restored as %+v, want interval %d, slack %d and a non-empty disorder window",
			info, goldenEvery, goldenSlack)
	}
	if n := len(rt.stmts); n != 4 {
		t.Fatalf("golden restored %d statements, want 4", n)
	}
	if re := ckEncode(t, rt, info.ReplayFrom); !bytes.Equal(re, want) {
		t.Fatalf("restore + re-encode yields %d bytes that differ from the %d golden ones (first difference at byte %d)",
			len(re), len(want), firstDiff(re, want))
	}

	// The store frames exactly what the runtime handed it: the scenario
	// written through a real one loads back as the golden body once the
	// last boundary's write is settled; Close would release the disorder
	// window first, across one more boundary.
	store := &checkpoint.Store{Dir: t.TempDir()}
	rt = goldenRun(t, store)
	rt.mu.Lock()
	rt.settleCheckpoint()
	rt.mu.Unlock()
	body, _, err := store.Load()
	if err != nil {
		t.Fatalf("load the scenario's store: %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("the store's newest generation holds %d bytes that differ from the %d golden ones (first difference at byte %d)",
			len(body), len(want), firstDiff(body, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
