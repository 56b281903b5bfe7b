package greta_test

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/greta-cep/greta"
)

// ckDrain collects a closed handle's results sorted by (group, window):
// the tests that use it compare result sets. TestRestoredDeliveryOrder
// compares delivery order, which a restore keeps.
func ckDrain(h *greta.Handle) []greta.Result {
	var out []greta.Result
	for r := range h.Results() {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b greta.Result) int {
		if c := cmp.Compare(a.Group, b.Group); c != 0 {
			return c
		}
		return cmp.Compare(a.Wid, b.Wid)
	})
	return out
}

// ckStockStream builds a deterministic stock stream long enough to
// cross several checkpoint boundaries.
func ckStockStream(n int) []*greta.Event {
	b := &greta.Builder{}
	for i := 0; i < n; i++ {
		t := greta.Time(1 + i/2) // pairs share a timestamp
		price := float64(100 - (i*7)%13)
		company := fmt.Sprintf("c%d", i%3)
		b.AddStr("Stock", t, map[string]float64{"price": price}, map[string]string{"company": company})
		if i%11 == 0 {
			b.AddStr("Halt", t, nil, map[string]string{"company": company})
		}
	}
	return b.Events()
}

func ckResultsEqual(t *testing.T, ctx string, want, got []greta.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Group != g.Group || w.Wid != g.Wid || len(w.Values) != len(g.Values) {
			t.Fatalf("%s: result %d = %+v, want %+v", ctx, i, g, w)
		}
		for j := range w.Values {
			if math.Float64bits(w.Values[j]) != math.Float64bits(g.Values[j]) {
				t.Fatalf("%s: result %d value %d = %v, want %v (bit-exact)", ctx, i, j, g.Values[j], w.Values[j])
			}
		}
	}
}

// TestRuntimeCheckpointRestore kills a checkpointing runtime
// mid-stream, restores from disk, replays the suffix, and demands the
// same results and stats as an uninterrupted run — through the public
// API only.
func TestRuntimeCheckpointRestore(t *testing.T) {
	const every = greta.Time(16)
	queries := []string{
		"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN MIN(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] WITHIN 24 SLIDE 8",
	}
	evs := ckStockStream(260)

	run := func(rt *greta.Runtime, hs []*greta.Handle, from greta.Time) []*greta.Handle {
		for _, ev := range evs {
			if ev.Time < from {
				continue
			}
			if err := rt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		return hs
	}
	register := func(rt *greta.Runtime) []*greta.Handle {
		hs := make([]*greta.Handle, len(queries))
		for i, q := range queries {
			h, err := rt.Register(greta.MustCompile(q), greta.WithID(fmt.Sprintf("q%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		return hs
	}

	// Uninterrupted control run. It checkpoints too (into its own
	// directory) so its boundary-advance cadence — which can split
	// summary folds differently — matches the crashed run's; results
	// are identical either way, Stats are bit-identical only between
	// runs with the same cadence.
	rtA := greta.NewRuntime(greta.WithCheckpoint(t.TempDir(), every))
	hsA := run(rtA, register(rtA), 0)
	if err := rtA.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpointing run, killed after the last boundary it crossed.
	dir := t.TempDir()
	rtB := greta.NewRuntime(greta.WithCheckpoint(dir, every),
		greta.WithCheckpointErrors(func(err error) { t.Errorf("checkpoint: %v", err) }))
	hsB := register(rtB)
	crashAt := len(evs) * 3 / 4
	for _, ev := range evs[:crashAt] {
		if err := rtB.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: rtB is abandoned without Close. Restore from disk.
	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Handles) != len(queries) {
		t.Fatalf("restored %d handles, want %d", len(res.Handles), len(queries))
	}
	for i, h := range res.Handles {
		if want := fmt.Sprintf("q%d", i); h.ID() != want {
			t.Fatalf("handle %d id %q, want %q", i, h.ID(), want)
		}
		if h.Query() != hsB[i].Query() {
			t.Fatalf("handle %d query %q, want %q", i, h.Query(), hsB[i].Query())
		}
	}
	if res.ReplayFrom <= 0 || res.ReplayFrom%every != 0 {
		t.Fatalf("replay bound %d is not a positive boundary multiple of %d", res.ReplayFrom, every)
	}
	run(res.Runtime, res.Handles, res.ReplayFrom)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	for i := range queries {
		ctx := fmt.Sprintf("statement %d", i)
		ckResultsEqual(t, ctx, ckDrain(hsA[i]), ckDrain(res.Handles[i]))
		if a, r := hsA[i].Stats(), res.Handles[i].Stats(); a != r {
			t.Fatalf("%s: stats diverge after restore:\n  uninterrupted %+v\n  restored      %+v", ctx, a, r)
		}
	}

	// The restored runtime re-armed checkpointing into the same dir:
	// the replay must have produced newer generations.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("restored runtime wrote no further checkpoints")
	}
}

// TestRestoreErrors covers the degraded paths: no checkpoint at all
// and a corrupt newest generation falling back to the previous one.
func TestRestoreErrors(t *testing.T) {
	if _, err := greta.Restore(t.TempDir()); !errors.Is(err, greta.ErrNoCheckpoint) {
		t.Fatalf("Restore(empty) = %v, want ErrNoCheckpoint", err)
	}

	dir := t.TempDir()
	rt := greta.NewRuntime(greta.WithCheckpoint(dir, 8))
	if _, err := rt.Register(greta.MustCompile(
		"RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 SLIDE 5")); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ckStockStream(80) {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for the last boundary's write, so every generation is
	// on disk. Corrupt every checkpoint file: Restore must refuse loudly
	// rather than resurrect bad state.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gck"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := greta.Restore(dir); err == nil {
		t.Fatal("Restore of all-corrupt directory succeeded")
	}
}

// TestRestoreFallbackGeneration corrupts the newest checkpoint of a
// real run: Restore must fall back to the previous generation and the
// (longer) replay must still converge to the uninterrupted results —
// a fault costs replay work, never windows.
func TestRestoreFallbackGeneration(t *testing.T) {
	const every = greta.Time(16)
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	evs := ckStockStream(260)

	feed := func(rt *greta.Runtime, from greta.Time) {
		for _, ev := range evs {
			if ev.Time >= from {
				if err := rt.Process(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	rtA := greta.NewRuntime(greta.WithCheckpoint(t.TempDir(), every))
	hA, err := rtA.Register(greta.MustCompile(q))
	if err != nil {
		t.Fatal(err)
	}
	feed(rtA, 0)
	if err := rtA.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rtB := greta.NewRuntime(greta.WithCheckpoint(dir, every))
	if _, err := rtB.Register(greta.MustCompile(q)); err != nil {
		t.Fatal(err)
	}
	feed(rtB, 0) // crash here: rtB abandoned before Close

	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gck"))
	if err != nil || len(files) < 2 {
		t.Fatalf("want >= 2 generations on disk, got %v (%v)", files, err)
	}
	slices.Sort(files)
	newest := files[len(files)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The fallback generation is one interval older than the newest.
	if res.ReplayFrom%every != 0 {
		t.Fatalf("fallback replay bound %d not boundary-aligned", res.ReplayFrom)
	}
	feed(res.Runtime, res.ReplayFrom)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	ckResultsEqual(t, "fallback generation", ckDrain(hA), ckDrain(res.Handles[0]))
	if a, r := hA.Stats(), res.Handles[0].Stats(); a != r {
		t.Fatalf("fallback stats diverge:\n  uninterrupted %+v\n  restored      %+v", a, r)
	}
}

// TestCheckpointWriteFailureDegrades points checkpointing at an
// uncreatable directory (a regular file shadows the path): every
// scheduled write fails, the failures surface through
// WithCheckpointErrors, and ingestion keeps running.
func TestCheckpointWriteFailureDegrades(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("i am a file"), 0o644); err != nil {
		t.Fatal(err)
	}
	var failures int
	rt := greta.NewRuntime(
		greta.WithCheckpoint(blocked, 16),
		greta.WithCheckpointErrors(func(err error) {
			failures++
			if err == nil {
				t.Error("nil checkpoint error reported")
			}
		}))
	h, err := rt.Register(greta.MustCompile(
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range ckStockStream(200) {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if failures == 0 {
		t.Fatal("no checkpoint failure was reported")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ckDrain(h)) == 0 {
		t.Fatal("runtime stopped serving after checkpoint failures")
	}
}

// TestManualCheckpoint exercises Runtime.Checkpoint (the
// {"cmd":"checkpoint"} path): unconfigured runtimes refuse, configured
// ones persist a restorable snapshot on demand.
func TestManualCheckpoint(t *testing.T) {
	if err := greta.NewRuntime().Checkpoint(); err == nil {
		t.Fatal("Checkpoint without WithCheckpoint succeeded")
	}

	dir := t.TempDir()
	rt := greta.NewRuntime(greta.WithCheckpoint(dir, 1<<40)) // never self-triggers
	h, err := rt.Register(greta.MustCompile(
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5"))
	if err != nil {
		t.Fatal(err)
	}
	evs := ckStockStream(120)
	for _, ev := range evs {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is fully consumed and timestamps were quiescent at the
	// snapshot: nothing to replay, closing both must agree.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	ckResultsEqual(t, "manual checkpoint", ckDrain(h), ckDrain(res.Handles[0]))
}

// TestRestoreReorderSlack: WithReorderSlack arms a reorder buffer on a
// runtime restored from a snapshot written without one, and a negative
// slack panics there as it does in NewRuntime.
func TestRestoreReorderSlack(t *testing.T) {
	dir := t.TempDir()
	rt := greta.NewRuntime(greta.WithCheckpoint(dir, 1<<40)) // never self-triggers
	if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5")); err != nil {
		t.Fatal(err)
	}
	for _, ev := range ckStockStream(40) {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := greta.Restore(dir, greta.WithReorderSlack(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics().ReorderSlack; got != 5 {
		t.Errorf("restored ReorderSlack = %d, want 5", got)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Restore with a negative slack did not panic")
		}
	}()
	greta.Restore(dir, greta.WithReorderSlack(-1))
}

// TestRestoredDeliveryOrder pins what a restored handle holds: the
// results delivered before the checkpoint, in the order they were
// delivered — ascending (window, group), which is not (group, window)
// order — for a statement with a graph of its own and for two that share
// one. Replayed to the end, the restored handles hold the uninterrupted
// run's deliveries element for element.
func TestRestoredDeliveryOrder(t *testing.T) {
	const every = greta.Time(16)
	queries := []string{
		"RETURN company, COUNT(*) PATTERN Stock S+ WHERE [company] GROUP-BY company WITHIN 10 SLIDE 5",
		"RETURN company, SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
		"RETURN company, MIN(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
	}
	evs := ckStockStream(260)
	start := func(dir string) (*greta.Runtime, []*greta.Handle) {
		rt := greta.NewRuntime(greta.WithCheckpoint(dir, every),
			greta.WithCheckpointErrors(func(err error) { t.Errorf("checkpoint: %v", err) }))
		hs := make([]*greta.Handle, len(queries))
		for i, q := range queries {
			h, err := rt.Register(greta.MustCompile(q))
			if err != nil {
				t.Fatal(err)
			}
			hs[i] = h
		}
		return rt, hs
	}
	feed := func(rt *greta.Runtime, evs []*greta.Event, from greta.Time) {
		for _, ev := range evs {
			if ev.Time < from {
				continue
			}
			if err := rt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
	}

	whole, wholeHs := start(t.TempDir())
	if rs := whole.Stats(); rs.SharedGraphs != 1 || rs.SharedStatements != 2 {
		t.Fatalf("statements 1 and 2 do not share a graph: %+v", rs)
	}
	feed(whole, evs, 0)
	if err := whole.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashed, _ := start(dir)
	feed(crashed, evs[:len(evs)*3/4], 0) // abandoned without Close
	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	byGroupWid := func(a, b greta.Result) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Wid, b.Wid))
	}
	for i, h := range res.Handles {
		ctx := fmt.Sprintf("statement %d at restore", i)
		got, want := h.Delivered(), wholeHs[i].Delivered()
		groups, wids := map[string]bool{}, map[int64]bool{}
		for _, r := range got {
			groups[r.Group], wids[r.Wid] = true, true
		}
		if len(groups) < 3 || len(wids) < 3 || len(got) >= len(want) {
			t.Fatalf("%s: %d of %d results over %d groups and %d windows checks nothing", ctx, len(got), len(want), len(groups), len(wids))
		}
		if slices.IsSortedFunc(got, byGroupWid) {
			t.Errorf("%s: results are in (group, window) order; emission order is ascending (window, group)", ctx)
		}
		ckResultsEqual(t, ctx, want[:len(got)], got)
		if n := h.Stats().Results; n != len(got) {
			t.Errorf("%s: Stats counts %d results, the handle holds %d", ctx, n, len(got))
		}
	}
	feed(res.Runtime, evs, res.ReplayFrom)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	for i, h := range res.Handles {
		ckResultsEqual(t, fmt.Sprintf("statement %d replayed", i), wholeHs[i].Delivered(), h.Delivered())
	}
}
