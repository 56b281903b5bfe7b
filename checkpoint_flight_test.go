package greta_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/faultfs"
)

// The write-in-flight rows: a boundary snapshot is encoded on the
// ingest path and written on the store's goroutine while ingestion
// continues, so its outcome is only known at the next sync point.
const (
	flightEvery = greta.Time(16)
	flightQuery = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
)

// flightRun is one runtime fed through the public API, with the
// checkpoint errors and trace events it reported.
type flightRun struct {
	rt     *greta.Runtime
	h      *greta.Handle
	errs   []error
	traces []greta.TraceEvent
}

// newFlightRun arms a runtime writing its checkpoints into dir through
// fsys; the stores of later runtimes use the real filesystem again.
func newFlightRun(t *testing.T, dir string, fsys checkpoint.FS) *flightRun {
	t.Helper()
	r := &flightRun{}
	prev := greta.SetCheckpointFS(fsys)
	r.rt = greta.NewRuntime(
		greta.WithCheckpoint(dir, flightEvery),
		greta.WithCheckpointErrors(func(err error) { r.errs = append(r.errs, err) }),
		greta.WithTraceHook(func(te greta.TraceEvent) {
			switch te.Kind {
			case greta.TraceCheckpointBegin, greta.TraceCheckpointCommit, greta.TraceCheckpointFail:
				r.traces = append(r.traces, te)
			}
		}))
	greta.SetCheckpointFS(prev)
	var err error
	if r.h, err = r.rt.Register(greta.MustCompile(flightQuery)); err != nil {
		t.Fatal(err)
	}
	return r
}

// feed processes the events with from <= Time < to.
func (r *flightRun) feed(t *testing.T, evs []*greta.Event, from, to greta.Time) {
	t.Helper()
	for _, ev := range evs {
		if ev.Time >= from && ev.Time < to {
			if err := r.rt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// boundaries lists the boundaries of the checkpoint traces of kind.
func (r *flightRun) boundaries(kind greta.TraceKind) []greta.Time {
	var bs []greta.Time
	for _, te := range r.traces {
		if te.Kind == kind {
			bs = append(bs, te.Boundary)
		}
	}
	return bs
}

// flightReference is the uninterrupted run's results and stats.
func flightReference(t *testing.T, evs []*greta.Event) ([]greta.Result, greta.Stats) {
	t.Helper()
	rt := greta.NewRuntime()
	h, err := rt.Register(greta.MustCompile(flightQuery))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return ckDrain(h), h.Stats()
}

// restoreAndReplay restores dir (re-arming into a temporary directory, so
// dir is only read), checks the replay bound and replays to the end:
// results and stats must match the uninterrupted run.
func restoreAndReplay(t *testing.T, ctx, dir string, evs []*greta.Event, wantFrom greta.Time, want []greta.Result, wantStats greta.Stats) {
	t.Helper()
	res, err := greta.Restore(dir, greta.WithCheckpoint(t.TempDir(), flightEvery))
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if res.ReplayFrom != wantFrom {
		t.Fatalf("%s: ReplayFrom = %d, want %d", ctx, res.ReplayFrom, wantFrom)
	}
	for _, ev := range evs {
		if ev.Time >= res.ReplayFrom {
			if err := res.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	ckResultsEqual(t, ctx, want, ckDrain(res.Handles[0]))
	if got := res.Handles[0].Stats(); got != wantStats {
		t.Fatalf("%s: stats diverge:\n  uninterrupted %+v\n  restored      %+v", ctx, wantStats, got)
	}
}

// generations lists the final checkpoint files in dir, each verified:
// no file under a final name may be torn.
func generations(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gck"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Verify(data); err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
	}
	for i, f := range files {
		files[i] = filepath.Base(f)
	}
	return files
}

// TestCheckpointFlightSyncFailure fails the fsync of the second
// boundary's write (32) after ingestion has moved past that boundary.
// Ingestion does not wait for it; the error reaches
// WithCheckpointErrors at the next boundary (48), with one Fail trace
// for 32, and consumes no generation: 48's write is generation 2.
// Restore meanwhile returns generation 1 and its replay bound, and the
// replay matches the uninterrupted run.
func TestCheckpointFlightSyncFailure(t *testing.T) {
	evs := ckStockStream(260)
	want, wantStats := flightReference(t, evs)

	release := make(chan struct{})
	var syncs atomic.Int32
	ffs := faultfs.New()
	ffs.SyncHook = func() error {
		if syncs.Add(1) == 2 {
			<-release
			return errors.Join(faultfs.ErrInjected, syscall.EIO)
		}
		return nil
	}
	dir := t.TempDir()
	r := newFlightRun(t, dir, ffs)

	// Past boundary 32 while its write is held in fsync: ingestion ran on.
	r.feed(t, evs, 0, 2*flightEvery+8)
	close(release)
	if len(r.errs) != 0 {
		t.Fatalf("checkpoint errors before the next sync point: %v", r.errs)
	}
	restoreAndReplay(t, "after the failed write", dir, evs, flightEvery, want, wantStats)

	r.feed(t, evs, 2*flightEvery+8, 3*flightEvery)
	if len(r.errs) != 0 {
		t.Fatalf("checkpoint error reported before boundary 48: %v", r.errs)
	}
	r.feed(t, evs, 3*flightEvery, 3*flightEvery+1)
	if len(r.errs) != 1 || !errors.Is(r.errs[0], faultfs.ErrInjected) {
		t.Fatalf("at boundary 48 WithCheckpointErrors saw %v, want the injected fsync failure", r.errs)
	}
	if bs := r.boundaries(greta.TraceCheckpointFail); len(bs) != 1 || bs[0] != 2*flightEvery {
		t.Fatalf("fail traces at boundaries %v, want one at %d", bs, 2*flightEvery)
	}

	r.feed(t, evs, 3*flightEvery+1, 1<<62)
	if err := r.rt.Close(); err != nil {
		t.Fatal(err)
	}
	begins := len(r.boundaries(greta.TraceCheckpointBegin))
	commits := len(r.boundaries(greta.TraceCheckpointCommit))
	if fails := len(r.boundaries(greta.TraceCheckpointFail)); begins != commits+fails || fails != 1 || len(r.errs) != 1 {
		t.Fatalf("after Close: %d begins, %d commits, %d fails, errors %v", begins, commits, fails, r.errs)
	}
	if got, newest := generations(t, dir), checkpointName(commits); len(got) == 0 || got[len(got)-1] != newest {
		t.Fatalf("generations on disk %v, want the newest to be %s: the failed write consumed none", got, newest)
	}
	ckResultsEqual(t, "the run itself", want, ckDrain(r.h))
}

// TestCheckpointFlightAbandoned holds the second boundary's write in
// fsync and abandons the runtime without Close. Restore sees the old
// generation while the write is in flight and the new one once it
// lands; never a torn file, and both replays match the uninterrupted
// run.
func TestCheckpointFlightAbandoned(t *testing.T) {
	evs := ckStockStream(260)
	want, wantStats := flightReference(t, evs)

	release := make(chan struct{})
	var syncs atomic.Int32
	ffs := faultfs.New()
	ffs.SyncHook = func() error {
		if syncs.Add(1) == 2 {
			<-release
		}
		return nil
	}
	dir := t.TempDir()
	r := newFlightRun(t, dir, ffs)
	r.feed(t, evs, 0, 2*flightEvery+8) // then the process dies, write in flight

	if got := generations(t, dir); !slices.Equal(got, []string{checkpointName(1)}) {
		t.Fatalf("with the write in flight the directory holds %v", got)
	}
	restoreAndReplay(t, "write in flight", dir, evs, flightEvery, want, wantStats)

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for !slices.Contains(generations(t, dir), checkpointName(2)) {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned write never landed")
		}
		time.Sleep(time.Millisecond)
	}
	restoreAndReplay(t, "write landed", dir, evs, 2*flightEvery, want, wantStats)
}

// checkpointName is the file name of generation gen.
func checkpointName(gen int) string { return fmt.Sprintf("ckpt-%08d.gck", gen) }
