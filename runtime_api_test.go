package greta_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/checkpoint"
)

// TestRuntimeStreamingResults consumes Handle.Results concurrently
// with ingestion: the iterator must yield every result exactly once,
// in emission order, and terminate when the runtime closes.
func TestRuntimeStreamingResults(t *testing.T) {
	rt := greta.NewRuntime()
	h, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10"))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+ OR B+ WITHIN 10 SLIDE 10"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var got []greta.Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range h.Results() {
			got = append(got, r)
		}
	}()
	for i := 1; i <= 45; i++ {
		if err := rt.Process(&greta.Event{ID: uint64(i), Type: "A", Time: greta.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A composite statement streams too: event 40 closed its fourth
	// window, so an iterator yields four results while the runtime is open.
	closed := 0
	for r := range hc.Results() {
		if r.Wid != int64(closed) {
			t.Errorf("composite result %d: wid %d (emission order)", closed, r.Wid)
		}
		if closed++; closed == 4 {
			break
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Windows [0,10) .. [40,50): five windows, each with trends.
	if len(got) != 5 {
		t.Fatalf("streamed %d results, want 5", len(got))
	}
	for i, r := range got {
		if r.Wid != int64(i) {
			t.Errorf("result %d: wid %d, want %d (emission order)", i, r.Wid, i)
		}
	}
	// A late iterator replays the full sequence.
	n := 0
	for range h.Results() {
		n++
	}
	if n != 5 {
		t.Errorf("replay iterator saw %d results, want 5", n)
	}
	// Early break must not wedge the handle.
	for range h.Results() {
		break
	}
}

// TestRuntimeRegisterOptions covers WithID and default id assignment.
func TestRuntimeRegisterOptions(t *testing.T) {
	rt := greta.NewRuntime()
	defer rt.Close()
	a, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN B+"), greta.WithID("trends"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN SEQ(A, B)"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "q0" || b.ID() != "trends" || c.ID() != "q1" {
		t.Errorf("ids = %q, %q, %q; want q0, trends, q1", a.ID(), b.ID(), c.ID())
	}
	if q := b.Query(); q == "" {
		t.Error("Handle.Query empty")
	}
	// Duplicate ids are rejected; a closed statement's id is reusable.
	if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN C+"), greta.WithID("trends")); err == nil {
		t.Error("duplicate id must be rejected")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN C+"), greta.WithID("trends")); err != nil {
		t.Errorf("closed statement's id not reusable: %v", err)
	}
}

// TestRuntimeHandleClose closes one of two statements mid-stream via
// the public API and checks the survivor is unperturbed and errors are
// the documented sentinels.
func TestRuntimeHandleClose(t *testing.T) {
	rt := greta.NewRuntime()
	h1, _ := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10"))
	h2, _ := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10"))
	for i := 1; i <= 15; i++ {
		if err := rt.Process(&greta.Event{ID: uint64(i), Type: "A", Time: greta.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); !errors.Is(err, greta.ErrStatementClosed) {
		t.Fatalf("double close: %v, want ErrStatementClosed", err)
	}
	// h1's iterator terminates (closed handles stream their flush, then end).
	n1 := 0
	for range h1.Results() {
		n1++
	}
	if n1 == 0 {
		t.Error("closed handle lost its flushed results")
	}
	for i := 16; i <= 25; i++ {
		if err := rt.Process(&greta.Event{ID: uint64(i), Type: "A", Time: greta.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	var wids []int64
	for r := range h2.Results() {
		wids = append(wids, r.Wid)
	}
	if len(wids) != 3 {
		t.Fatalf("survivor saw %d windows, want 3", len(wids))
	}
	if err := rt.Process(&greta.Event{ID: 99, Type: "A", Time: 99}); !errors.Is(err, greta.ErrClosed) {
		t.Fatalf("process after close: %v, want ErrClosed", err)
	}
	if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+")); !errors.Is(err, greta.ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
}

// TestRuntimeRunContext covers ctx-aware Run: a cancelled context
// stops ingestion with the context error.
func TestRuntimeRunContext(t *testing.T) {
	rt := greta.NewRuntime()
	defer rt.Close()
	if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	evs := []*greta.Event{{ID: 1, Type: "A", Time: 1}}
	if err := rt.Run(ctx, greta.NewSliceStream(evs)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestRuntimeProcessOutOfOrder checks the error-returning ingest at
// the public surface and that the drop is visible in statement stats.
func TestRuntimeProcessOutOfOrder(t *testing.T) {
	rt := greta.NewRuntime()
	h, _ := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+"))
	if err := rt.Process(&greta.Event{ID: 1, Type: "A", Time: 5}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Process(&greta.Event{ID: 2, Type: "A", Time: 3}); !errors.Is(err, greta.ErrOutOfOrder) {
		t.Fatalf("late event: %v, want ErrOutOfOrder", err)
	}
	if wm := rt.Watermark(); wm != 5 {
		t.Errorf("watermark = %d, want 5", wm)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().OutOfOrder; got != 1 {
		t.Errorf("OutOfOrder = %d, want 1", got)
	}
}

// TestRuntimeParallelPublic drives RunParallel through the public API
// with two statements sharing the ingest and compares against
// sequential runtimes.
func TestRuntimeParallelPublic(t *testing.T) {
	queries := []string{
		`RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E)
		 WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper
		 WITHIN 20 seconds SLIDE 10 seconds`,
		`RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds`,
	}
	events := greta.ClusterStream(greta.DefaultCluster(20000))

	seq := make([]*greta.Handle, len(queries))
	seqRt := greta.NewRuntime()
	for i, q := range queries {
		seq[i], _ = seqRt.Register(greta.MustCompile(q))
	}
	if err := seqRt.Run(context.Background(), greta.NewSliceStream(events)); err != nil {
		t.Fatal(err)
	}
	if err := seqRt.Close(); err != nil {
		t.Fatal(err)
	}

	par := make([]*greta.Handle, len(queries))
	parRt := greta.NewRuntime()
	for i, q := range queries {
		par[i], _ = parRt.Register(greta.MustCompile(q))
	}
	if err := parRt.RunParallel(context.Background(), greta.NewSliceStream(events), 4); err != nil {
		t.Fatal(err)
	}

	for i := range queries {
		var a, b []greta.Result
		for r := range seq[i].Results() {
			a = append(a, r)
		}
		for r := range par[i].Results() {
			b = append(b, r)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d sequential vs %d parallel results", i, len(a), len(b))
		}
		for j := range a {
			if a[j].Group != b[j].Group || a[j].Wid != b[j].Wid {
				t.Fatalf("query %d result %d: (%q,%d) vs (%q,%d)",
					i, j, a[j].Group, a[j].Wid, b[j].Group, b[j].Wid)
			}
			for k := range a[j].Values {
				if a[j].Values[k] != b[j].Values[k] {
					t.Fatalf("query %d result %d value %d: %v vs %v",
						i, j, k, a[j].Values[k], b[j].Values[k])
				}
			}
		}
	}
}

// TestNewRuntimeInvalidOptions pins NewRuntime's contract: an invalid
// option is a programming error and panics.
func TestNewRuntimeInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  func(t *testing.T) greta.RuntimeOption
	}{
		{"negative-slack", func(*testing.T) greta.RuntimeOption { return greta.WithReorderSlack(-1) }},
		{"zero-checkpoint-interval", func(t *testing.T) greta.RuntimeOption { return greta.WithCheckpoint(t.TempDir(), 0) }},
		{"negative-checkpoint-interval", func(t *testing.T) greta.RuntimeOption { return greta.WithCheckpoint(t.TempDir(), -5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt(t)
			defer func() {
				if recover() == nil {
					t.Error("NewRuntime accepted the option")
				}
			}()
			greta.NewRuntime(opt).Close()
		})
	}
}

// TestRunParallelFrontier reads the frontier after RunParallel: the
// feed published its watermark, so Watermark and the snapshot's
// Watermark, MaxEventTime and WatermarkLag equal Run + Close's on the
// same stream, late events included. The stream ends on a lone
// timestamp, which only the feed's final publish covers.
func TestRunParallelFrontier(t *testing.T) {
	events := greta.ClusterStream(greta.DefaultCluster(20000))
	late, last := *events[len(events)/2], *events[len(events)-1]
	late.Time = events[0].Time // behind the watermark: dropped by both runs
	last.Time++
	events = append(slices.Insert(events, len(events)/2+1, &late), &last)
	run := func(workers int) (greta.Time, greta.Metrics) {
		rt := greta.NewRuntime()
		if _, err := rt.Register(greta.MustCompile(
			`RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds`)); err != nil {
			t.Fatal(err)
		}
		s := greta.NewSliceStream(events)
		var err error
		if workers > 1 {
			err = rt.RunParallel(context.Background(), s, workers)
		} else if err = rt.Run(context.Background(), s); err == nil {
			err = rt.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return rt.Watermark(), rt.Metrics()
	}
	wSeq, mSeq := run(1)
	wPar, mPar := run(4)
	if wPar != wSeq {
		t.Errorf("Watermark() = %d after RunParallel, %d after Run + Close", wPar, wSeq)
	}
	seq := [4]greta.Time{mSeq.Watermark, mSeq.MaxEventTime, mSeq.WatermarkLag, greta.Time(mSeq.Dropped)}
	par := [4]greta.Time{mPar.Watermark, mPar.MaxEventTime, mPar.WatermarkLag, greta.Time(mPar.Dropped)}
	if par != seq || seq[3] != 1 {
		t.Errorf("watermark/max/lag/dropped = %v after RunParallel, %v after Run + Close (one drop)", par, seq)
	}
}

// TestRunParallelCheckpointed pins RunParallel's sequential fallback on
// a checkpoint-armed runtime: its boundaries write the checkpoints Run +
// Close writes, so the newest generations are byte-identical (no
// retained results: a body holds their wall-clock emission stamps).
func TestRunParallelCheckpointed(t *testing.T) {
	events := greta.StockStream(greta.DefaultStock(20000))
	newest := func(workers int) []byte {
		dir := t.TempDir()
		rt := greta.NewRuntime(greta.WithCheckpoint(dir, 20))
		if _, err := rt.Register(greta.MustCompile(`RETURN sector, COUNT(*) PATTERN Stock S+
			WHERE [company, sector] AND S.price > NEXT(S).price
			GROUP-BY sector WITHIN 60 seconds SLIDE 20 seconds`), greta.WithoutRetention()); err != nil {
			t.Fatal(err)
		}
		s := greta.NewSliceStream(events)
		var err error
		if workers > 1 {
			err = rt.RunParallel(context.Background(), s, workers)
		} else if err = rt.Run(context.Background(), s); err == nil {
			err = rt.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if w := rt.Metrics().Checkpoint.Writes; w == 0 {
			t.Fatalf("workers %d: no checkpoint written", workers)
		}
		body, _, err := (&checkpoint.Store{Dir: dir}).Load()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return body
	}
	if seq, par := newest(1), newest(4); !bytes.Equal(par, seq) {
		t.Errorf("RunParallel's newest checkpoint (%d bytes) differs from Run + Close's (%d bytes)", len(par), len(seq))
	}
}

// gateStream feeds a prefix, then holds mid-stream until released —
// keeping RunParallel in flight while the test races registrations
// against it.
type gateStream struct {
	evs     []*greta.Event
	i       int
	began   chan struct{} // closed on first Next: RunParallel owns the runtime
	release chan struct{} // closing resumes the stream
}

func (s *gateStream) Next() *greta.Event {
	if s.i == 0 {
		close(s.began)
	}
	if s.i == len(s.evs)/2 {
		<-s.release
	}
	if s.i >= len(s.evs) {
		return nil
	}
	ev := s.evs[s.i]
	s.i++
	return ev
}

// TestRegisterDuringRunParallel pins the eager ErrRunning contract:
// registrations racing an in-flight RunParallel fail immediately with
// ErrRunning — they neither block until the stream ends nor race the
// workers — and the parallel run's own results are unaffected. Run
// under -race this doubles as the data-race regression test.
func TestRegisterDuringRunParallel(t *testing.T) {
	const query = "RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds"
	events := greta.ClusterStream(greta.DefaultCluster(4000))

	rt := greta.NewRuntime()
	h, err := rt.Register(greta.MustCompile(query))
	if err != nil {
		t.Fatal(err)
	}
	s := &gateStream{evs: events, began: make(chan struct{}), release: make(chan struct{})}
	runErr := make(chan error, 1)
	go func() { runErr <- rt.RunParallel(context.Background(), s, 4) }()
	<-s.began

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Register(greta.MustCompile(query)); !errors.Is(err, greta.ErrRunning) {
				t.Errorf("Register during RunParallel: err = %v, want ErrRunning", err)
			}
			if err := rt.Process(&greta.Event{ID: 1, Type: "Measurement", Time: 1}); !errors.Is(err, greta.ErrRunning) {
				t.Errorf("Process during RunParallel: err = %v, want ErrRunning", err)
			}
			if err := h.Close(); !errors.Is(err, greta.ErrRunning) {
				t.Errorf("Handle.Close during RunParallel: err = %v, want ErrRunning", err)
			}
		}()
	}
	if err := rt.RunParallel(context.Background(), greta.NewSliceStream(events), 4); !errors.Is(err, greta.ErrRunning) {
		t.Errorf("RunParallel during RunParallel: err = %v, want ErrRunning", err)
	}
	// The rejections are eager: every goroutine returns while the stream
	// is still held open mid-run (a lazy check would deadlock here).
	wg.Wait()
	close(s.release)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}

	// RunParallel closed the runtime; late registrations now say so.
	if _, err := rt.Register(greta.MustCompile(query)); !errors.Is(err, greta.ErrClosed) {
		t.Errorf("Register after RunParallel: err = %v, want ErrClosed", err)
	}
	n := 0
	for range h.Results() {
		n++
	}
	if n == 0 {
		t.Error("parallel run emitted no results")
	}
}
