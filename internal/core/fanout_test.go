package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/netstream"
)

// fanoutQueries are the batch differential shapes, a composite (it runs
// after the route-group sweeps, on the caller), and a pair that differs
// only in RETURN, registered shared: one union graph, two statements.
var fanoutQueries = append(append([]string{}, batchDiffQueries...),
	"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WHERE [company] GROUP-BY company WITHIN 20 SLIDE 5",
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price < NEXT(S).price GROUP-BY company WITHIN 12 SLIDE 3",
	"RETURN MAX(S.vol), AVG(S.price) PATTERN Stock S+ WHERE [company] AND S.price < NEXT(S).price GROUP-BY company WITHIN 12 SLIDE 3",
)

// fanoutRun is what one run of fanoutQueries delivered: per statement,
// and as one log in the order the callbacks ran.
type fanoutRun struct {
	stmts    []*core.Stmt
	results  [][]core.Result
	log      []string
	snaps    [][]byte
	accepted int
}

// runFanout registers fanoutQueries on a fresh runtime (NoRetain, so
// snapshots carry no wall-clock stamps), arms a checkpoint every 100
// ticks when ck is set, and feeds it through feed.
func runFanout(t *testing.T, ck bool, feed func(*core.Runtime) int) *fanoutRun {
	t.Helper()
	run := &fanoutRun{results: make([][]core.Result, len(fanoutQueries))}
	var opts []core.Option
	if ck {
		opts = append(opts, armSnapshotsEvery(t, 100, &run.snaps))
	}
	rt := core.NewRuntime(opts...)
	for i, src := range fanoutQueries {
		plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rt.Register(plan, core.StmtConfig{NoRetain: true, Share: i >= len(fanoutQueries)-2})
		if err != nil {
			t.Fatal(err)
		}
		st.OnResult(func(r core.Result) {
			run.results[i] = append(run.results[i], r)
			run.log = append(run.log, fmt.Sprintf("q%d %s %d", i, r.Group, r.Wid))
		})
		run.stmts = append(run.stmts, st)
	}
	if rs := rt.Stats(); rs.RouteGroups < 2 || rs.SharedGraphs != 1 {
		t.Fatalf("topology %+v: want two or more route groups and one shared graph", rs)
	}
	run.accepted = feed(rt)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return run
}

// withProcs runs f with GOMAXPROCS set to procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestBatchFanoutDifferential holds the fan-out of batch segments over
// goroutines to the per-event run: 1 024-row batches through the
// differential shapes, a composite and a shared pair in several route
// groups, with and without a checkpoint schedule, deliver the same
// results, Stats and snapshot bytes with one processor (no helper ever
// starts) and with several (helpers sweep sources) — and the callbacks
// of all statements run in the same order either way.
func TestBatchFanoutDifferential(t *testing.T) {
	evs := batchDiffStream(rand.New(rand.NewSource(29)), 4000, 400, 700)
	for _, ck := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoints=%v", ck), func(t *testing.T) {
			ref := runFanout(t, ck, func(rt *core.Runtime) int { return feedEach(t, rt, evs, nil) })
			if ck && len(ref.snaps) == 0 {
				t.Fatal("reference run produced no snapshots; checkpoint comparison is vacuous")
			}
			batched := func(procs int) (run *fanoutRun, helperSweeps int64) {
				withProcs(procs, func() {
					n := core.CountHelperSweeps(t)
					run = runFanout(t, ck, func(rt *core.Runtime) int { return feedBatches(t, rt, evs, 1024, nil, nil) })
					helperSweeps = n.Load()
				})
				return run, helperSweeps
			}
			off, offSweeps := batched(1)
			procs := max(2, runtime.GOMAXPROCS(0))
			on, onSweeps := batched(procs)
			if offSweeps != 0 {
				t.Errorf("GOMAXPROCS 1: %d sweeps ran on a helper, want none", offSweeps)
			}
			if onSweeps == 0 {
				t.Fatalf("GOMAXPROCS %d: no sweep ran on a helper; the fan-out never engaged", procs)
			}
			for _, c := range []struct {
				label string
				run   *fanoutRun
			}{{"one goroutine", off}, {fmt.Sprintf("GOMAXPROCS %d", procs), on}} {
				if c.run.accepted != ref.accepted {
					t.Fatalf("%s: accepted %d events vs %d per-event", c.label, c.run.accepted, ref.accepted)
				}
				for i := range fanoutQueries {
					compareResults(t, 29, c.run.results[i], ref.results[i])
					compareStmtStats(t, c.label, i, c.run.stmts[i].Stats(), ref.stmts[i].Stats())
				}
				if ck {
					compareSnaps(t, c.label, c.run.snaps, ref.snaps)
				}
			}
			if len(on.log) != len(off.log) {
				t.Fatalf("%d deliveries with the fan-out vs %d without", len(on.log), len(off.log))
			}
			for i := range on.log {
				if on.log[i] != off.log[i] {
					t.Fatalf("delivery %d: %q with the fan-out vs %q without", i, on.log[i], off.log[i])
				}
			}
		})
	}
}

// fanoutNetQueries are an ordinary session's statements: two route
// groups, and a pair the session's default sharing serves from one graph.
var fanoutNetQueries = []string{
	"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
	"RETURN MAX(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5",
	"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price < 5 WITHIN 16 SLIDE 4",
}

// stockFrame is a batch frame's Stock rows as columns.
type stockFrame struct {
	times []int64
	cols  map[string][]float64
	scols map[string][]string
}

// stockColumns is n Stock rows over three companies, times rising from
// from one tick every three rows.
func stockColumns(rng *rand.Rand, from int64, n int) stockFrame {
	f := stockFrame{cols: map[string][]float64{}, scols: map[string][]string{}}
	for i := 0; i < n; i++ {
		f.times = append(f.times, from+int64(i/3))
		f.cols["price"] = append(f.cols["price"], float64(1+rng.Intn(8)))
		f.cols["vol"] = append(f.cols["vol"], float64(1+rng.Intn(6)))
		f.scols["company"] = append(f.scols["company"], fmt.Sprintf("c%d", rng.Intn(3)))
	}
	return f
}

// startFanoutServer serves fanoutNetQueries until the test ends.
func startFanoutServer(t *testing.T) string {
	t.Helper()
	srv := &netstream.Server{}
	for _, src := range fanoutNetQueries {
		stmt, err := greta.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		srv.Statements = append(srv.Statements, stmt)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestBatchFanoutNetstream: an ordinary netstream session fed 1 024-row
// batch frames fans its segments out, and its result lines — every
// statement's, in the order the session wrote them — are the ones a
// one-processor session writes.
func TestBatchFanoutNetstream(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	frames := make([]stockFrame, 8)
	for i := range frames {
		frames[i] = stockColumns(rng, int64(1+i*342), 1024)
	}
	session := func(procs int) (results []netstream.WireResult, helperSweeps int64) {
		withProcs(procs, func() {
			n := core.CountHelperSweeps(t)
			c, err := netstream.Dial(startFanoutServer(t))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, f := range frames {
				if err := c.SendBatch("Stock", f.times, f.cols, f.scols); err != nil {
					t.Fatal(err)
				}
			}
			if results, _, err = c.Flush(); err != nil {
				t.Fatal(err)
			}
			helperSweeps = n.Load()
		})
		return results, helperSweeps
	}
	off, offSweeps := session(1)
	procs := max(2, runtime.GOMAXPROCS(0))
	on, onSweeps := session(procs)
	if offSweeps != 0 {
		t.Errorf("GOMAXPROCS 1: %d sweeps ran on a helper, want none", offSweeps)
	}
	if onSweeps == 0 {
		t.Fatalf("GOMAXPROCS %d: no sweep ran on a helper; the session's batches never fanned out", procs)
	}
	stmts := map[string]bool{}
	for _, r := range off {
		stmts[r.Stmt] = true
	}
	if len(stmts) != len(fanoutNetQueries) {
		t.Fatalf("results came from %d of %d statements", len(stmts), len(fanoutNetQueries))
	}
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("the session's result lines differ with the fan-out (%d lines) and without (%d)", len(on), len(off))
	}
}

// stockBatch is f as a batch of batchStockSchema rows, ids from id.
func stockBatch(f stockFrame, id uint64) *event.Batch {
	b := event.NewBatch(batchStockSchema, len(f.times))
	for i, tm := range f.times {
		b.Append(id+uint64(i), tm, []float64{f.cols["price"][i], f.cols["vol"][i]}, []string{f.scols["company"][i]})
	}
	return b
}

// TestBatchFanoutHelperPanic: a panic raised by an engine on a helper
// goroutine reaches the ProcessBatch caller with its own value, the
// stack that raised it written out, and a netstream session turns it
// into an internal-error line. A panic in the caller's own sweep
// unwinds with its own frames, after the helpers are joined.
func TestBatchFanoutHelperPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	boom := errors.New("helper boom")
	rng := rand.New(rand.NewSource(37))

	// processPanic feeds one 1 024-row batch and returns what ProcessBatch
	// panicked with and the stack it panicked on.
	processPanic := func(t *testing.T) (r any, stack string) {
		rt := core.NewRuntime()
		registerCollect(t, rt, fanoutNetQueries)
		b := stockBatch(stockColumns(rng, 1, 1024), 1)
		defer func() {
			r, stack = recover(), string(debug.Stack())
		}()
		_, _ = rt.ProcessBatch(b)
		return nil, ""
	}

	t.Run("runtime", func(t *testing.T) {
		logged := core.CaptureSweepPanics(t)
		core.PanicOnSweep(t, boom, true)
		if r, _ := processPanic(t); r != boom {
			t.Fatalf("ProcessBatch panicked with %v, want the helper's %v", r, boom)
		}
		// The helper's frames: the hook that panicked, under the sweep.
		for _, want := range []string{"helper boom", "core.PanicOnSweep.func", "(*segFan).sweep"} {
			if !strings.Contains(logged(), want) {
				t.Fatalf("the helper's panic was written out without %q:\n%s", want, logged())
			}
		}
	})

	t.Run("caller", func(t *testing.T) {
		logged := core.CaptureSweepPanics(t)
		core.PanicOnSweep(t, boom, false)
		r, stack := processPanic(t)
		if r != boom {
			t.Fatalf("ProcessBatch panicked with %v, want the caller's sweep's %v", r, boom)
		}
		if !strings.Contains(stack, "core.PanicOnSweep.func") {
			t.Fatalf("the caller's panic lost the frame that raised it:\n%s", stack)
		}
		if logged() != "" {
			t.Fatalf("a caller's panic was written out as a helper's:\n%s", logged())
		}
	})

	t.Run("netstream", func(t *testing.T) {
		core.CaptureSweepPanics(t)
		core.PanicOnSweep(t, boom, true)
		conn, err := net.Dial("tcp", startFanoutServer(t))
		if err != nil {
			t.Fatal(err)
		}
		// A lost panic writes nothing: fail then, rather than wait forever.
		if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		c := netstream.NewClient(conn)
		defer c.Close()
		f := stockColumns(rng, 1, 1024)
		if err := c.SendBatch("Stock", f.times, f.cols, f.scols); err != nil {
			t.Fatal(err)
		}
		for {
			line, err := c.ReadLine()
			if err != nil {
				t.Fatalf("connection ended without an error line: %v", err)
			}
			if line.Error != "" {
				if want := "internal error: helper boom"; !strings.Contains(line.Error, want) {
					t.Fatalf("error line %q, want %q", line.Error, want)
				}
				return
			}
		}
	})
}

// TestBatchFanoutCallbackPanic: a callback that panics while the caller
// delivers a fanned-out segment's results drops the rest of that
// segment's deliveries, and once the caller has recovered, every later
// batch delivers exactly what it delivers in a run without the panic:
// nothing twice, nothing late.
func TestBatchFanoutCallbackPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(41))
	frames := make([]stockFrame, 4)
	for i := range frames {
		frames[i] = stockColumns(rng, int64(1+i*342), 1024)
	}
	boom := errors.New("callback boom")
	// run feeds the frames as batches, the first callback of batch arm
	// (-1: none) panicking, and returns what each batch delivered.
	run := func(arm int) [][]string {
		helperSweeps := core.CountHelperSweeps(t)
		rt := core.NewRuntime()
		delivered := make([][]string, len(frames))
		k, armed := 0, false
		for i, src := range fanoutNetQueries {
			plan, err := core.NewPlan(query.MustParse(src), aggregate.ModeNative)
			if err != nil {
				t.Fatal(err)
			}
			st, err := rt.Register(plan, core.StmtConfig{NoRetain: true, Share: i < 2})
			if err != nil {
				t.Fatal(err)
			}
			st.OnResult(func(r core.Result) {
				delivered[k] = append(delivered[k], fmt.Sprintf("q%d %s %d %v", i, r.Group, r.Wid, r.Values))
				if armed {
					armed = false
					panic(boom)
				}
			})
		}
		for k = range frames {
			armed = k == arm
			func() {
				defer func() {
					if r := recover(); r != nil && r != boom {
						panic(r)
					}
				}()
				if _, err := rt.ProcessBatch(stockBatch(frames[k], uint64(1+k*1024))); err != nil {
					t.Fatal(err)
				}
			}()
			if armed {
				t.Fatalf("batch %d delivered nothing; no callback panicked", k)
			}
		}
		if helperSweeps.Load() == 0 {
			t.Fatal("no sweep ran on a helper; the batches never fanned out")
		}
		return delivered
	}
	const arm = 1
	want, got := run(-1), run(arm)
	for q := range fanoutNetQueries {
		if !slices.ContainsFunc(want[arm], func(s string) bool { return strings.HasPrefix(s, fmt.Sprintf("q%d ", q)) }) {
			t.Fatalf("batch %d delivers nothing to statement %d; the dropped deliveries would not span every source", arm, q)
		}
	}
	for k := range frames {
		w := want[k]
		if k == arm {
			w = w[:1] // the delivery whose callback panicked
		}
		if !slices.Equal(got[k], w) {
			t.Fatalf("batch %d delivered %d results after a callback panic in batch %d, want %d:\n%q\nwant\n%q",
				k, len(got[k]), arm, len(w), got[k], w)
		}
	}
}
