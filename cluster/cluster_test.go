package cluster_test

import (
	"cmp"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/faultnet"
	"github.com/greta-cep/greta/netstream"
)

// startShards brings up n shard servers on loopback and returns their
// addresses.
func startShards(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := cluster.ServeShard()
		go func() { _ = srv.Serve(ln) }()
		addrs[i] = ln.Addr().String()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
	}
	return addrs
}

func connect(t *testing.T, addrs []string) *cluster.Coordinator {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	co, err := cluster.Connect(ctx, cluster.Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// compareResults asserts bit-identical result sets (group, window,
// bounds, every float value). Both sides are sorted by (group, wid)
// first: the reference handle yields emission order while a cluster
// statement's close-time flush sorts, and the two only coincide while
// a stream stays inside one window.
func compareResults(t *testing.T, label string, want, got []greta.Result) {
	t.Helper()
	want, got = slices.Clone(want), slices.Clone(got)
	byGroupWid := func(a, b greta.Result) int {
		if a.Group != b.Group {
			return strings.Compare(a.Group, b.Group)
		}
		return cmp.Compare(a.Wid, b.Wid)
	}
	slices.SortFunc(want, byGroupWid)
	slices.SortFunc(got, byGroupWid)
	if len(want) != len(got) {
		t.Fatalf("%s: %d reference results vs %d cluster results", label, len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Group != b.Group || a.Wid != b.Wid || a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd {
			t.Fatalf("%s result %d: (%q,%d,[%d,%d)) vs (%q,%d,[%d,%d))",
				label, i, a.Group, a.Wid, a.WindowStart, a.WindowEnd, b.Group, b.Wid, b.WindowStart, b.WindowEnd)
		}
		if len(a.Values) != len(b.Values) {
			t.Fatalf("%s result %d: %d values vs %d", label, i, len(a.Values), len(b.Values))
		}
		for k := range a.Values {
			if a.Values[k] != b.Values[k] {
				t.Fatalf("%s result %d value %d: %v vs %v (not bit-identical)",
					label, i, k, a.Values[k], b.Values[k])
			}
		}
	}
}

// compareAtLeast is compareResults behind a floor on the reference's
// result count, so a differential cannot pass by comparing nothing.
func compareAtLeast(t *testing.T, label string, floor int, want, got []greta.Result) {
	t.Helper()
	if len(want) < floor {
		t.Fatalf("%s: the reference yields %d results, fewer than the %d this test is meant to compare", label, len(want), floor)
	}
	compareResults(t, label, want, got)
}

// reference runs q alone over events on RunParallel with the given
// worker count (sharing off, as cluster registrations are) and returns
// its closed handle.
func reference(t *testing.T, q string, events []*greta.Event, workers int) *greta.Handle {
	t.Helper()
	rt := greta.NewRuntime()
	h, err := rt.Register(greta.MustCompile(q), greta.WithSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RunParallel(context.Background(), greta.NewSliceStream(events), workers); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

func collect(h *greta.Handle) []greta.Result {
	var rs []greta.Result
	for r := range h.Results() {
		rs = append(rs, r)
	}
	return rs
}

// The differential workload: two partitioned fastpath shapes (one
// Kleene SEQ with an equivalence attribute splitting groups across
// slots, one summary-foldable count), one unpartitioned statement that
// must run inline on the coordinator and one partitioned statement on
// the per-vertex scan path. diffFloors are the results
// each yields, at the least, over diffEvents(3000).
var diffQueries = []string{
	`RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E)
	 WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper
	 WITHIN 20 seconds SLIDE 10 seconds`,
	`RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds`,
	`RETURN COUNT(*) PATTERN SEQ(Start S, End E) WITHIN 30 seconds SLIDE 30 seconds`,
	// Skip-till-next-match does not fold: each event reads its
	// predecessors' events, which a shard session carves off its slabs,
	// so a slab reused while a window still holds one of its events
	// changes this statement's results.
	`RETURN mapper, COUNT(*), SUM(M.cpu) PATTERN Measurement M+
	 WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper
	 SEMANTICS skip-till-next-match WITHIN 20 seconds SLIDE 10 seconds`,
}

var diffFloors = []int{10, 6, 2, 10}

// diffEvents is the differentials' stream: n cluster-monitoring events
// at 40 a second, so 3 000 of them span 75 s of event time and every
// statement's windows close mid-stream, several times. (DefaultCluster's
// 3 000 ev/s puts a few thousand events on one or two timestamps: no
// window closes before the stream ends and the SEQ query matches
// nothing.)
func diffEvents(n int) []*greta.Event {
	cfg := greta.DefaultCluster(n)
	cfg.Rate = 40
	return greta.ClusterStream(cfg)
}

// TestClusterDifferential pins the tentpole contract: an N-shard
// cluster produces bit-identical results and Stats to a single-process
// RunParallel with N workers, across shard counts.
func TestClusterDifferential(t *testing.T) {
	events := diffEvents(3000)
	for _, shards := range []int{1, 2, 4} {
		// Reference: single-process parallel run, sharing disabled to
		// match the cluster's exclusive registrations.
		ref := make([]*greta.Handle, len(diffQueries))
		refRt := greta.NewRuntime()
		for i, q := range diffQueries {
			var err error
			ref[i], err = refRt.Register(greta.MustCompile(q), greta.WithSharing(false))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := refRt.RunParallel(context.Background(), greta.NewSliceStream(events), shards); err != nil {
			t.Fatal(err)
		}
		if err := refRt.Close(); err != nil {
			t.Fatal(err)
		}

		co := connect(t, startShards(t, shards))
		hs := make([]*greta.Handle, len(diffQueries))
		for i, q := range diffQueries {
			var err error
			hs[i], err = co.Register(q)
			if err != nil {
				t.Fatalf("shards=%d register %d: %v", shards, i, err)
			}
		}
		for _, ev := range events {
			if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
				t.Fatalf("shards=%d process: %v", shards, err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatalf("shards=%d close: %v", shards, err)
		}

		for i := range diffQueries {
			label := t.Name() + "/" + hs[i].ID()
			compareAtLeast(t, label, diffFloors[i], collect(ref[i]), collect(hs[i]))
			if ws, cs := ref[i].Stats(), hs[i].Stats(); ws != cs {
				t.Errorf("shards=%d query %d stats:\nref     %+v\ncluster %+v", shards, i, ws, cs)
			}
		}
	}
}

// TestClusterMidStreamRegisterClose covers dynamic statement
// lifecycle, which RunParallel forbids: statements register and close
// while the stream is live, on a 2-shard cluster, against a sequential
// single-process reference. Results must be bit-identical; the graph
// counters must match (peak gauges are per-slot sums and excluded).
func TestClusterMidStreamRegisterClose(t *testing.T) {
	events := diffEvents(3000)
	q1 := `RETURN COUNT(*) PATTERN Measurement M+ WHERE [mapper] WITHIN 20 seconds SLIDE 10 seconds`
	q2 := `RETURN mapper, SUM(M.cpu) PATTERN Measurement M+ WHERE [mapper] GROUP-BY mapper WITHIN 30 seconds SLIDE 15 seconds`
	third, twoThird := len(events)/3, 2*len(events)/3

	seqRt := greta.NewRuntime()
	s1, err := seqRt.Register(greta.MustCompile(q1), greta.WithSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	var s2 *greta.Handle
	for i, ev := range events {
		if i == third {
			if s2, err = seqRt.Register(greta.MustCompile(q2), greta.WithSharing(false)); err != nil {
				t.Fatal(err)
			}
		}
		if i == twoThird {
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := seqRt.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := seqRt.Close(); err != nil {
		t.Fatal(err)
	}

	co := connect(t, startShards(t, 2))
	c1, err := co.Register(q1)
	if err != nil {
		t.Fatal(err)
	}
	var c2 *greta.Handle
	for i, ev := range events {
		if i == third {
			if c2, err = co.Register(q2); err != nil {
				t.Fatal(err)
			}
		}
		if i == twoThird {
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	compareAtLeast(t, "q1", 5, collect(s1), collect(c1))
	compareAtLeast(t, "q2", 40, collect(s2), collect(c2))
	for i, pair := range []struct {
		ref greta.Stats
		got greta.Stats
	}{{s1.Stats(), c1.Stats()}, {s2.Stats(), c2.Stats()}} {
		// Peak gauges fold as per-slot sums (upper bound), same as
		// RunParallel's worker fold; everything else must match the
		// sequential run exactly.
		ref, got := pair.ref, pair.got
		ref.PeakVertices, got.PeakVertices = 0, 0
		ref.PeakPayloads, got.PeakPayloads = 0, 0
		if ref != got {
			t.Errorf("query %d stats:\nseq     %+v\ncluster %+v", i+1, ref, got)
		}
	}
}

// TestClusterLateEvent pins the ingest error contract shared with
// Runtime.Process: a late event is dropped with a *greta.OrderError
// carrying the coordinator's watermark, and every statement —
// partitioned or inline — counts the drop once.
func TestClusterLateEvent(t *testing.T) {
	co := connect(t, startShards(t, 2))
	var hs []*greta.Handle
	for _, q := range diffQueries {
		h, err := co.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	events := greta.ClusterStream(greta.DefaultCluster(200))
	for _, ev := range events {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	wm := co.Metrics().Watermark
	late := *events[0]
	late.Time = wm - 1
	err := co.Process(&late)
	var oe *greta.OrderError
	if !errors.As(err, &oe) || !errors.Is(err, greta.ErrOutOfOrder) {
		t.Fatalf("late event: err = %v, want a *greta.OrderError matching ErrOutOfOrder", err)
	}
	if oe.EventTime != late.Time || oe.Watermark != wm {
		t.Errorf("OrderError = %+v, want event time %d against watermark %d", oe, late.Time, wm)
	}
	for _, h := range hs {
		if got := h.Stats().OutOfOrder; got != 1 {
			t.Errorf("%s: OutOfOrder = %d after one late event, want 1", h.ID(), got)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornRelay fronts one shard with a TCP relay whose coordinator→shard
// direction runs under a faultnet plan, fresh per connection, so a test
// can tear a coordinator frame mid-line — the write-side fault
// BreakLink's clean close between frames cannot produce.
type tornRelay struct {
	addr string
	mu   sync.Mutex
	cur  *faultnet.Faults
}

func startTornRelay(t *testing.T, shard string) *tornRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	r := &tornRelay{addr: ln.Addr().String()}
	pipe := func(dst, src net.Conn) {
		_, _ = io.Copy(dst, src)
		_ = dst.Close()
		_ = src.Close()
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", shard)
			if err != nil {
				_ = down.Close()
				continue
			}
			f := faultnet.New()
			r.mu.Lock()
			r.cur = f
			r.mu.Unlock()
			fup := f.Conn(up)
			go pipe(fup, down)
			go pipe(down, fup)
		}
	}()
	return r
}

// tear severs the live connection once n more coordinator→shard bytes
// have been relayed: the shard reads a torn line, the coordinator a
// reset.
func (r *tornRelay) tear(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.cur.CutAfterWrites(n)
	}
}

// TestClusterKillResume severs shard links mid-stream — cleanly between
// frames (BreakLink) and mid-frame on the coordinator's write side (a
// faultnet write budget on the relay) — the links redial, resume their
// sessions, and replay unacknowledged frames in both directions.
// Bit-identical results and stats against RunParallel prove no frame
// applied twice (and none was lost).
func TestClusterKillResume(t *testing.T) {
	events := diffEvents(3000)
	q := diffQueries[0]

	ref := reference(t, q, events, 2)

	var relays []*tornRelay
	var addrs []string
	for _, shard := range startShards(t, 2) {
		r := startTornRelay(t, shard)
		relays, addrs = append(relays, r), append(addrs, r.addr)
	}
	co := connect(t, addrs)
	h, err := co.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	kills := map[int]int{len(events) / 4: 0, len(events) / 2: 1, 3 * len(events) / 4: 0}
	tears := map[int]int{len(events) / 8: 1, 5 * len(events) / 8: 0, 7 * len(events) / 8: 1}
	faults := uint64(0)
	// settle waits until every earlier break has healed: a connection
	// lost during the resume handshake itself is fatal by design.
	settle := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); co.Metrics().Resumes < faults; {
			if time.Now().After(deadline) {
				t.Fatalf("%d link faults injected, %d resumes", faults, co.Metrics().Resumes)
			}
			time.Sleep(time.Millisecond)
		}
		faults++
	}
	for i, ev := range events {
		if link, ok := kills[i]; ok {
			settle()
			if err := co.BreakLink(link); err != nil {
				t.Fatal(err)
			}
		}
		if link, ok := tears[i]; ok {
			settle()
			relays[link].tear(37) // inside the next frame
		}
		if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if got := co.Metrics().Resumes; got != faults {
		t.Errorf("%d link faults injected, %d resumes", faults, got)
	}
	compareAtLeast(t, "kill-resume", diffFloors[0], collect(ref), collect(h))
	if ws, cs := ref.Stats(), h.Stats(); ws != cs {
		t.Errorf("stats after kill/resume:\nref     %+v\ncluster %+v", ws, cs)
	}
}

// TestClusterLinkRebaseFatal: a link that resumes after the shard's
// replay window moved past its cursor has lost partials and acks for
// good — the shard rebases the session, and the coordinator must fail
// the cluster instead of merging around the gap.
func TestClusterLinkRebaseFatal(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &faultnet.PerConn{Listener: tcp} // the shard→coordinator direction is faultable per connection
	srv := cluster.ServeShard()
	srv.ResumeWindow = 1
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	co := connect(t, []string{tcp.Addr().String()})
	if _, err := co.Register(diffQueries[1]); err != nil {
		t.Fatal(err)
	}
	// The shard's lines now vanish on their way out while the stream
	// closes windows: partials and acks pile up past the one-line
	// window, unseen by the coordinator.
	f := ln.Plan()
	f.SetBlackhole(true)
	lost := f.BytesWritten()
	cfg := greta.DefaultCluster(3000)
	cfg.Rate = 50 // 60 seconds of stream: several windows close
	for _, ev := range greta.ClusterStream(cfg) {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.BytesWritten() < lost+200 { // a few acks' worth
		if time.Now().After(deadline) {
			t.Fatalf("shard wrote %d bytes into the blackhole, want its partials and acks", f.BytesWritten()-lost)
		}
		time.Sleep(time.Millisecond)
	}
	f.Cut()
	for co.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("link resumed across a rebase and the cluster carried on")
		}
		time.Sleep(time.Millisecond)
	}
	if err := co.Close(); err == nil || !strings.Contains(err.Error(), "rebased") {
		t.Fatalf("cluster error = %v, want the rebase", err)
	}
}

// TestClusterDrainHandoff rebalances mid-stream: a cold shard joins,
// a loaded shard drains its slots onto it (barrier + snapshot +
// adopt), and the stream continues. Slots keep their home indices, so
// results and stats stay bit-identical to the 2-worker reference.
func TestClusterDrainHandoff(t *testing.T) {
	events := diffEvents(3000)
	q := diffQueries[0]

	ref := reference(t, q, events, 2)

	addrs := startShards(t, 3)
	co := connect(t, addrs[:2])
	h, err := co.Register(q)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for i, ev := range events {
		if i == half {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			idx, err := co.AddShard(ctx, addrs[2])
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if err := co.Drain(0, idx); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	if co.Shards() != 3 || co.Slots() != 2 {
		t.Fatalf("topology after drain: %d shards, %d slots", co.Shards(), co.Slots())
	}
	compareAtLeast(t, "drain", diffFloors[0], collect(ref), collect(h))
	if ws, cs := ref.Stats(), h.Stats(); ws != cs {
		t.Errorf("stats after drain:\nref     %+v\ncluster %+v", ws, cs)
	}
}

// TestClusterDrainLargeSnapshot drains under real load: two statements
// and a 100k-event stream grow the donor's slot snapshot past the
// server's default 1 MiB line cap, so the adopt frame exercises the
// raised shard-server MaxLine. Results and stats stay bit-identical to
// the 2-worker reference through the rebalance.
func TestClusterDrainLargeSnapshot(t *testing.T) {
	events := greta.ClusterStream(greta.DefaultCluster(100000))
	q2 := `RETURN mapper, SUM(M.cpu)
		PATTERN SEQ(Start S, Measurement M+, End E)
		WHERE [job, mapper] AND M.load < NEXT(M).load
		GROUP-BY mapper
		WITHIN 60 seconds SLIDE 30 seconds`
	vol := `RETURN job, COUNT(M)
		PATTERN Measurement M+
		WHERE [job]
		GROUP-BY job
		WITHIN 60 seconds SLIDE 30 seconds`

	refRt := greta.NewRuntime()
	r1, err := refRt.Register(greta.MustCompile(q2), greta.WithSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := refRt.Register(greta.MustCompile(vol), greta.WithSharing(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := refRt.RunParallel(context.Background(), greta.NewSliceStream(events), 2); err != nil {
		t.Fatal(err)
	}
	if err := refRt.Close(); err != nil {
		t.Fatal(err)
	}

	addrs := startShards(t, 3)
	co := connect(t, addrs[:2])
	c1, err := co.Register(q2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := co.Register(vol)
	if err != nil {
		t.Fatal(err)
	}
	half := len(events) / 2
	for i, ev := range events {
		if i == half {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			idx, err := co.AddShard(ctx, addrs[2])
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if err := co.Drain(0, idx); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	compareResults(t, "q2", collect(r1), collect(c1))
	compareResults(t, "volume", collect(r2), collect(c2))
	if ws, cs := r1.Stats(), c1.Stats(); ws != cs {
		t.Errorf("q2 stats:\nref     %+v\ncluster %+v", ws, cs)
	}
	if ws, cs := r2.Stats(), c2.Stats(); ws != cs {
		t.Errorf("volume stats:\nref     %+v\ncluster %+v", ws, cs)
	}
}

// TestConnectBadAddress: a shard address that can never be dialed fails
// Connect with the dial error at once — only a refused, reset or timed
// out dial (a shard still coming up) is worth retrying until the
// context ends.
func TestConnectBadAddress(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:notaport", "no-colon"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t0 := time.Now()
		co, err := cluster.Connect(ctx, cluster.Config{Shards: []string{addr}})
		cancel()
		if err == nil {
			_ = co.Close()
			t.Fatalf("Connect to %q succeeded", addr)
		}
		if d := time.Since(t0); d > 2*time.Second || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Connect to %q took %v to fail with %v; a permanent dial error must not be retried until the deadline", addr, d, err)
		}
	}
}

// TestClusterShutdownLeak is the goroutine guard: a full cluster run —
// coordinator, links, shard servers — must return the process to its
// goroutine baseline after Close and Shutdown (mirrors netstream's
// TestShutdownDrains).
func TestClusterShutdownLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		addrs := make([]string, 2)
		srvs := make([]*netstream.Server, 2)
		lns := make([]net.Listener, 2)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := cluster.ServeShard()
			go func() { _ = srv.Serve(ln) }()
			addrs[i], srvs[i], lns[i] = ln.Addr().String(), srv, ln
		}
		co := connect(t, addrs)
		h, err := co.Register(diffQueries[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range greta.ClusterStream(greta.DefaultCluster(500)) {
			if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
				t.Fatal(err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		if len(collect(h)) == 0 {
			t.Fatal("no results before shutdown")
		}
		for i, srv := range srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown %d: %v", i, err)
			}
			cancel()
			_ = lns[i].Close()
		}
	}()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<17)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// carriers rebuilds a stream twice over: bound — each event's maps
// without the attributes absent drops, bound to the schema schemaOf gives
// its type, whose slots Bind fills from those maps (what the schema omits
// stays in the maps alone) — and mapped, the same events carried in maps
// only.
func carriers(src []*greta.Event, schemaOf func(*greta.Event) *greta.Schema, absent func(i int, attr string) bool) (bound, mapped []*greta.Event) {
	for i, s := range src {
		ev := *s
		ev.Attrs = map[string]float64{}
		for a, v := range s.Attrs {
			if !absent(i, a) {
				ev.Attrs[a] = v
			}
		}
		ev.Num, ev.StrV = nil, nil
		schemaOf(s).Bind(&ev)
		m := ev
		m.Sch, m.Num, m.StrV = nil, nil, nil
		bound, mapped = append(bound, &ev), append(mapped, &m)
	}
	return bound, mapped
}

// carrierDifferential holds a 2-shard cluster fed each of streams — one
// logical stream, carried differently — to RunParallel over ref with two
// workers: results bit-identical, at least floor of them, Stats equal.
func carrierDifferential(t *testing.T, q string, floor int, ref []*greta.Event, streams map[string][]*greta.Event) {
	t.Helper()
	want := reference(t, q, ref, 2)
	for label, events := range streams {
		co := connect(t, startShards(t, 2))
		h, err := co.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := co.Process(ev); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		compareAtLeast(t, label, floor, collect(want), collect(h))
		if ws, cs := want.Stats(), h.Stats(); ws != cs {
			t.Errorf("%s stats:\nref     %+v\ncluster %+v", label, ws, cs)
		}
	}
}

// TestClusterAbsentSlot: a schema-bound event's shape is the attributes
// it has. A slot Schema.Bind marked absent (NaN, "") used to ride the
// frame as a value — NaN, which no frame can carry, so the flush failed
// the cluster. Bound events with gaps must give what the same events
// give map-carried, and what RunParallel gives; a value that really is
// non-finite still fails the cluster, as documented.
func TestClusterAbsentSlot(t *testing.T) {
	q := diffQueries[0]
	bound, mapped := carriers(diffEvents(3000), func(ev *greta.Event) *greta.Schema { return ev.Sch },
		func(i int, a string) bool { return (a == "memory" && i%4 == 1) || (a == "cpu" && i%7 == 3) })
	carrierDifferential(t, q, diffFloors[0], bound, map[string][]*greta.Event{"bound-with-gaps": bound, "map-carried": mapped})

	co := connect(t, startShards(t, 2))
	if _, err := co.Register(q); err != nil {
		t.Fatal(err)
	}
	nan := *bound[0]
	nan.Attrs = map[string]float64{"cpu": math.NaN(), "load": 1}
	nan.Num = nil
	nan.Sch.Bind(&nan)
	if err := co.Process(&nan); err != nil {
		t.Fatal(err)
	}
	if err := co.Close(); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("a NaN attribute value: close = %v, want the frame's encoding error", err)
	}
}

// TestClusterPartialSchema: a schema need not list every attribute —
// Bind leaves the rest in the maps and every reader falls back to them.
// Events bound to a schema that omits an attribute the query reads, its
// predicate's (load) or its aggregate's (cpu), with every listed slot
// filled and with gaps, must give the cluster what they give it
// map-carried and what they give RunParallel. (The coordinator used to
// take a bound event's shape from its schema's names alone and dropped
// the rest: SUM(M.cpu) over the load-less schema came to a third.)
func TestClusterPartialSchema(t *testing.T) {
	src := diffEvents(3000)
	for _, tc := range []struct {
		name string
		nums []string
		gaps bool
	}{
		{"omits-predicate-input", []string{"cpu", "memory"}, false},
		{"omits-aggregate-input", []string{"memory", "load"}, false},
		{"omits-predicate-input-with-gaps", []string{"cpu", "memory"}, true},
		{"omits-aggregate-input-with-gaps", []string{"memory", "load"}, true},
	} {
		schemas := map[greta.Type]*greta.Schema{}
		bound, mapped := carriers(src, func(ev *greta.Event) *greta.Schema {
			if schemas[ev.Type] == nil {
				schemas[ev.Type] = &greta.Schema{Type: ev.Type, Numeric: tc.nums, Strings: ev.Sch.Strings}
			}
			return schemas[ev.Type]
		}, func(i int, a string) bool {
			return tc.gaps && ((a == "memory" && i%4 == 1) || (a == "cpu" && i%7 == 3))
		})
		carrierDifferential(t, diffQueries[0], diffFloors[0], bound, map[string][]*greta.Event{
			tc.name + "/partially-bound": bound, tc.name + "/map-carried": mapped})
	}
}

// TestCoordinatorShapeCacheBounded is netstream's TestSchemaCacheBounded
// for the coordinator: a producer that binds every event to a fresh
// schema, and one that never repeats an attribute-name set, leave the
// shape cache at its cap with the overflow counted, and the cluster
// still answers as RunParallel does.
func TestCoordinatorShapeCacheBounded(t *testing.T) {
	const extra = 50
	q := `RETURN COUNT(*), SUM(S.v) PATTERN Stock S+ WHERE [k] WITHIN 1000 SLIDE 1000`
	for name, tc := range map[string]struct {
		event          func(i int) *greta.Event
		held, uncached int
	}{
		"fresh-schema": {func(i int) *greta.Event {
			ev := &greta.Event{Attrs: map[string]float64{"v": float64(i)}, Str: map[string]string{"k": "a"}}
			(&greta.Schema{Type: "Stock", Numeric: []string{"v"}, Strings: []string{"k"}}).Bind(ev)
			return ev
		}, 1, extra},
		"fresh-names": {func(i int) *greta.Event {
			return &greta.Event{Attrs: map[string]float64{"v": float64(i), "x" + strconv.Itoa(i): 1}, Str: map[string]string{"k": "a"}}
		}, event.MaxShapes, extra},
	} {
		var events []*greta.Event
		for i := 0; i < event.MaxShapes+extra; i++ {
			ev := tc.event(i)
			ev.ID, ev.Type, ev.Time = uint64(i+1), "Stock", int64(i)
			events = append(events, ev)
		}
		ref := reference(t, q, events, 2)
		co := connect(t, startShards(t, 2))
		h, err := co.Register(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := co.Process(ev); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if held, uncached := co.ShapeCache(); held != tc.held || uncached != uint64(tc.uncached) {
			t.Errorf("%s: cache holds %d shapes (cap %d) with %d lookups uncached, want %d and %d",
				name, held, event.MaxShapes, uncached, tc.held, tc.uncached)
		}
		if err := co.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		compareAtLeast(t, name, 4, collect(ref), collect(h))
	}
}
