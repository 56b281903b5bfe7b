package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/netstream"
)

// runEnv is what a driver needs from the harness: where rows go, whether
// calls are being traced, and a scratch directory of its own.
type runEnv struct {
	plan *lapPlan
	col  *collector
	tr   *tracer // nil: tracing off
	dir  string
	cuts []int64 // the clock at each cut of the lap being fed
}

// maxCuts bounds the cuts of one lap; past it a lap is cut no further.
const maxCuts = 1 << 12

// cut splits the lap's time here. A driver cuts where its loop is closed —
// between calls in process, after a window's results are back over the
// wire — and at the same events in every lap: what lies between two cuts
// is the same work each time, which is what lets the harness tell the
// work's time from what the machine added to it (see undisturbed).
func (e *runEnv) cut() {
	if len(e.cuts) < cap(e.cuts) {
		e.cuts = append(e.cuts, now())
	}
}

// driver is one workload's system under test behind its public entry
// point. open (the workload's constructor) and feed are the program calls
// the harness times.
type driver interface {
	// feed offers events lo..hi-1 of lap k in order, the next only after
	// the previous call returned, and returns once their results are in the
	// caller's hands. A lap is fed whole, except the first: set-up feeds
	// its beginning only.
	feed(k int, evs []*event.Event, lo, hi int)
	// scrape takes the entry point's public metrics snapshot.
	scrape()
	// finish ends the stream, stops every server and goroutine the driver
	// started, and reports the engine counters and the driver's own layer
	// metrics.
	finish() (*finalStats, error)
}

type finalStats struct {
	stmts  []greta.Stats
	graphs int // distinct graphs serving the statements
	layer  metrics
}

const (
	batchRows = 1024
	// cutEvery is the events between two cuts of a per-event lap: a
	// millisecond or two of work.
	cutEvery    = 256
	waitTimeout = 20 * time.Second
)

// ---- in-process Runtime: per-event Process or ProcessBatch -----------------

type inproc struct {
	env   *runEnv
	rt    *greta.Runtime
	hs    []*greta.Handle
	batch bool
	pend  []int // closing events appended to the open batch
}

func openInproc(w *workload, env *runEnv) (driver, error) {
	d := &inproc{env: env, rt: greta.NewRuntime(), batch: !w.keeps}
	env.col.parent = spanNames[spCloseEmit]
	if d.batch {
		env.col.parent = spanNames[spBatchClose]
	}
	for si := range w.queries {
		stmt, err := greta.Compile(w.query(si))
		if err != nil {
			return nil, err
		}
		h, err := d.rt.Register(stmt, greta.WithoutRetention())
		if err != nil {
			return nil, err
		}
		h.OnResult(env.col.onResult(si))
		d.hs = append(d.hs, h)
	}
	return d, nil
}

func (d *inproc) feed(k int, evs []*event.Event, lo, hi int) {
	if d.batch {
		d.feedBatches(k, evs, lo, hi)
		return
	}
	col, tr, p := d.env.col, d.env.tr, d.env.plan
	ci := p.closesBefore(lo)
	for i := lo; i < hi; i++ {
		ev := evs[i]
		if i%cutEvery == 0 && i > lo {
			d.env.cut()
		}
		wid, kind := int64(-1), spProcess
		if p.closeAt(ci, i) {
			if wid = col.begin(p.closes[ci], k, p.period); wid >= 0 {
				kind = spCloseEmit
			}
			ci++
		}
		t0 := tr.start()
		err := d.rt.Process(ev)
		tr.add(kind, t0, wid)
		if err != nil {
			col.fail()
		}
	}
}

// feedBatches packs the lap into 1024-row batches of one event type each,
// inside the timed lap: building the batch is what a batch caller pays.
func (d *inproc) feedBatches(k int, evs []*event.Event, lo, hi int) {
	col, tr, p := d.env.col, d.env.tr, d.env.plan
	var b *greta.Batch
	flush := func() {
		wid, kind := int64(-1), spBatch
		for _, ci := range d.pend {
			if wid = col.begin(p.closes[ci], k, p.period); wid >= 0 {
				kind = spBatchClose
			}
		}
		d.pend = d.pend[:0]
		t0 := tr.start()
		n, err := d.rt.ProcessBatch(b)
		tr.addBatch(kind, t0, wid, b.Len())
		if err != nil || n != b.Len() {
			col.fail()
		}
		b = nil
		d.env.cut()
	}
	ci := p.closesBefore(lo)
	for i := lo; i < hi; i++ {
		ev := evs[i]
		if b != nil && (b.Type() != ev.Type || b.Len() == batchRows) {
			flush()
		}
		t0 := tr.start()
		if b == nil {
			b = greta.NewBatch(ev.Sch, batchRows)
		}
		err := b.AppendEvent(ev)
		tr.add(spBatchAppend, t0, -1)
		if err != nil {
			col.fail()
		}
		if p.closeAt(ci, i) {
			d.pend = append(d.pend, ci)
			ci++
		}
	}
	if b != nil {
		flush()
	}
}

func (d *inproc) scrape() { _ = d.rt.Metrics() }

func (d *inproc) finish() (*finalStats, error) {
	d.env.col.drain()
	fs := &finalStats{layer: metrics{}}
	for _, h := range d.hs {
		fs.stmts = append(fs.stmts, h.Stats())
	}
	rs := d.rt.Stats()
	fs.graphs = rs.Statements - rs.SharedStatements + rs.SharedGraphs
	return fs, d.rt.Close()
}

// ---- netstream: Client -> Server over loopback ------------------------------

// countConn counts the bytes a netstream client writes and reads.
type countConn struct {
	net.Conn
	wrote, read atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// ckptLog collects checkpoint commits from the server's trace hook.
type ckptLog struct {
	mu    sync.Mutex
	bytes []float64
	ms    []float64
	fails int
}

func (l *ckptLog) hook(te greta.TraceEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch te.Kind {
	case greta.TraceCheckpointCommit:
		l.bytes = append(l.bytes, float64(te.Bytes))
		l.ms = append(l.ms, float64(te.Dur)/1e6)
	case greta.TraceCheckpointFail:
		l.fails++
	}
}

type netDriver struct {
	env     *runEnv
	srv     *netstream.Server
	conn    *countConn
	c       *netstream.Client
	ck      ckptLog
	sent    int
	pending int     // reorder buffer depth, peak over lap ends
	flushMS float64 // the final Flush
}

// checkpointsPerLap sets the checkpoint interval: about ten boundaries a
// lap, each on a multiple of SLIDE where pane state is smallest.
const checkpointsPerLap = 10

func openNet(w *workload, env *runEnv) (driver, error) {
	d := &netDriver{env: env}
	var stmts []*greta.Statement
	for si := range w.queries {
		stmt, err := greta.Compile(w.query(si))
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
	}
	every := w.ticks / checkpointsPerLap / w.win.Slide * w.win.Slide
	d.srv = &netstream.Server{
		Statements: stmts,
		Slack:      w.slack,
		Linger:     time.Minute,
		TraceHook:  d.ck.hook,
		RuntimeOptions: func() []greta.RuntimeOption {
			return []greta.RuntimeOption{greta.WithCheckpoint(env.dir, every)}
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = d.srv.Serve(ln) }() // returns when Shutdown closes ln
	env.cut()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		d.shutdown()
		return nil, err
	}
	d.conn = &countConn{Conn: conn}
	d.c = netstream.NewClient(d.conn)
	if _, err := d.c.EnableResume(context.Background()); err != nil {
		d.shutdown()
		return nil, err
	}
	return d, nil
}

func (d *netDriver) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// sync is the round trip that puts a closed window's results in the
// caller's hands: the client decodes the result lines the server wrote
// before the stats reply.
func (d *netDriver) sync(wid int64) *netstream.WireSessStats {
	t0 := d.env.tr.start()
	st, err := d.c.Stats()
	d.env.tr.add(spSync, t0, wid)
	if err != nil {
		d.env.col.fail()
		return nil
	}
	return st
}

func (d *netDriver) feed(k int, evs []*event.Event, lo, hi int) {
	col, tr, p := d.env.col, d.env.tr, d.env.plan
	ci := p.closesBefore(lo)
	for i := lo; i < hi; i++ {
		ev := evs[i]
		wid := int64(-1)
		if p.closeAt(ci, i) {
			wid = col.begin(p.closes[ci], k, p.period)
		}
		t0 := tr.start()
		err := d.c.Send(string(ev.Type), ev.Time, ev.Attrs, ev.Str)
		tr.add(spSend, t0, -1)
		if err != nil {
			col.fail()
		}
		if p.closeAt(ci, i) {
			d.sync(wid)
			for w := p.closes[ci].lo + 1; w <= p.closes[ci].hi; w++ {
				col.settle(w + int64(k)*p.period)
			}
			ci++
			d.env.cut()
		}
	}
	d.sent += hi - lo
	if st := d.sync(-1); st != nil {
		d.pending = max(d.pending, st.ReorderPending)
		if st.Dropped != 0 || st.ReorderDropped != 0 || int(st.Processed) != d.sent {
			col.fail()
		}
	}
}

func (d *netDriver) scrape() { _, _ = d.c.Stats() }

func (d *netDriver) finish() (*finalStats, error) {
	col := d.env.col
	col.drain()
	t0 := now()
	results, _, err := d.c.Flush()
	d.flushMS = float64(now()-t0) / 1e6
	if err != nil {
		_ = d.c.Close()
		_ = d.shutdown()
		return nil, fmt.Errorf("flush: %w", err)
	}
	// The client hands results over only now; check them against the
	// windows the laps closed. Later windows are the flush's partial tail.
	last := col.lastWid
	seen := map[int64]*closeRec{}
	for i := range results {
		r := &results[i]
		si, err := strconv.Atoi(strings.TrimPrefix(r.Stmt, "q"))
		if err != nil || r.Wid > last {
			continue
		}
		col.verify(si, r.Wid, r.Group, r.Values, seen)
	}
	for wid := int64(0); wid <= last; wid++ {
		got := 0
		if rec := seen[wid]; rec != nil {
			got = rec.got
		}
		col.bad += col.exp.want(wid) - got // rows missing; extra and repeated ones verify counted
	}
	col.errs += len(d.c.Warnings()) + d.ck.fails

	fs := &finalStats{graphs: len(d.env.plan.w.queries), layer: metrics{}}
	if done := d.c.Summary(); done != nil {
		ids := make([]string, 0, len(done.Stats))
		for id := range done.Stats {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			fs.stmts = append(fs.stmts, done.Stats[id])
		}
	}
	err = errors.Join(d.c.Close(), d.shutdown())

	d.ck.mu.Lock()
	defer d.ck.mu.Unlock()
	if len(d.ck.bytes) > 0 { // a set-up instance is torn down before its first checkpoint
		t0 = now()
		restored, rerr := greta.Restore(d.env.dir)
		if rerr == nil {
			fs.layer["checkpoint.restore_ms"] = float64(now()-t0) / 1e6
			rerr = restored.Close()
		}
		err = errors.Join(err, rerr)
	}
	fs.layer["checkpoint.writes"] = float64(len(d.ck.bytes))
	fs.layer["checkpoint.bytes_per_write"] = ratio(sum(d.ck.bytes), float64(len(d.ck.bytes)))
	fs.layer["checkpoint.write_ms_p50"] = median(d.ck.ms)
	fs.layer["reorder.pending_peak"] = float64(d.pending)
	fs.layer["netstream.wire_bytes_per_event"] = ratio(float64(d.conn.wrote.Load()), float64(d.sent))
	fs.layer["netstream.result_bytes_per_window"] = ratio(float64(d.conn.read.Load()), float64(col.windows))
	fs.layer["netstream.flush_ms"] = d.flushMS
	return fs, err
}

// ---- cluster: Coordinator -> two shard servers over loopback ----------------

type clusterDriver struct {
	env  *runEnv
	srvs []*netstream.Server
	co   *cluster.Coordinator
	h    *cluster.Handle
}

const (
	shards = 2
	// The cluster's own ring defaults (65536 frames a link, 1Mi lines a
	// shard) are not reached in any run that fits the time cap: the heap
	// grows 50 MB a lap until the resend ring is full, and from then on
	// every frame shifts the whole ring (a lap takes 21 s instead of 0.9).
	// The links get the netstream layer's documented defaults instead —
	// Client.SendWindow 1024, Server.ResumeWindow 4096 — which fill during
	// the warm laps: the measured laps see a long-lived link's steady state.
	linkSendWindow     = 1024
	shardResumeWindow  = 4096
	clusterDialTimeout = 30 * time.Second
)

func openCluster(w *workload, env *runEnv) (driver, error) {
	d := &clusterDriver{env: env}
	var addrs []string
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.shutdown()
			return nil, err
		}
		srv := cluster.ServeShard()
		srv.ResumeWindow = shardResumeWindow
		go func() { _ = srv.Serve(ln) }() // returns when Shutdown closes ln
		d.srvs = append(d.srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), clusterDialTimeout)
	defer cancel()
	env.cut()
	co, err := cluster.Connect(ctx, cluster.Config{Shards: addrs, SendWindow: linkSendWindow})
	if err != nil {
		d.shutdown()
		return nil, err
	}
	env.cut()
	d.co = co
	if d.h, err = co.Register(w.query(0)); err != nil {
		_ = co.Close()
		d.shutdown()
		return nil, err
	}
	d.h.OnResult(env.col.onResult(0))
	return d, nil
}

func (d *clusterDriver) shutdown() error {
	var errs []error
	for _, srv := range d.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
		errs = append(errs, srv.Shutdown(ctx))
		cancel()
	}
	return errors.Join(errs...)
}

func (d *clusterDriver) feed(k int, evs []*event.Event, lo, hi int) {
	col, tr, p := d.env.col, d.env.tr, d.env.plan
	ci := p.closesBefore(lo)
	for i := lo; i < hi; i++ {
		ev := evs[i]
		wid := int64(-1)
		if p.closeAt(ci, i) {
			wid = col.begin(p.closes[ci], k, p.period)
			ci++
		}
		t0 := tr.start()
		err := d.co.Process(ev)
		tr.add(spCoordinator, t0, wid)
		if err != nil {
			col.fail()
		}
		if wid < 0 {
			continue
		}
		// Process returns once the barrier is on the wire. The loop is
		// closed over results as well as calls: the next event is handed
		// over when the closed window's merged rows are back, which bounds
		// the frames in flight by one slide instead of by the kernel's
		// socket buffers. The lap's last tick closes its last window, so a
		// lap ends quiesced.
		t0 = tr.start()
		col.wait(waitTimeout)
		tr.add(spBarrierWait, t0, wid)
		d.env.cut()
	}
}

func (d *clusterDriver) scrape() { _ = d.co.Metrics() }

func (d *clusterDriver) finish() (*finalStats, error) {
	col := d.env.col
	col.drain()
	t0 := now()
	err := d.co.Close()
	closeMS := float64(now()-t0) / 1e6
	m := d.co.Metrics()
	col.errs += len(d.co.Warnings()) + int(m.Dropped)
	fs := &finalStats{stmts: []greta.Stats{d.h.Stats()}, graphs: 1, layer: metrics{
		"cluster.frame_encode_ns_per_event": ratio(float64(m.EncodeTotal), float64(m.Events)),
		"cluster.frame_bytes_per_event":     ratio(float64(m.FrameBytes), float64(m.Events)),
		"cluster.rows_per_frame":            ratio(float64(m.Events), float64(m.Frames)),
		"cluster.barriers_per_window":       ratio(float64(m.Barriers), float64(col.windows)),
		"cluster.barrier_rtt_mean_us":       ratio(float64(m.BarrierRTTTotal)/1e3, float64(m.BarrierRTTCount)),
		"cluster.barrier_rtt_max_us":        float64(m.BarrierRTTMax) / 1e3,
		"cluster.close_ms":                  closeMS,
	}}
	return fs, errors.Join(err, d.shutdown())
}
