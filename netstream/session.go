package netstream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/ring"
)

// sessionMeta is the opaque blob embedded in each checkpoint via
// SetCheckpointMeta: the session identity and cursors that must stay
// atomic with the engine state they describe. metaBytes writes it from
// the committed cursors plus, for a snapshot that fired inside a batch
// frame's ProcessBatch call, the frame rows the runtime says it holds.
type sessionMeta struct {
	ID        string `json:"id"`
	LastSeq   uint64 `json:"last_seq"`
	OutSeq    uint64 `json:"out_seq"`
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped"`
	// V is the meta generation, 2 since the engine event-id cursor and
	// mid-frame progress (batch frames over resumable sessions) joined
	// it; RestoreSession refuses any other.
	V int `json:"v,omitempty"`
	// EvID is the id of the last engine event whose application the
	// snapshot contains; FrameRows counts how many of those belong to a
	// batch frame whose seq is NOT yet covered by LastSeq (a snapshot
	// that fired mid-frame) — the restore skips exactly that prefix
	// when the frame is replayed.
	EvID      uint64 `json:"ev_id,omitempty"`
	FrameRows uint64 `json:"frame_rows,omitempty"`
}

// session is one client stream's server-side state. mu serializes
// everything — line handling, result emission (callbacks fire inside
// rt calls made under mu), heartbeats, park/resume/teardown. srv.mu is
// the inner lock: it may be taken while holding mu, never the reverse.
type session struct {
	srv *Server
	id  string

	mu        sync.Mutex
	conn      net.Conn // nil while parked
	w         *bufio.Writer
	enc       *json.Encoder
	hbStop    chan struct{}
	lingerT   *time.Timer
	resumable bool
	ended     bool
	pings     uint64
	resumes   uint64

	rt      *greta.Runtime
	handles map[string]*greta.Handle
	order   []string // handle registration order, for rebase re-delivery

	// out retains the durable output lines for resume replay; its seqs
	// are the server-side ones (out.Last is the newest emitted).
	out     ring.Ring
	lastSeq uint64 // last client event seq applied

	processed uint64
	dropped   uint64
	// evID allocates engine event ids. It is committed only after the
	// runtime call returns (in a resumable session alongside lastSeq),
	// so a snapshot firing inside the call describes the state before
	// the in-flight event, or — inside a batch frame's ProcessBatch —
	// before the frame plus the rows the runtime reports (metaBytes).
	// frameSkip is the restore-side prefix: rows of the next replayed
	// frame already contained in the snapshot, kept until that frame is
	// applied.
	evID      uint64
	frameSkip uint64
	// shard holds the cluster worker slots once the session flipped
	// into shard mode (Server.AllowShard + {"cmd":"shard"}).
	shard *shardState
	// shapes interns the per-(type, attribute names) schemas batch frames
	// and event lines bind to, bounded (event.MaxShapes), so repeated
	// input of one shape reuses one schema pointer (the runtime's columnar
	// pre-filter caches per schema identity). interned is the bounded
	// string-value table.
	shapes   event.ShapeCache
	interned map[string]string
	// evs, nums and strs are the event carver's slabs (newEventLocked):
	// the events event lines and shard frames make, their numeric slots
	// and their string slots. The runtime keeps the events; a slab is
	// retired when exhausted and carved again, cleared, once the
	// session's horizon has passed its newest event.
	evs  slabs[greta.Event]
	nums slabs[float64]
	strs slabs[string]
}

// sendLocked emits one output line (mu held). Durable lines in a
// resumable session get a server seq and are retained for resume
// replay; everything else is fire-and-forget. The line lands in the
// connection's write buffer: whoever handled the input that caused it
// flushes once when done (flushLocked), so a closed window's results
// share one write. Write errors are sticky in that buffer — flushLocked
// reports them, and a broken conn parks the session via the reader. A
// line that cannot be encoded (a non-finite result value) must not
// vanish: the client gets an error line saying what was lost instead,
// and no durable seq is consumed.
func (sess *session) sendLocked(o WireLine, durable bool) {
	var err error
	if durable && sess.resumable {
		o.Seq = sess.out.Next()
		var line []byte
		if line, err = sess.out.PushJSON(o); err == nil && sess.conn != nil {
			_, _ = sess.w.Write(line) // sticky in the writer: flushLocked reports it, and the ring has the line
		}
	} else if sess.conn != nil {
		err = sess.enc.Encode(o)
	}
	if err != nil && sess.conn != nil {
		what := "line"
		if r := o.Result; r != nil {
			what = fmt.Sprintf("result of statement %s, window %d, group %q", r.Stmt, r.Wid, r.Group)
		}
		_ = sess.enc.Encode(WireLine{Error: fmt.Sprintf("%s not delivered: %v", what, err)}) // a write error is sticky: flushLocked reports it
	}
}

// flushLocked pushes the buffered output lines to the peer (mu held).
// A failed flush — a dead peer, or WriteTimeout on one that stopped
// reading — closes the connection: the writer's error is sticky, so no
// later line would arrive, and the close wakes the reader, which parks
// or ends the session. The error is the heartbeat's dead-peer signal.
func (sess *session) flushLocked() error {
	if sess.conn == nil {
		return nil
	}
	err := sess.w.Flush()
	if err != nil {
		_ = sess.conn.Close() // the flush error is the one that counts
	}
	return err
}

// metaBytes is the SetCheckpointMeta provider: it runs on the ingest
// path inside a runtime call (which the session only makes under mu),
// so reading the cursors directly is safe and it must not lock. Inside
// a batch frame's ProcessBatch the snapshot holds the frame's restored
// prefix plus its next rows rows, accepted of them applied and the rest
// dropped: the cursors, committed after the call, count them here.
func (sess *session) metaBytes(rows, accepted int) []byte {
	b, _ := json.Marshal(sessionMeta{ // strings and integers: it cannot fail
		ID: sess.id, LastSeq: sess.lastSeq, OutSeq: sess.out.Last(),
		Processed: sess.processed + uint64(accepted), Dropped: sess.dropped + uint64(rows-accepted),
		V: 2, EvID: sess.evID + uint64(rows), FrameRows: sess.frameSkip + uint64(rows),
	})
	return b
}

// wire attaches a handle's results to the session output. Callbacks
// fire inside rt calls made under sess.mu, hence sendLocked.
func (sess *session) wire(h *greta.Handle) {
	id := h.ID()
	sess.handles[id] = h
	sess.order = append(sess.order, id)
	h.OnResult(func(r greta.Result) { sess.sendLocked(resultLine(id, r), true) })
}

// resultLine is the wire form of one result of statement id.
func resultLine(id string, r greta.Result) WireLine {
	return WireLine{Result: &WireResult{
		Stmt:  id,
		Group: r.Group, Wid: r.Wid,
		Start: r.WindowStart, End: r.WindowEnd,
		Values: r.Values,
	}}
}

func (sess *session) stopHeartbeatLocked() {
	if sess.hbStop != nil {
		close(sess.hbStop)
		sess.hbStop = nil
	}
}

// startHeartbeatLocked begins pinging the attached connection. The
// goroutine exits when stopped, when the connection changes, or when
// the session ends; a failed ping closes the conn so the reader
// notices promptly.
func (sess *session) startHeartbeatLocked() {
	if sess.srv.Heartbeat <= 0 || sess.conn == nil || sess.hbStop != nil {
		return
	}
	stop := make(chan struct{})
	sess.hbStop = stop
	myConn := sess.conn
	sess.srv.wg.Add(1)
	go func() {
		defer sess.srv.wg.Done()
		t := time.NewTicker(sess.srv.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			sess.mu.Lock()
			if sess.ended || sess.conn != myConn {
				sess.mu.Unlock()
				return
			}
			sess.pings++
			sess.sendLocked(WireLine{Ping: sess.pings}, false)
			if sess.flushLocked() != nil { // it closed myConn: the reader parks the session
				sess.mu.Unlock()
				return
			}
			sess.mu.Unlock()
		}
	}()
}

// detachLocked drops the connection (stolen, broken, or finished)
// without touching runtime state; lines still buffered go out first.
func (sess *session) detachLocked() {
	sess.stopHeartbeatLocked()
	if sess.conn != nil {
		_ = sess.w.Flush()    // best effort on a dropped peer; a resumable session's ring keeps its durable lines
		_ = sess.conn.Close() // the conn is being dropped; a failed close leaves nothing to undo
		sess.conn = nil
		sess.w = nil
		sess.enc = nil
	}
}

// stopLingerLocked disarms the expiry timer of a parked session that
// is being re-attached, drained or ended.
func (sess *session) stopLingerLocked() {
	if sess.lingerT != nil {
		sess.lingerT.Stop()
		sess.lingerT = nil
	}
}

// teardownLocked ends the session without a summary: the runtime is
// closed (remaining windows flush to the attached conn, if any) and
// the session forgotten.
func (sess *session) teardownLocked() {
	if sess.ended {
		return
	}
	sess.ended = true
	sess.stopLingerLocked()
	if sess.shard != nil {
		sess.shard.discardLocked()
	}
	_ = sess.rt.Close() // Close returns no error
	sess.detachLocked()
	sess.srv.removeSession(sess)
}

// finishLocked ends the session gracefully: close the runtime (its
// end-of-stream barrier flushes every open window through the result
// path), send the {"done":...} summary with per-statement Stats, then
// tear down, whose close of the closed runtime is a no-op.
func (sess *session) finishLocked() {
	if sess.ended {
		return
	}
	rs := sess.rt.Stats() // live statements only: read before the close
	_ = sess.rt.Close()   // Close returns no error
	stats := make(map[string]greta.Stats, len(sess.handles))
	for id, h := range sess.handles {
		stats[id] = h.Stats()
	}
	sess.sendLocked(WireLine{Done: true, Events: sess.processed, Drop: sess.dropped,
		SharedStmts: rs.SharedStatements, SharedGraphs: rs.SharedGraphs, Stats: stats}, false)
	sess.teardownLocked()
}

// park handles a reader's exit: a resumable session lingers awaiting a
// resume, anything else tears down. No-op if the connection was stolen
// by a resume or the session already ended.
func (sess *session) park(myConn net.Conn, timedOut bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return
	}
	if timedOut {
		// Report the deadline cleanly before dropping the conn; open
		// windows are not flushed on a stalled client's behalf.
		sess.sendLocked(WireLine{Error: "timeout"}, false)
	}
	sess.detachLocked()
	if !sess.resumable || sess.srv.Linger <= 0 || sess.srv.isClosed() {
		sess.teardownLocked()
		return
	}
	sess.lingerLocked()
}

// lingerLocked arms the expiry of a parked session: once the linger
// window elapses without a resume, fail(nil) tears it down.
func (sess *session) lingerLocked() {
	sess.lingerT = time.AfterFunc(sess.srv.Linger, func() { sess.fail(nil) })
}

// fail tears the session down unless it ended or another connection
// holds it: after an internal panic surfaced to the client on myConn as
// an error line, or with myConn nil when a parked session's linger
// expired.
func (sess *session) fail(myConn net.Conn) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return
	}
	sess.teardownLocked()
}

// drain is Shutdown's per-session step: barrier the reorder buffer,
// checkpoint if armed (failed writes warn), then finish with the
// terminal summary.
func (sess *session) drain() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended {
		return
	}
	sess.stopLingerLocked()
	_ = sess.rt.Barrier() // errs only on a closed or RunParallel runtime: ended guards the one, sessions never run the other
	if sess.rt.Metrics().Checkpoint.Armed {
		if err := sess.rt.Checkpoint(); err != nil {
			sess.sendLocked(WireLine{Warn: fmt.Sprintf("checkpoint: %v", err)}, false)
		}
	}
	sess.finishLocked()
}

// statsLocked snapshots the session for a {"cmd":"stats"} reply (mu
// held). The runtime snapshot is the live metrics view — no barrier,
// no flush, safe mid-stream.
func (sess *session) statsLocked() *WireSessStats {
	m := sess.rt.Metrics()
	st := &WireSessStats{
		Session: sess.id, Processed: sess.processed, Dropped: sess.dropped,
		LastSeq: sess.lastSeq, OutSeq: sess.out.Last(),
		Resumes: sess.resumes, Pings: sess.pings,
		Retained: sess.out.Len(), ResumeWindow: sess.srv.resumeWindow(),
		Statements:     len(sess.handles),
		Watermark:      int64(m.Watermark),
		EventTimeMax:   int64(m.MaxEventTime),
		WatermarkLag:   int64(m.WatermarkLag),
		ReorderPending: m.ReorderPending,
		ReorderDropped: m.ReorderDropped,
	}
	st.CheckpointWrites = m.Checkpoint.Writes
	st.CheckpointAgeMS = m.Checkpoint.Age.Milliseconds()
	return st
}

// attachLocked binds a (re)connection to the session and replays or
// rebases the durable output the client missed.
func (sess *session) attachLocked(conn net.Conn, w *bufio.Writer, enc *json.Encoder, recv uint64) {
	sess.detachLocked()
	sess.resumes++
	if hook := sess.srv.TraceHook; hook != nil {
		hook(greta.TraceEvent{Kind: greta.TraceSessionResume, Session: sess.id,
			Watermark: sess.rt.Watermark()})
	}
	sess.stopLingerLocked()
	sess.conn = conn
	sess.w = w
	sess.enc = enc
	if !sess.out.Covers(recv) {
		// The client's cursor fell behind the replay window: rebase.
		// Acknowledge first, then re-deliver every retained result with
		// fresh seqs; the client discards its collected set on the ack.
		sess.sendLocked(WireLine{Resumed: &WireResumed{ID: sess.id, Seq: sess.lastSeq, Rebase: true}}, false)
		sess.out.Clear()
		for _, id := range sess.order {
			h, ok := sess.handles[id]
			if !ok {
				continue
			}
			for _, r := range h.Delivered() {
				sess.sendLocked(resultLine(id, r), true)
			}
		}
	} else {
		sess.sendLocked(WireLine{Resumed: &WireResumed{ID: sess.id, Seq: sess.lastSeq}}, false)
		_ = sess.out.WriteAfter(sess.w, recv) // a write error is sticky: the flush below reports it
	}
	_ = sess.flushLocked() // a failed flush closes the conn, and its reader parks the session again
	sess.startHeartbeatLocked()
}

// record is one client line as ServeConn decoded it. One serves a
// connection for life: the fast parsers' buffers are reused, and only a
// line both refuse reaches encoding/json, which decodes it into a zeroed
// WireEvent — the maps and slices it makes are the line's own, so a
// map-carried event may keep them.
type record struct {
	kind recordKind
	el   eventLine
	bl   batchLine
	we   WireEvent
	err  error
}

type recordKind uint8

const (
	recEvent recordKind = iota // el holds an event line
	recBatch                   // bl holds a batch frame
	recWire                    // we holds what encoding/json decoded
	recBad                     // err says why encoding/json refused it
)

// decode parses line into r: the event-line parser, then the batch-frame
// parser, then encoding/json.
func (r *record) decode(line []byte) {
	switch {
	case r.el.parse(line):
		r.kind = recEvent
	case r.bl.parse(line):
		r.kind = recBatch
	default:
		r.we = WireEvent{}
		if r.err = json.Unmarshal(line, &r.we); r.err != nil {
			r.kind = recBad
		} else {
			r.kind = recWire
		}
	}
}

// handle applies one decoded client line: the one place a reader takes
// the session lock, and the one flush of the output the line caused.
// stop reports that this reader is done: the session finished, ended
// underneath it, or its connection was stolen by a resume (a line torn
// by the very break being resumed must not fault the healed session).
func (sess *session) handle(myConn net.Conn, rec *record) (stop bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return true
	}
	defer sess.flushLocked() // a failed flush closes the conn, and this reader parks the session
	switch {
	case rec.kind == recBatch:
		sess.handleBatchLocked(&rec.bl, nil)
	case rec.kind == recBad:
		sess.sendLocked(WireLine{Error: fmt.Sprintf("bad event: %v", rec.err)}, false)
	case rec.kind == recWire && rec.we.Cmd == "batch":
		sess.handleBatchLocked(&rec.bl, rec.bl.fromWire(&rec.we, sess.shard != nil))
	case rec.kind == recWire && rec.we.Cmd != "":
		return sess.commandLocked(&rec.we)
	case sess.shard != nil:
		// An event, refused before admission: the line consumes no seq.
		sess.sendLocked(WireLine{Error: "event: a shard session takes batch frames only"}, false)
	case rec.kind == recEvent:
		// Bound to a cached schema instead of carrying attribute maps.
		if sess.admitLocked("event", rec.el.seq) {
			sess.applyEventLocked(rec.el.seq, sess.bindLocked(&rec.el, sess.evID+1))
		}
	case rec.we.Type == "":
		sess.sendLocked(WireLine{Error: "event missing type"}, false)
	case sess.admitLocked("event", rec.we.Seq):
		sess.applyEventLocked(rec.we.Seq, &greta.Event{
			ID:    sess.evID + 1,
			Type:  greta.Type(rec.we.Type),
			Time:  rec.we.Time,
			Attrs: rec.we.Attrs,
			Str:   rec.we.Str,
		})
	}
	return false
}

// commandLocked processes one command line (a WireEvent with a cmd other
// than "batch").
func (sess *session) commandLocked(we *WireEvent) (stop bool) {
	// Shard mode intercepts its own commands; everything else — flush,
	// checkpoint, session, resume — keeps its ordinary meaning.
	if we.Cmd == "shard" || (sess.shard != nil && shardFrame(we.Cmd)) {
		sess.handleShardLine(we)
		return false
	}
	switch we.Cmd {
	case "flush":
		sess.finishLocked()
		return true
	case "session":
		sess.enableLocked()
	case "resume":
		sess.sendLocked(WireLine{Error: "resume: already in a session (resume must be the first line of a new connection)"}, false)
	case "register":
		sess.registerLocked(we)
	case "close":
		h, ok := sess.handles[we.ID]
		if !ok {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("close: unknown statement %q", we.ID)}, false)
			break
		}
		delete(sess.handles, we.ID)
		if err := h.Close(); err != nil {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("close %s: %v", we.ID, err)}, false)
		} else {
			sess.sendLocked(WireLine{Closed: we.ID}, false)
		}
	case "stats":
		sess.sendLocked(WireLine{SessStats: sess.statsLocked()}, false)
	case "checkpoint":
		// No barrier: with slack armed the snapshot carries the pending
		// disorder window, and a restore rehydrates it — flushing here
		// would silently narrow the window instead.
		ok := true
		if err := sess.rt.Checkpoint(); err != nil {
			// Degrade loudly but keep serving: the previous generation
			// (if any) is still valid and ingestion continues.
			sess.sendLocked(WireLine{Warn: fmt.Sprintf("checkpoint: %v", err)}, false)
			ok = false
		}
		sess.sendLocked(WireLine{Checkpointed: &ok}, false)
	default:
		sess.sendLocked(WireLine{Error: fmt.Sprintf("unknown command %q", we.Cmd)}, false)
	}
	return false
}

// registerLocked compiles and attaches a client-registered statement.
// Lifecycle operations are reorder barriers inside the runtime: events
// sent before the command pass through the slack buffer first, so the
// registration watermark cuts at the command, and a closing statement's
// final windows count every prior event.
func (sess *session) registerLocked(we *WireEvent) {
	if !sess.srv.AllowRegister {
		sess.sendLocked(WireLine{Error: "register: disabled on this server"}, false)
		return
	}
	stmt, err := greta.Compile(we.Query, sess.srv.CompileOptions...)
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("register: %v", err)}, false)
		return
	}
	var opts []greta.RegisterOption
	if we.ID != "" {
		opts = append(opts, greta.WithID(we.ID))
	}
	h, err := sess.rt.Register(stmt, opts...)
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("register: %v", err)}, false)
		return
	}
	sess.wire(h)
	sess.sendLocked(WireLine{Registered: &WireRegistered{ID: h.ID(), Query: h.Query()}}, false)
}

// admitLocked is the seq admission every sequenced frame — event line,
// batch frame, shard frame — passes before it is applied. In a
// resumable session the seq must be the next one: a duplicate from a
// resume replay is skipped silently, a gap or a missing seq is
// reported. The caller commits lastSeq once the frame is applied.
func (sess *session) admitLocked(what string, seq uint64) bool {
	if !sess.resumable {
		return true
	}
	switch {
	case seq == 0:
		sess.sendLocked(WireLine{Error: what + " missing seq (session mode)"}, false)
	case seq <= sess.lastSeq:
		// duplicate from a resume replay: already applied
	case seq != sess.lastSeq+1:
		sess.sendLocked(WireLine{Error: fmt.Sprintf("sequence gap: got %d, want %d", seq, sess.lastSeq+1)}, false)
	default:
		return true
	}
	return false
}

// applyEventLocked feeds one admitted event (engine id evID+1) to the
// runtime and commits the session cursors.
func (sess *session) applyEventLocked(seq uint64, ev *greta.Event) {
	err := sess.rt.Process(ev)
	// Advance the cursors only after Process returns: a boundary
	// checkpoint fires inside Process BEFORE the trigger event is
	// applied, so the snapshot's meta must still point at the previous
	// seq — otherwise a restore replays from one event too far and the
	// trigger is silently lost. The seq is consumed even when the event
	// is dropped for disorder (the drop is deterministic on replay).
	// Ids equal seqs until the first batch frame, which consumes one seq
	// but an id per row.
	sess.evID++
	if sess.resumable {
		sess.lastSeq = seq
	}
	if err != nil {
		if errors.Is(err, greta.ErrOutOfOrder) {
			// Dropped by design (paper §2); report without failing the
			// session or any in-flight command acknowledgement. The
			// OrderError carries the event time and violated watermark.
			sess.dropped++
			sess.sendLocked(WireLine{Warn: err.Error()}, false)
			return
		}
		sess.sendLocked(WireLine{Error: err.Error()}, false)
		return
	}
	sess.processed++
}

// handleBatchLocked admits and applies one decoded batch frame; err is
// what the generic path's conversion found wrong with it. A shard
// session routes the rows to its slots, the seq consumed whatever comes
// of it. An ordinary session ingests them with one ProcessBatch call,
// so the runtime hashes each partition-key run once and pre-filters
// predicate columns. In a resumable session the frame carries one
// frame-level seq — resume dedup skips whole duplicate frames — and its
// rows consume engine ids from the evID cursor, committed with lastSeq
// after the call. A scheduled snapshot can fire inside the call; the
// runtime then tells metaBytes how many of the frame's rows it holds,
// the snapshot records them (sessionMeta.FrameRows), and a restored
// session's replay of the frame skips precisely that prefix:
// exactly-once either way.
func (sess *session) handleBatchLocked(bl *batchLine, err error) {
	what := "batch"
	if sess.shard != nil {
		what = "shard frame"
	}
	if !sess.admitLocked(what, bl.seq) {
		return
	}
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: %v", err)}, false)
	}
	if sess.shard != nil {
		if err == nil {
			sess.applyShardBatchLocked(bl)
		}
		sess.lastSeq = bl.seq
		return
	}
	if err != nil {
		return
	}
	// Restored mid-frame: the snapshot already contains this frame's
	// first frameSkip rows (their ids are committed in evID); apply only
	// the tail.
	b := sess.batchLocked(bl, int(min(sess.frameSkip, uint64(len(bl.times)))))
	acc, err := sess.rt.ProcessBatch(b)
	sess.evID += uint64(b.Len())
	sess.frameSkip = 0
	sess.processed += uint64(acc)
	if d := b.Len() - acc; d > 0 {
		sess.dropped += uint64(d)
		sess.sendLocked(WireLine{Warn: fmt.Sprintf("batch: %d of %d rows dropped for disorder", d, b.Len())}, false)
	}
	if sess.resumable {
		sess.lastSeq = bl.seq
	}
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: %v", err)}, false)
	}
}

// enableLocked turns the session resumable ({"cmd":"session"}).
func (sess *session) enableLocked() {
	srv := sess.srv
	if srv.Linger <= 0 {
		sess.sendLocked(WireLine{Error: "session: resume disabled on this server (set Server.Linger)"}, false)
		return
	}
	if sess.resumable {
		sess.sendLocked(WireLine{Error: "session: already enabled"}, false)
		return
	}
	if sess.evID > 0 {
		// Event ids must equal seqs for the dedup/replay contract; a
		// late enable would leave a prefix without them.
		sess.sendLocked(WireLine{Error: "session: must precede all events"}, false)
		return
	}
	id, err := srv.addSession(sess, "")
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("session: %v", err)}, false)
		return
	}
	sess.id = id
	sess.resumable = true
	sess.out.Init(srv.resumeWindow(), 0)
	sess.rt.SetCheckpointMeta(sess.metaBytes)
	sess.sendLocked(WireLine{Session: &WireSession{ID: id, LingerMS: srv.Linger.Milliseconds()}}, false)
	sess.startHeartbeatLocked()
}
