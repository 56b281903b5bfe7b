package netstream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/greta-cep/greta"
)

// defaultResumeWindow bounds the durable output lines a session
// retains for resume replay when ResumeWindow is unset.
const defaultResumeWindow = 4096

// Server serves GRETA sessions: each accepted connection gets its own
// Runtime (its own stream) hosting the configured statements, plus any
// the client registers mid-stream.
type Server struct {
	// Statements are registered into every session's Runtime at accept,
	// with ids "q0", "q1", ... in order.
	Statements []*greta.Statement
	// AllowRegister permits {"cmd":"register","query":...}: the query
	// is compiled with CompileOptions and attached mid-stream.
	AllowRegister bool
	// AllowShard permits shard-session commands ({"cmd":"shard"} and
	// the frames that follow): the connection hosts cluster worker
	// slots driven by a remote coordinator (see the cluster package).
	// Shard sessions require resumability (Linger > 0) — their links
	// heal through the same seq/replay machinery as ordinary sessions.
	AllowShard bool
	// CompileOptions apply to client-registered queries.
	CompileOptions []greta.Option
	// Slack enables the reorder buffer with the given time slack.
	Slack greta.Time
	// RuntimeOptions, when set, supplies construction options for each
	// session's Runtime — typically greta.WithCheckpoint with a
	// per-session directory (sessions are independent runtimes; two
	// sessions sharing one directory would interleave generations).
	// Called once per accepted connection. The server always routes
	// checkpoint-write failures to {"warn":...} lines, overriding any
	// WithCheckpointErrors in the returned slice.
	RuntimeOptions func() []greta.RuntimeOption
	// ReadTimeout bounds each read from the connection; IdleTimeout
	// bounds the gap since the last byte of client activity. When either
	// expires the server sends a final {"error":"timeout"} line and
	// closes the connection (open windows are NOT flushed — a stalled
	// client is indistinguishable from a dead one; a resumable session
	// lingers instead of tearing down). Zero disables.
	ReadTimeout time.Duration
	IdleTimeout time.Duration
	// WriteTimeout bounds each write of result/acknowledgement lines;
	// a stuck client ends the session instead of blocking the server.
	WriteTimeout time.Duration
	// Linger enables resumable sessions: after a disconnect the session
	// state (runtime, handles, reorder window, cursors) is retained
	// this long awaiting a resume before being torn down. Zero rejects
	// {"cmd":"session"}.
	Linger time.Duration
	// Heartbeat, when positive, sends {"ping":n} lines at this interval
	// on resumable sessions so a dead peer fails the write path well
	// before ReadTimeout notices the silence.
	Heartbeat time.Duration
	// ResumeWindow bounds the durable output lines retained per session
	// for resume replay (default 4096). A client whose consumed cursor
	// falls behind the window is rebased: the retained results are
	// re-delivered in full.
	ResumeWindow int
	// MaxLine bounds one inbound frame's size in bytes (default 1 MiB).
	// Shard servers raise it: an adopt frame carries whole slot
	// snapshots in one line.
	MaxLine int
	// TraceHook, when set, receives lifecycle trace events from every
	// session: the runtime's own kinds (statement register/close,
	// checkpoint begin/commit/fail) plus TraceSessionResume on each
	// re-attach, with TraceEvent.Session carrying the session id. It
	// overrides any WithTraceHook in RuntimeOptions. The hook fires on
	// serving paths with session (and possibly runtime) locks held — it
	// must return quickly and must not call back into the server.
	TraceHook func(greta.TraceEvent)

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	nextSess uint64
	sessions map[string]*session   // resumable sessions by id
	all      map[*session]struct{} // every live session (Shutdown drain targets)
	conns    map[net.Conn]struct{} // every live connection (Shutdown force-close)
	wg       sync.WaitGroup
}

// Serve accepts connections on ln until it is closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close stops accepting connections. Established sessions keep
// running; use Shutdown for a graceful drain.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown drains the server gracefully: it stops accepting, then for
// every live session barriers the reorder buffer, checkpoints the
// runtime (when armed — degraded writes surface as warn lines), and
// sends the terminal {"done":...} summary before closing the
// connection. Parked resumable sessions are drained the same way
// (their summaries have no peer to reach, but their checkpoints do).
// Remaining connections without a session are closed, and Shutdown
// waits for every connection handler and heartbeat to exit, or until
// ctx is done.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		_ = s.ln.Close()
	}
	sessions := make([]*session, 0, len(s.all))
	for sess := range s.all {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.drain()
	}
	// Connections that never became a session (or raced session
	// teardown) are cut; their readers exit on the closed conn.
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) resumeWindow() int {
	if s.ResumeWindow > 0 {
		return s.ResumeWindow
	}
	return defaultResumeWindow
}

// addSession registers a resumable session and issues its id (or
// validates a restored one). Inner lock: callers may hold sess.mu.
func (s *Server) addSession(sess *session, id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("server shutting down")
	}
	if s.sessions == nil {
		s.sessions = map[string]*session{}
	}
	if id == "" {
		for {
			id = fmt.Sprintf("s%d", s.nextSess)
			s.nextSess++
			if _, taken := s.sessions[id]; !taken {
				break
			}
		}
	} else if _, taken := s.sessions[id]; taken {
		return "", fmt.Errorf("session %q already live", id)
	}
	s.sessions[id] = sess
	if s.all == nil {
		s.all = map[*session]struct{}{}
	}
	s.all[sess] = struct{}{}
	return id, nil
}

// trackSession registers a plain (non-resumable) session for Shutdown
// drains. Fails once the server is draining.
func (s *Server) trackSession(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.all == nil {
		s.all = map[*session]struct{}{}
	}
	s.all[sess] = struct{}{}
	return true
}

// removeSession forgets a torn-down session. Inner lock: callers hold
// sess.mu.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.all, sess)
	if sess.id != "" {
		delete(s.sessions, sess.id)
	}
}

func (s *Server) lookupSession(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// timeoutReader applies the session's read deadlines: each Read must
// finish within ReadTimeout, and must begin within IdleTimeout of the
// last byte of client activity (any byte counts — idleness means a
// silent client, not a slow line).
type timeoutReader struct {
	conn       net.Conn
	read, idle time.Duration
	last       time.Time
}

func (r *timeoutReader) Read(p []byte) (int, error) {
	var dl time.Time
	if r.idle > 0 {
		if r.last.IsZero() {
			r.last = time.Now()
		}
		dl = r.last.Add(r.idle)
	}
	if r.read > 0 {
		if d := time.Now().Add(r.read); dl.IsZero() || d.Before(dl) {
			dl = d
		}
	}
	if !dl.IsZero() {
		_ = r.conn.SetReadDeadline(dl)
	}
	n, err := r.conn.Read(p)
	if n > 0 {
		r.last = time.Now()
	}
	return n, err
}

// deadlineWriter bounds each write so a stuck client cannot block the
// session goroutine forever.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if w.d > 0 {
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.d))
	}
	return w.conn.Write(p)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// newSession builds the per-connection session state: a fresh Runtime,
// reorder slack, and the configured statements. Runs before the session is shared, so no locking.
func (s *Server) newSession(conn net.Conn, w *bufio.Writer, enc *json.Encoder) *session {
	sess := &session{srv: s, conn: conn, w: w, enc: enc, handles: map[string]*greta.Handle{}}
	var opts []greta.RuntimeOption
	if s.RuntimeOptions != nil {
		opts = s.RuntimeOptions()
	}
	// Scheduled checkpoint-write failures degrade to warn lines
	// instead of killing the session: the previous generation stays
	// valid and ingestion continues.
	opts = append(opts, greta.WithCheckpointErrors(func(err error) {
		sess.sendLocked(WireLine{Warn: fmt.Sprintf("checkpoint: %v", err)}, false)
	}))
	if s.TraceHook != nil {
		opts = append(opts, greta.WithTraceHook(s.TraceHook))
	}
	sess.rt = greta.NewRuntime(opts...)
	fail := func(err error) *session {
		sess.sendLocked(WireLine{Error: err.Error()}, false)
		_ = sess.flushLocked()
		_ = sess.rt.Close()
		return nil
	}
	if s.Slack > 0 {
		if err := sess.rt.SetReorderSlack(s.Slack); err != nil {
			return fail(fmt.Errorf("slack: %v", err))
		}
	}
	for _, stmt := range s.Statements {
		h, err := sess.rt.Register(stmt)
		if err != nil {
			return fail(fmt.Errorf("register: %v", err))
		}
		sess.wire(h)
	}
	if !s.trackSession(sess) {
		return fail(errors.New("server shutting down"))
	}
	return sess
}

// resume attaches a reconnecting client to its lingering session:
// steals the old connection if one is still around, replays the
// durable output past the client's cursor, and returns the session for
// the caller's reader loop. nil means the resume was rejected (an
// error line was sent).
func (s *Server) resume(conn net.Conn, w *bufio.Writer, enc *json.Encoder, we *WireEvent) *session {
	reject := func(msg string) *session {
		_ = enc.Encode(WireLine{Error: msg})
		_ = w.Flush()
		return nil
	}
	if s.isClosed() {
		return reject("resume: server shutting down")
	}
	sess := s.lookupSession(we.Session)
	if sess == nil {
		return reject(fmt.Sprintf("resume: unknown session %q", we.Session))
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended {
		return reject(fmt.Sprintf("resume: session %q ended", we.Session))
	}
	sess.attachLocked(conn, w, enc, we.Recv)
	return sess
}

// RestoreSession rebuilds a parked resumable session from the
// checkpoint directory a crashed server left behind: the snapshot's
// meta blob supplies the session id and cursors, the engine state
// (including the reorder buffer's in-flight events) is rehydrated, and
// the session lingers awaiting a client resume exactly as if the
// connection had just dropped. The resuming client re-sends its
// buffered events after the restored seq cursor; no dedup pass is
// needed because sequence numbers identify the replay precisely.
// Requires Server.Linger > 0. Returns the restored session id.
func (s *Server) RestoreSession(dir string) (string, error) {
	if s.Linger <= 0 {
		return "", errors.New("netstream: RestoreSession requires Server.Linger > 0")
	}
	sess := &session{srv: s, resumable: true, handles: map[string]*greta.Handle{}}
	res, err := greta.Restore(dir, greta.WithCheckpointErrors(func(err error) {
		sess.sendLocked(WireLine{Warn: fmt.Sprintf("checkpoint: %v", err)}, false)
	}))
	if err != nil {
		return "", err
	}
	fail := func(err error) (string, error) {
		_ = res.Close()
		return "", err
	}
	if res.Meta == nil {
		return fail(errors.New("netstream: checkpoint carries no session meta (not a netstream session?)"))
	}
	var m sessionMeta
	if err := json.Unmarshal(res.Meta, &m); err != nil {
		return fail(fmt.Errorf("netstream: bad session meta: %w", err))
	}
	if m.ID == "" {
		return fail(errors.New("netstream: session meta has no id"))
	}
	sess.rt = res.Runtime
	sess.id = m.ID
	sess.lastSeq = m.LastSeq
	// Every durable line before the snapshot is gone from the replay
	// window; a client that consumed less than that is rebased onto the
	// retained result set.
	sess.out.Init(s.resumeWindow(), m.OutSeq)
	sess.processed = m.Processed
	sess.dropped = m.Dropped
	if m.V >= 2 {
		sess.evID = m.EvID
		sess.frameSkip = m.FrameRows
	} else {
		// v1 meta (before batch frames over sessions): ids equal seqs.
		sess.evID = m.LastSeq
	}
	for _, h := range res.Handles {
		sess.wire(h)
	}
	sess.rt.SetCheckpointMeta(sess.metaBytes)
	if _, err := s.addSession(sess, m.ID); err != nil {
		return fail(fmt.Errorf("netstream: %v", err))
	}
	sess.mu.Lock()
	sess.lingerT = time.AfterFunc(s.Linger, sess.expire)
	sess.mu.Unlock()
	return m.ID, nil
}

// ServeConn runs one session over an established connection.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	defer conn.Close()

	w := bufio.NewWriter(&deadlineWriter{conn: conn, d: s.WriteTimeout})
	enc := json.NewEncoder(w)
	var sess *session
	// An engine-side panic must reach the client as an error line, not
	// a silently dropped connection; the session is unrecoverable.
	defer func() {
		if r := recover(); r != nil {
			_ = enc.Encode(WireLine{Error: fmt.Sprintf("internal error: %v", r)})
			_ = w.Flush()
			if sess != nil {
				sess.fail(conn)
			}
		}
	}()

	sc := bufio.NewScanner(&timeoutReader{conn: conn, read: s.ReadTimeout, idle: s.IdleTimeout})
	maxLine := s.MaxLine
	if maxLine <= 0 {
		maxLine = 1024 * 1024
	}
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var el eventLine
	var bl batchLine
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if event := el.parse(line); event || bl.parse(line) {
			if sess == nil {
				if sess = s.newSession(conn, w, enc); sess == nil {
					return
				}
			}
			stop, handled := false, true
			if event {
				stop, handled = sess.handleEventLine(conn, &el)
			} else {
				stop = sess.handleBatchLine(conn, &bl)
			}
			if stop {
				return
			} else if handled {
				continue
			}
		}
		var we WireEvent
		if err := json.Unmarshal(line, &we); err != nil {
			if sess != nil {
				if sess.reportBadLine(conn, err) {
					return
				}
			} else {
				_ = enc.Encode(WireLine{Error: fmt.Sprintf("bad event: %v", err)})
				_ = w.Flush()
			}
			continue
		}
		if sess == nil {
			if we.Cmd == "resume" {
				if sess = s.resume(conn, w, enc, &we); sess == nil {
					return
				}
				continue
			}
			if sess = s.newSession(conn, w, enc); sess == nil {
				return
			}
		}
		if sess.handleLine(conn, &we) {
			return
		}
	}
	timedOut := isTimeout(sc.Err())
	if sess == nil {
		if timedOut {
			_ = enc.Encode(WireLine{Error: "timeout"})
			_ = w.Flush()
		}
		return
	}
	sess.park(conn, timedOut)
}
