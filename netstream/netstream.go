// Package netstream provides network ingestion for GRETA runtimes: a
// line-oriented JSON protocol over TCP (or any net.Conn) that feeds a
// multi-query Runtime from remote event producers and pushes window
// results back as they are emitted, tagged with the statement that
// produced them. Statements can be registered and closed mid-stream,
// and sessions can survive connection loss: a client that enabled
// resumability reconnects, proves how far it got, and the stream
// continues exactly once from where it broke.
//
// Protocol (newline-delimited JSON):
//
//	client → server   {"type":"Stock","time":17,"attrs":{"price":99.5},"str":{"company":"co01"}}
//	client → server   {"cmd":"batch","type":"Stock","times":[17,18],
//	                   "cols":{"price":[99.5,98.0]},"scols":{"company":["co01","co01"]}}
//	                                              — a columnar batch: one timestamp per row
//	                                                plus per-attribute value arrays, decoded
//	                                                straight into the runtime's columnar
//	                                                ingest path (Runtime.ProcessBatch). Rows
//	                                                must be in non-decreasing time order.
//	                                                In a resumable session the frame carries
//	                                                one frame-level "seq": resume dedup skips
//	                                                whole duplicate frames, so batches stay
//	                                                columnar end to end
//	client → server   {"cmd":"register","query":"RETURN COUNT(*) PATTERN ..."}
//	client → server   {"cmd":"close","id":"q1"}   — close one statement, flushing its windows
//	client → server   {"cmd":"checkpoint"}        — write a durable snapshot of the session
//	                                                runtime now (requires RuntimeOptions
//	                                                arming greta.WithCheckpoint)
//	client → server   {"cmd":"session"}           — enable resumability; must precede every
//	                                                event (requires Server.Linger > 0)
//	client → server   {"cmd":"resume","session":"s0","recv":41}
//	                                              — first line of a reconnect: attach to the
//	                                                lingering session, having consumed server
//	                                                output through seq 41
//	client → server   {"cmd":"flush"}             — close all, receive remaining results, end session
//	server → client   {"session":{"id":"s0","linger_ms":30000}}
//	                                              — resumability acknowledged; events must now
//	                                                carry contiguous 1-based "seq" numbers
//	server → client   {"resumed":{"id":"s0","seq":12}}
//	                                              — reconnect acknowledged: the server applied
//	                                                events through seq 12; re-send everything
//	                                                after it. "rebase":true means the client
//	                                                fell behind the replay window and the
//	                                                retained results are re-delivered in full
//	                                                (discard previously collected ones)
//	server → client   {"result":{"stmt":"q0","group":"...","wid":3,"start":30,"end":60,"values":[42]},"seq":7}
//	                                              — results in a resumable session carry
//	                                                server-side seqs; duplicates replayed
//	                                                after a resume are skipped by seq
//	server → client   {"registered":{"id":"q1","query":"..."}}
//	server → client   {"closed":"q1"}
//	server → client   {"ping":3}                  — heartbeat (Server.Heartbeat); clients
//	                                                ignore it, dead peers fail the write
//	server → client   {"error":"..."}             — malformed input, rejected commands, and
//	                                                internal panics are reported, never
//	                                                silently swallowed; clients treat them as
//	                                                session faults (a malformed producer), so
//	                                                one may surface from a later command call
//	server → client   {"warn":"..."}              — non-fatal per-event diagnostics
//	                                                (out-of-order drops, failed checkpoint
//	                                                writes); the session continues
//	server → client   {"checkpointed":true}       — checkpoint acknowledgement; false (after
//	                                                a {"warn":...} line saying why) when the
//	                                                write failed or checkpointing is not
//	                                                configured — the session keeps serving
//	                                                on the previous generation either way
//	server → client   {"error":"timeout"}         — the idle-session or read deadline
//	                                                expired; the server closes the
//	                                                connection after this line (a resumable
//	                                                session lingers for Server.Linger)
//	server → client   {"done":true,"events":12345,"dropped":0,
//	                   "shared_stmts":4,"shared_graphs":1,"stats":{"q0":{...}}}
//	                                              — the session's final summary also carries
//	                                                per-statement engine Stats and how far
//	                                                the shared sub-plan network collapsed
//	                                                the statement set
//
// Events must arrive in non-decreasing time order per connection; an
// optional reorder slack buffers and re-sorts bounded disorder (the
// out-of-order handling the paper delegates upstream, §2). Events that
// still violate order are dropped, counted in "dropped", and reported
// via a {"warn":...} line (warn, not error, so in-flight command
// acknowledgements are not misattributed as failures).
//
// # Session resilience
//
// With Server.Linger > 0 a client may send {"cmd":"session"} before
// its first event; from then on every event carries a contiguous
// client-side sequence number and every durable server line (results)
// carries a server-side one. When the connection drops, the server
// parks the session — Runtime, statement handles, reorder window,
// counters — for the linger duration instead of tearing it down. The
// client reconnects (Client.Resume redials with the same backoff as
// DialContext), identifies the session, and reports the last server
// seq it consumed; the server replays the retained output lines after
// it and answers with the last event seq it applied, which the client
// uses to re-send the unacknowledged tail of its bounded send buffer.
// Duplicate events are skipped by seq on the server, duplicate results
// by seq on the client: exactly-once delivery over an at-least-once
// wire. If the server process itself restarted, RestoreSession
// rebuilds the parked session from its checkpoint directory — the
// snapshot embeds the session id and cursors (WithCheckpointMeta) and
// rehydrates the reorder buffer's in-flight events — and the same
// client resume proceeds against the recovered state.
//
// # Shard links
//
// With Server.AllowShard a resumable session can flip into shard mode
// ({"cmd":"shard"}): instead of feeding its own Runtime, the
// connection hosts cluster worker slots driven by a remote coordinator
// (see the cluster package). Shard frames — unit registration/close
// fan-out ("sreg"/"sclose"), per-statement window barriers
// ("barrier"), end of stream ("eos"), and slot migration
// ("handoff"/"adopt") — ride the same client-seq discipline as events,
// and the shard's partial windows, barrier acks, and unit stats travel
// back as durable seq-numbered lines, so a dropped link replays its
// unacked tail in both directions and the coordinator's merge applies
// every frame exactly once. Events arrive in columnar batch frames
// only, each row with its coordinator-computed route hashes (shards
// never rehash); a plain event line on a shard session is refused with
// an error line and consumes no seq.
//
// The coordinator's end of a shard link is this package's Client, the
// one client half of the protocol: Client.SendFrame stamps and rings
// the shard frames, Client.ReadLine hands over the server's lines
// (WireLine) with heartbeats swallowed and replayed lines skipped, and
// Client.Resume heals the link — the same dial backoff, handshake,
// ring replay and dedup an ordinary producer's session runs on.
package netstream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/ring"
)

// WireEvent is the JSON representation of one client→server line: an
// event, or a command (register/close/checkpoint/session/resume/flush).
type WireEvent struct {
	Cmd   string `json:"cmd,omitempty"`
	Query string `json:"query,omitempty"` // register: query text
	ID    string `json:"id,omitempty"`    // register (optional) / close: statement id
	// Seq is the client-side event sequence number (contiguous from 1)
	// in a resumable session; Session and Recv identify a resume.
	Seq     uint64             `json:"seq,omitempty"`
	Session string             `json:"session,omitempty"`
	Recv    uint64             `json:"recv,omitempty"`
	Type    string             `json:"type,omitempty"`
	Time    int64              `json:"time"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
	Str     map[string]string  `json:"str,omitempty"`
	// Times/Cols/SCols carry a {"cmd":"batch"} frame: one timestamp per
	// row plus per-attribute value arrays (every array len(Times) long),
	// decoded server-side straight into a columnar event batch.
	Times []int64              `json:"times,omitempty"`
	Cols  map[string][]float64 `json:"cols,omitempty"`
	SCols map[string][]string  `json:"scols,omitempty"`
	// Shard-link extensions (Server.AllowShard; see the cluster
	// package): a coordinator drives shard sessions with dedicated
	// commands — "shard" (handshake: Count is the cluster's worker-slot
	// modulus, Workers the slots hosted here), "sreg"/"sclose" (unit
	// fan-out), "barrier" (window release), "eos" (end of stream),
	// "handoff"/"adopt" (slot migration) — and its batch frames carry
	// pre-computed route hashes so shards never rehash.
	Count   int   `json:"count,omitempty"`
	Workers []int `json:"workers,omitempty"`
	SI      int   `json:"si,omitempty"`    // sreg/sclose/barrier: unit index
	GI      int   `json:"gi,omitempty"`    // sreg: route group; batch: frame-level route group
	Exact   bool  `json:"exact,omitempty"` // sreg: exact arithmetic mode
	Force   bool  `json:"force,omitempty"` // sreg: forced vertex scan
	Hi      int64 `json:"hi,omitempty"`    // barrier: highest window id closed
	// A shard batch frame routes its rows by FNV-1a hash (hex): GI+RH
	// (one hash per row, all rows in route group GI) or RGs/RHs (per-row
	// group lists).
	RH    []string          `json:"rh,omitempty"`
	RGs   [][]int           `json:"rgs,omitempty"`
	RHs   [][]string        `json:"rhs,omitempty"`
	Blobs map[string]string `json:"blobs,omitempty"` // adopt: worker slot → base64 snapshot
	EvID  uint64            `json:"evid,omitempty"`  // adopt: donor session's event-ID counter
}

// sequencedFrame reports whether a client line of this kind rides the
// seq discipline of a resumable session — stamped and retained by the
// client, admitted by seq on the server: event lines, batch frames and
// every shard-link frame. The other commands are requests answered in
// line, neither numbered nor replayed.
func sequencedFrame(cmd string) bool { return cmd == "" || cmd == "shard" || shardFrame(cmd) }

// WireResult is the JSON representation of one emitted result, tagged
// with the id of the statement that produced it.
type WireResult struct {
	Stmt   string    `json:"stmt"`
	Group  string    `json:"group"`
	Wid    int64     `json:"wid"`
	Start  int64     `json:"start"`
	End    int64     `json:"end"`
	Values []float64 `json:"values"`
}

// WireRegistered acknowledges a register command.
type WireRegistered struct {
	ID    string `json:"id"`
	Query string `json:"query"`
}

// WireSession acknowledges a session command: the server-issued
// session id and how long the session lingers after a disconnect.
type WireSession struct {
	ID       string `json:"id"`
	LingerMS int64  `json:"linger_ms"`
}

// WireResumed acknowledges a resume: Seq is the last event sequence
// the server applied (re-send everything after it). Rebase means the
// client's consumed-output cursor fell behind the server's replay
// window: previously collected results must be discarded, the full
// retained set is re-delivered with fresh seqs.
type WireResumed struct {
	ID     string `json:"id"`
	Seq    uint64 `json:"seq"`
	Rebase bool   `json:"rebase,omitempty"`
}

// WireDone is the session summary delivered with the final
// {"done":true} line and retained by the client (Client.Summary).
type WireDone struct {
	Events       uint64
	Dropped      uint64
	SharedStmts  int
	SharedGraphs int
	Stats        map[string]greta.Stats
}

// WireSessStats is the reply to {"cmd":"stats"}: a live snapshot of
// the session's resilience cursors and its runtime's observability
// counters, cheap enough to poll mid-stream (no barrier, no flush).
type WireSessStats struct {
	// Session is the server-issued id ("" for a non-resumable session).
	Session   string `json:"session,omitempty"`
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped"`
	// LastSeq/OutSeq are the resume cursors: the last client event seq
	// applied and the newest durable output seq emitted.
	LastSeq uint64 `json:"last_seq,omitempty"`
	OutSeq  uint64 `json:"out_seq,omitempty"`
	// Resumes counts re-attaches after connection loss; Pings counts
	// heartbeats sent on the current session.
	Resumes uint64 `json:"resumes,omitempty"`
	Pings   uint64 `json:"pings,omitempty"`
	// Retained is the send-ring occupancy: durable output lines held
	// for resume replay, bounded by ResumeWindow.
	Retained     int `json:"retained"`
	ResumeWindow int `json:"resume_window"`
	Statements   int `json:"statements"`
	// Watermark/EventTimeMax/WatermarkLag mirror the runtime's live
	// gauges (-1 before the first event).
	Watermark      int64  `json:"watermark"`
	EventTimeMax   int64  `json:"event_time_max"`
	WatermarkLag   int64  `json:"watermark_lag,omitempty"`
	ReorderPending int    `json:"reorder_pending,omitempty"`
	ReorderDropped uint64 `json:"reorder_dropped,omitempty"`
	// Checkpoint durability: successful writes and the wall-clock age
	// of the newest snapshot in milliseconds (0 when none).
	CheckpointWrites uint64 `json:"checkpoint_writes,omitempty"`
	CheckpointAgeMS  int64  `json:"checkpoint_age_ms,omitempty"`
}

// WireLine is the JSON representation of one server→client line; a
// line sets exactly one of its payload fields. Client.ReadLine hands
// them to callers that drive the protocol themselves (a cluster
// coordinator's shard links).
type WireLine struct {
	Result     *WireResult     `json:"result,omitempty"`
	Registered *WireRegistered `json:"registered,omitempty"`
	Closed     string          `json:"closed,omitempty"`
	Session    *WireSession    `json:"session,omitempty"`
	Resumed    *WireResumed    `json:"resumed,omitempty"`
	// Seq numbers durable lines (results) in a resumable session so a
	// resuming client can dedup replays; Ping is the heartbeat counter.
	Seq  uint64 `json:"seq,omitempty"`
	Ping uint64 `json:"ping,omitempty"`
	Done bool   `json:"done,omitempty"`
	// Events/Drop/shared/Stats ride on the done line.
	Events uint64 `json:"events,omitempty"`
	Drop   uint64 `json:"dropped,omitempty"`
	// SharedStmts/SharedGraphs report the session runtime's sub-plan
	// sharing at flush: SharedStmts statements were served by
	// SharedGraphs shared GRETA graphs (the rest ran exclusively).
	SharedStmts  int                    `json:"shared_stmts,omitempty"`
	SharedGraphs int                    `json:"shared_graphs,omitempty"`
	Stats        map[string]greta.Stats `json:"stats,omitempty"`
	// Checkpointed acknowledges a checkpoint command: true on a durable
	// write, false when it degraded (a warn line preceding it says why).
	Checkpointed *bool `json:"checkpointed,omitempty"`
	// SessStats replies to {"cmd":"stats"}.
	SessStats *WireSessStats `json:"sess_stats,omitempty"`
	Error     string         `json:"error,omitempty"`
	Warn      string         `json:"warn,omitempty"`
	// Shard-session lines (all durable): partial windows, barrier acks,
	// per-unit stats, handshake/adopt acknowledgements, handoff blobs.
	Partial   *WirePartial   `json:"partial,omitempty"`
	Ack       *WireAck       `json:"ack,omitempty"`
	UnitStats *WireUnitStats `json:"unit_stats,omitempty"`
	Shard     *WireShardInfo `json:"shard,omitempty"`
	Handoff   *WireHandoff   `json:"handoff,omitempty"`
}

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

// sessionMeta is the opaque blob embedded in each checkpoint via
// WithCheckpointMeta: the session identity and cursors that must stay
// atomic with the engine state they describe.
type sessionMeta struct {
	ID        string `json:"id"`
	LastSeq   uint64 `json:"last_seq"`
	OutSeq    uint64 `json:"out_seq"`
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped"`
	// V distinguishes meta generations: v2 adds the engine event-id
	// cursor and mid-frame progress (batch frames over resumable
	// sessions). A v1 meta implies ids equal seqs.
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
	// so a snapshot firing inside the call still describes the state
	// before the in-flight event; batch frames commit it per row
	// together with frameRows, the mid-frame progress counter the
	// checkpoint meta persists. frameSkip is the restore-side
	// counterpart: rows of the next replayed frame already contained in
	// the snapshot.
	evID      uint64
	frameRows uint64
	frameSkip uint64
	// shard holds the cluster worker slots once the session flipped
	// into shard mode (Server.AllowShard + {"cmd":"shard"}).
	shard *shardState
	// schemas caches the per-(type, attribute-set) schemas batch frames
	// and event lines bind to, so repeated input of one shape reuses one
	// schema pointer (the runtime's columnar pre-filter caches per
	// schema identity). shapeKey is the lookup-key scratch and interned
	// the string-value table of the event-line path (bindLocked).
	schemas  map[string]*greta.Schema
	shapeKey []byte
	interned map[string]string
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
			_, _ = sess.w.Write(line)
		}
	} else if sess.conn != nil {
		err = sess.enc.Encode(o)
	}
	if err != nil && sess.conn != nil {
		what := "line"
		if r := o.Result; r != nil {
			what = fmt.Sprintf("result of statement %s, window %d, group %q", r.Stmt, r.Wid, r.Group)
		}
		_ = sess.enc.Encode(WireLine{Error: fmt.Sprintf("%s not delivered: %v", what, err)})
	}
}

// flushLocked pushes the buffered output lines to the peer (mu held).
// The error is the heartbeat's dead-peer signal.
func (sess *session) flushLocked() error {
	if sess.conn == nil {
		return nil
	}
	return sess.w.Flush()
}

// metaBytes is the WithCheckpointMeta provider: it runs on the ingest
// path inside rt.Process (which the session only calls under mu), so
// reading the cursors directly is safe and it must not lock.
func (sess *session) metaBytes() []byte {
	b, _ := json.Marshal(sessionMeta{
		ID: sess.id, LastSeq: sess.lastSeq, OutSeq: sess.out.Last(),
		Processed: sess.processed, Dropped: sess.dropped,
		V: 2, EvID: sess.evID, FrameRows: sess.frameRows,
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
			if err := sess.flushLocked(); err != nil {
				_ = myConn.Close() // wake the blocked reader; it parks the session
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
		_ = sess.w.Flush()
		_ = sess.conn.Close()
		sess.conn = nil
		sess.w = nil
		sess.enc = nil
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
	if sess.lingerT != nil {
		sess.lingerT.Stop()
		sess.lingerT = nil
	}
	if sess.shard != nil {
		sess.shard.discardLocked()
	}
	_ = sess.rt.Close()
	sess.detachLocked()
	sess.srv.removeSession(sess)
}

// finishLocked ends the session gracefully: barrier + close the
// runtime (flushing every open window through the result path), then
// send the {"done":...} summary with per-statement Stats.
func (sess *session) finishLocked() {
	if sess.ended {
		return
	}
	if sess.lingerT != nil {
		sess.lingerT.Stop()
		sess.lingerT = nil
	}
	if sess.shard != nil {
		sess.shard.discardLocked()
	}
	_ = sess.rt.Barrier()
	rs := sess.rt.Stats()
	_ = sess.rt.Close()
	stats := make(map[string]greta.Stats, len(sess.handles))
	for id, h := range sess.handles {
		stats[id] = h.Stats()
	}
	sess.ended = true
	sess.sendLocked(WireLine{Done: true, Events: sess.processed, Drop: sess.dropped,
		SharedStmts: rs.SharedStatements, SharedGraphs: rs.SharedGraphs, Stats: stats}, false)
	sess.detachLocked()
	sess.srv.removeSession(sess)
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
	sess.lingerT = time.AfterFunc(sess.srv.Linger, sess.expire)
}

// expire tears down a session whose linger window elapsed without a
// resume.
func (sess *session) expire() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != nil {
		return
	}
	sess.teardownLocked()
}

// fail tears the session down after an internal panic surfaced to the
// client as an error line.
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
	if sess.lingerT != nil {
		sess.lingerT.Stop()
		sess.lingerT = nil
	}
	_ = sess.rt.Barrier()
	if sess.rt.CheckpointArmed() {
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
	if sess.lingerT != nil {
		sess.lingerT.Stop()
		sess.lingerT = nil
	}
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
		_ = sess.out.WriteAfter(sess.w, recv)
	}
	_ = sess.flushLocked()
	sess.startHeartbeatLocked()
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

// reportBadLine surfaces an unparseable line as an error, unless this
// reader's connection was stolen by a resume (a line torn by the very
// break being resumed must not fault the healed session) — then the
// reader just exits.
func (sess *session) reportBadLine(myConn net.Conn, err error) (stop bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return true
	}
	sess.sendLocked(WireLine{Error: fmt.Sprintf("bad event: %v", err)}, false)
	_ = sess.flushLocked()
	return false
}

// handleLine processes one decoded client line under the session lock.
// stop reports that this reader is done: the session finished, ended
// underneath it, or its connection was stolen by a resume.
func (sess *session) handleLine(myConn net.Conn, we *WireEvent) (stop bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return true
	}
	defer sess.flushLocked()
	// Shard mode intercepts its own commands plus event/batch lines
	// (they carry coordinator route info); everything else — flush,
	// checkpoint, session, resume — keeps its ordinary meaning.
	if we.Cmd == "shard" || (sess.shard != nil && shardFrame(we.Cmd)) {
		return sess.handleShardLine(we)
	}
	switch we.Cmd {
	case "flush":
		sess.finishLocked()
		return true
	case "session":
		sess.enableLocked()
		return false
	case "resume":
		sess.sendLocked(WireLine{Error: "resume: already in a session (resume must be the first line of a new connection)"}, false)
		return false
	case "register":
		if !sess.srv.AllowRegister {
			sess.sendLocked(WireLine{Error: "register: disabled on this server"}, false)
			return false
		}
		// Lifecycle operations are reorder barriers inside the runtime:
		// events sent before the command pass through the slack buffer
		// first, so the registration watermark cuts at the command, and
		// a closing statement's final windows count every prior event.
		stmt, err := greta.Compile(we.Query, sess.srv.CompileOptions...)
		if err != nil {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("register: %v", err)}, false)
			return false
		}
		var opts []greta.RegisterOption
		if we.ID != "" {
			opts = append(opts, greta.WithID(we.ID))
		}
		h, err := sess.rt.Register(stmt, opts...)
		if err != nil {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("register: %v", err)}, false)
			return false
		}
		sess.wire(h)
		sess.sendLocked(WireLine{Registered: &WireRegistered{ID: h.ID(), Query: h.Query()}}, false)
		return false
	case "close":
		h, ok := sess.handles[we.ID]
		if !ok {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("close: unknown statement %q", we.ID)}, false)
			return false
		}
		delete(sess.handles, we.ID)
		if err := h.Close(); err != nil {
			sess.sendLocked(WireLine{Error: fmt.Sprintf("close %s: %v", we.ID, err)}, false)
			return false
		}
		sess.sendLocked(WireLine{Closed: we.ID}, false)
		return false
	case "batch":
		sess.handleBatchLocked(we)
		return false
	case "stats":
		sess.sendLocked(WireLine{SessStats: sess.statsLocked()}, false)
		return false
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
		return false
	case "":
		// An event line.
	default:
		sess.sendLocked(WireLine{Error: fmt.Sprintf("unknown command %q", we.Cmd)}, false)
		return false
	}
	if sess.shard != nil {
		// Refused before admission: the line consumes no seq.
		sess.sendLocked(WireLine{Error: "event: a shard session takes batch frames only"}, false)
		return false
	}
	if we.Type == "" {
		sess.sendLocked(WireLine{Error: "event missing type"}, false)
		return false
	}
	if sess.admitLocked("event", we.Seq) {
		sess.applyEventLocked(we.Seq, &greta.Event{
			ID:    sess.evID + 1,
			Type:  greta.Type(we.Type),
			Time:  we.Time,
			Attrs: we.Attrs,
			Str:   we.Str,
		})
	}
	return false
}

// handleEventLine is handleLine for a line the event-line parser read:
// the same admission and apply steps, with the event bound to a cached
// schema instead of carrying attribute maps. handled is false when the
// session is in shard mode: the generic path refuses the line.
func (sess *session) handleEventLine(myConn net.Conn, el *eventLine) (stop, handled bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.ended || sess.conn != myConn {
		return true, true
	}
	if sess.shard != nil {
		return false, false
	}
	defer sess.flushLocked()
	if sess.admitLocked("event", el.seq) {
		sess.applyEventLocked(el.seq, sess.bindLocked(el, sess.evID+1))
	}
	return false, true
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

// checkBatch validates a batch frame's shape — the one check the
// client makes before sending and both server paths make before
// applying: a type, and one value per row in every column.
func checkBatch(we *WireEvent) error {
	if we.Type == "" {
		return errors.New("missing type")
	}
	n := len(we.Times)
	for a, col := range we.Cols {
		if len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", a, len(col), n)
		}
	}
	for a, col := range we.SCols {
		if len(col) != n {
			return fmt.Errorf("column %q has %d values, want %d", a, len(col), n)
		}
	}
	return nil
}

// batchRow reads row i of a checked batch frame into num and strs, in
// sch's slot order.
func batchRow(we *WireEvent, sch *greta.Schema, i int, num []float64, strs []string) {
	for j, a := range sch.Numeric {
		num[j] = we.Cols[a][i]
	}
	for j, a := range sch.Strings {
		strs[j] = we.SCols[a][i]
	}
}

// batchEvent materialises row i as a schema-bound event owning its
// value slices (engines retain event pointers).
func batchEvent(we *WireEvent, sch *greta.Schema, i int, id uint64) *greta.Event {
	ev := &greta.Event{ID: id, Type: greta.Type(we.Type), Time: we.Times[i], Sch: sch,
		Num: make([]float64, len(sch.Numeric)), StrV: make([]string, len(sch.Strings))}
	batchRow(we, sch, i, ev.Num, ev.StrV)
	return ev
}

// handleBatchLocked ingests one columnar batch frame through the
// runtime's batch path: the per-attribute arrays are decoded straight
// into an event batch (no per-row attribute maps), so the runtime
// hashes each partition-key run once and pre-filters predicate
// columns. In a resumable session the frame carries one frame-level
// seq — resume dedup skips whole duplicate frames — and its rows
// consume engine ids from the session's evID cursor. With a scheduled
// checkpoint armed the rows feed the per-event path one at a time
// instead, committing the cursor and frame progress per row, so a
// snapshot firing mid-frame records exactly how much of the frame it
// contains (sessionMeta.FrameRows) and a restore-side replay of the
// frame skips precisely that prefix: exactly-once either way.
func (sess *session) handleBatchLocked(we *WireEvent) {
	if !sess.admitLocked("batch", we.Seq) {
		return
	}
	if err := checkBatch(we); err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: %v", err)}, false)
		return
	}
	n := len(we.Times)
	if n == 0 {
		if sess.resumable {
			sess.lastSeq = we.Seq
		}
		return
	}
	skip := 0
	if sess.resumable && sess.frameSkip > 0 {
		// Restored mid-frame: the snapshot already contains this frame's
		// first frameSkip rows (their ids are committed in evID); apply
		// only the tail.
		skip = int(sess.frameSkip)
		sess.frameSkip = 0
		if skip > n {
			skip = n
		}
	}
	sch := sess.schemaFor(we)
	if sess.resumable && sess.rt.CheckpointArmed() {
		sess.applyBatchRowsLocked(we, sch, n, skip)
		sess.frameRows = 0
		sess.lastSeq = we.Seq
		return
	}
	// Columnar path: no scheduled snapshot can fire inside ProcessBatch
	// (an explicit checkpoint command is its own line, between frames),
	// so the whole frame is cursor-atomic.
	b := greta.NewBatch(sch, n-skip)
	num := make([]float64, len(sch.Numeric))
	strs := make([]string, len(sch.Strings))
	for i := skip; i < n; i++ {
		batchRow(we, sch, i, num, strs)
		sess.evID++
		b.Append(sess.evID, we.Times[i], num, strs)
	}
	acc, err := sess.rt.ProcessBatch(b)
	sess.processed += uint64(acc)
	if d := (n - skip) - acc; d > 0 {
		sess.dropped += uint64(d)
		sess.sendLocked(WireLine{Warn: fmt.Sprintf("batch: %d of %d rows dropped for disorder", d, n-skip)}, false)
	}
	if sess.resumable {
		sess.lastSeq = we.Seq
	}
	if err != nil {
		sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: %v", err)}, false)
	}
}

// applyBatchRowsLocked feeds a batch frame's rows through the
// per-event path one at a time, committing the session's id cursor and
// frame progress after every row: the checkpoint meta provider (which
// can run inside any of the Process calls, before the in-flight row is
// applied) then always describes a row-exact prefix of the frame.
func (sess *session) applyBatchRowsLocked(we *WireEvent, sch *greta.Schema, n, skip int) {
	dropped := 0
	for i := skip; i < n; i++ {
		err := sess.rt.Process(batchEvent(we, sch, i, sess.evID+1))
		sess.evID++
		sess.frameRows++
		if err != nil {
			if errors.Is(err, greta.ErrOutOfOrder) {
				dropped++
				continue
			}
			sess.sendLocked(WireLine{Error: fmt.Sprintf("batch: %v", err)}, false)
			return
		}
		sess.processed++
	}
	if dropped > 0 {
		sess.dropped += uint64(dropped)
		sess.sendLocked(WireLine{Warn: fmt.Sprintf("batch: %d of %d rows dropped for disorder", dropped, n-skip)}, false)
	}
}

// schemaFor returns the cached schema for a batch frame's (type,
// column-set) shape, creating it on first sight. Slot order is the
// sorted attribute names, so the same shape always maps to the same
// schema regardless of JSON map iteration order.
func (sess *session) schemaFor(we *WireEvent) *greta.Schema {
	nums := make([]string, 0, len(we.Cols))
	for a := range we.Cols {
		nums = append(nums, a)
	}
	slices.Sort(nums)
	strs := make([]string, 0, len(we.SCols))
	for a := range we.SCols {
		strs = append(strs, a)
	}
	slices.Sort(strs)
	// bindLocked builds the same key from an event line's names.
	key := we.Type + "\x00" + strings.Join(nums, "\x01") + "\x00" + strings.Join(strs, "\x01")
	if s := sess.schemas[key]; s != nil {
		return s
	}
	s := &greta.Schema{Type: greta.Type(we.Type), Numeric: nums, Strings: strs}
	if sess.schemas == nil {
		sess.schemas = map[string]*greta.Schema{}
	}
	sess.schemas[key] = s
	return s
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
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if el.parse(line) {
			if sess == nil {
				if sess = s.newSession(conn, w, enc); sess == nil {
					return
				}
			}
			if stop, handled := sess.handleEventLine(conn, &el); stop {
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

// Client streams events to a netstream server and receives results. It
// is the one client half of the session protocol: ordinary producers
// and the cluster coordinator's shard links both run on it.
//
// A Client may be shared by one sending goroutine (Send, SendBatch,
// SendFrame) and one reading goroutine (ReadLine, Resume): a Resume
// replays the resend ring and swaps the connection in as one step no
// send can interleave with. The command calls (Register, Checkpoint,
// Stats, Flush, ...) write a request and read its reply, so they belong
// to a Client driven from a single goroutine. Close is safe from any.
type Client struct {
	// SendWindow bounds the resend ring of a resumable session: the
	// newest SendWindow sequenced frames (events, batch frames, shard
	// frames) are retained, as the bytes that were sent, for replay
	// after Resume (default 1024). The ring recycles its line storage,
	// so it holds at most SendWindow times the longest frame sent
	// (capacity above 64 KiB is not recycled), and a full ring costs a
	// Send no more than an empty one. Set it before EnableResume.
	SendWindow int

	// addr is remembered by Dial/DialContext/LazyDial so Resume (and a
	// lazily-created client's first use) can establish a connection.
	addr string

	// mu guards the send half: the connection as writers see it, the
	// resend ring (its Last is the event seq cursor) and the encode
	// scratch. down means a write failed (or a Resume is under way):
	// the connection is closed and frames are ringed, not written,
	// until Resume swaps a healed connection in.
	mu      sync.Mutex
	conn    net.Conn
	down    bool
	session string // server-issued id; set once, before any concurrent use
	ring    ring.Ring
	evEnc   eventEncoder
	line    []byte // encode scratch of unsequenced event lines

	// The receive half belongs to the reading goroutine: the decoder
	// and its reusable line, the last consumed durable server seq, the
	// acknowledgement of the latest Resume (ReadLine's next line), the
	// results that arrived interleaved with command acknowledgements
	// (Flush prepends them), the non-fatal {"warn":...} diagnostics
	// seen while awaiting replies, and the retained final summary.
	dec      *json.Decoder
	in       WireLine
	lastRecv uint64
	resumed  *WireResumed
	pending  []WireResult
	warnings []string
	summary  *WireDone
}

// Warnings returns the non-fatal server diagnostics collected so far
// (out-of-order drops and the like). The session outlives them; the
// Flush summary's dropped count reflects the same events.
func (c *Client) Warnings() []string { return c.warnings }

// Summary returns the session summary from the final {"done":...}
// line, available after Flush (nil before).
func (c *Client) Summary() *WireDone { return c.summary }

// SessionID returns the server-issued session id (empty before
// EnableResume).
func (c *Client) SessionID() string { return c.session }

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.addr = addr
	return c, nil
}

// DialContext connects to a server, retrying transient dial failures
// (connection refused/reset, timeouts — e.g. the server has not come
// up yet) with exponential backoff from 10ms to 500ms until ctx is
// done. Non-transient failures return immediately.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	conn, err := dialBackoff(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.addr = addr
	return c, nil
}

// LazyDial returns a client with no connection yet: RegisterContext,
// SendContext, and friends establish it on first use under their
// context, with the DialContext retry/backoff. Useful when the
// producer starts before the server is reachable.
func LazyDial(addr string) *Client { return &Client{addr: addr} }

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn))}
}

func dialBackoff(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	backoff := 10 * time.Millisecond
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if !transientDial(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("netstream: dial %s: %w (last: %v)", addr, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// transientDial reports whether a dial error is worth retrying: the
// peer actively refused or dropped the handshake, or it timed out.
// Anything else (bad address, canceled context, ...) is permanent.
func transientDial(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.ECONNABORTED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ensureLocked establishes a lazily-dialed client's connection (mu
// held; nothing else can be using a client that never connected).
func (c *Client) ensureLocked(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	if c.addr == "" {
		return errors.New("netstream: client has no connection and no address")
	}
	conn, err := dialBackoff(ctx, c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.dec = json.NewDecoder(bufio.NewReader(conn))
	return nil
}

// errDown is what a write returns while the connection is known to be
// broken: the frame, if sequenced, waits in the resend ring.
var errDown = errors.New("netstream: connection down (sequenced frames are retained for Resume)")

// writeLocked puts one encoded line on the wire (mu held). The first
// failed write closes the connection, so the peer and this client's
// reader see the break at once, and later lines are not written into
// the dead socket: sequenced ones wait in the ring for Resume.
func (c *Client) writeLocked(line []byte) error {
	if c.down {
		return errDown
	}
	if _, err := c.conn.Write(line); err != nil {
		c.down = true
		_ = c.conn.Close()
		return err
	}
	return nil
}

// encodeLocked is the first half of the one path every generic client
// line takes (mu held; writeLocked is the second): dial a
// lazily-created client and encode we — stamped with the next seq and
// retained in the resend ring when it is a sequenced frame of a
// resumable session, before any write, so a frame lost to the write
// error that reveals a break is still replayable. An error leaves the
// ring untouched. (Send does the same steps with the event-line
// encoder.)
func (c *Client) encodeLocked(ctx context.Context, we *WireEvent, sequenced bool) ([]byte, error) {
	if err := c.ensureLocked(ctx); err != nil {
		return nil, err
	}
	if sequenced && c.session != "" {
		we.Seq = c.ring.Next()
		return c.ring.PushJSON(we)
	}
	line, err := json.Marshal(we)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// writeFrame sends one generic line.
func (c *Client) writeFrame(ctx context.Context, we *WireEvent, sequenced bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.encodeLocked(ctx, we, sequenced)
	if err != nil {
		return err
	}
	return c.writeLocked(line)
}

// SendFrame sends one arbitrary protocol frame — what a caller driving
// the protocol itself (a coordinator's shard link) uses for everything
// that is not a plain event. A frame of a kind the server admits by seq
// (an event, a batch, any shard-link frame) is stamped with the next
// sequence number and retained in the resend ring before it is written;
// the other commands (flush, ...) go out as they are. It returns the
// frame's encoded length. A failed write is not an error: it closes the
// connection, which ReadLine's caller sees and heals with Resume, and
// the ring replays this and every later sequenced frame. The error is
// for a frame that could not be sent at all — not encodable, or no
// connection to send it on — and then no sequence number is consumed.
func (c *Client) SendFrame(we *WireEvent) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.encodeLocked(context.Background(), we, sequencedFrame(we.Cmd))
	if err != nil {
		return 0, err
	}
	_ = c.writeLocked(line) // the reader's Resume heals a break; the ring has the frame
	return len(line), nil
}

// ReadLine returns the next server line, with the session-resilience
// bookkeeping every reader shares already applied: heartbeats are
// swallowed and durable lines replayed after a resume (seq at or below
// the last one consumed) are skipped. The line is valid until the next
// ReadLine. After a Resume the first line is the server's "resumed"
// acknowledgement — a caller that cannot absorb a rebase checks its
// Rebase flag there. An error means the connection broke (or the
// stream is malformed); in a resumable session Resume heals it.
func (c *Client) ReadLine() (*WireLine, error) {
	o := &c.in
	if c.resumed != nil {
		*o = WireLine{Resumed: c.resumed}
		c.resumed = nil
		return o, nil
	}
	if c.dec == nil {
		return nil, errors.New("netstream: client has no connection")
	}
	for {
		*o = WireLine{}
		if err := c.dec.Decode(o); err != nil {
			return nil, err
		}
		if o.Ping != 0 {
			continue
		}
		if o.Seq != 0 {
			if o.Seq <= c.lastRecv {
				continue // duplicate replay of a line already consumed
			}
			c.lastRecv = o.Seq
		}
		return o, nil
	}
}

// await reads until the line accept recognises — the acknowledgement
// of the command just written — and returns it. On the way warnings
// are collected, results are buffered for Flush, and an error line or
// a session that ends first fails the command.
func (c *Client) await(what string, accept func(*WireLine) bool) (*WireLine, error) {
	for {
		o, err := c.ReadLine()
		if err != nil {
			return nil, err
		}
		switch {
		case o.Warn != "":
			c.warnings = append(c.warnings, o.Warn)
		case o.Error != "":
			return nil, fmt.Errorf("server: %s", o.Error)
		case accept(o):
			return o, nil
		case o.Result != nil:
			c.pending = append(c.pending, *o.Result)
		case o.Done:
			return nil, fmt.Errorf("server ended session before acknowledging %s", what)
		}
	}
}

// RegisterContext is Register for lazily-dialed clients: it first
// establishes the connection (retrying transient dial failures with
// backoff under ctx), then registers the statement.
func (c *Client) RegisterContext(ctx context.Context, query string) (string, error) {
	if err := c.writeFrame(ctx, &WireEvent{Cmd: "register", Query: query}, false); err != nil {
		return "", err
	}
	o, err := c.await("register", func(o *WireLine) bool { return o.Registered != nil })
	if err != nil {
		return "", err
	}
	return o.Registered.ID, nil
}

// SendContext is Send for lazily-dialed clients, establishing the
// connection under ctx first if needed. In a resumable session the
// event is stamped with the next sequence number and its encoded line
// retained (bounded by SendWindow) for replay after Resume — retained
// first, so an event lost to the write error that reveals the break is
// still replayable. An event that cannot be encoded (a NaN or infinite
// attribute) is rejected without consuming a sequence number.
func (c *Client) SendContext(ctx context.Context, typ string, t int64, attrs map[string]float64, strs map[string]string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(ctx); err != nil {
		return err
	}
	buf, seq := c.line[:0], uint64(0)
	if c.session != "" {
		buf, seq = c.ring.Buf(), c.ring.Next()
	}
	line, err := c.evEnc.appendLine(buf, seq, typ, t, attrs, strs)
	if err != nil {
		return err
	}
	if c.session != "" {
		c.ring.Push(line)
	} else {
		c.line = line
	}
	return c.writeLocked(line)
}

// EnableResume asks the server for a resumable session; it must be
// called before the first event. From then on Send stamps each event
// with a sequence number and retains the newest SendWindow of them for
// replay, and a broken connection can be healed with Resume instead of
// losing the stream. Returns the server-issued session id. Requires
// the server to arm Linger.
func (c *Client) EnableResume(ctx context.Context) (string, error) {
	if c.session != "" {
		return c.session, nil
	}
	if err := c.writeFrame(ctx, &WireEvent{Cmd: "session"}, false); err != nil {
		return "", err
	}
	o, err := c.await("session", func(o *WireLine) bool { return o.Session != nil })
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.session = o.Session.ID
	if c.SendWindow <= 0 {
		c.SendWindow = 1024
	}
	c.ring.Init(c.SendWindow, 0)
	return c.session, nil
}

// Resume reconnects a resumable session after a connection failure:
// it redials with the DialContext backoff, identifies the session and
// the last server output consumed, and re-sends the unacknowledged
// tail of the send buffer once the server reports how far it got.
// Results the server replays that were already consumed are skipped
// by seq; if the server rebased (the client fell behind the replay
// window), previously collected results are discarded and the full
// retained set is re-delivered. Fails when the session expired, the
// server is gone past the dial deadline, or the gap exceeds the send
// window. Frames sent from another goroutine meanwhile are ringed and
// go out with the replay; the dial and the handshake hold no lock.
func (c *Client) Resume(ctx context.Context) error {
	if c.session == "" {
		return errors.New("netstream: no resumable session (call EnableResume first)")
	}
	if c.addr == "" {
		return errors.New("netstream: client has no address to redial")
	}
	c.mu.Lock()
	c.down = true
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.mu.Unlock()
	conn, err := dialBackoff(ctx, c.addr)
	if err != nil {
		return err
	}
	ack, err := c.reattach(conn)
	if err != nil {
		_ = conn.Close()
		return err
	}
	// Replay and swap under the send lock: a frame sent concurrently
	// lands in the ring either before the replay (and rides it) or
	// after the swap (and is written behind it) — never ahead of an
	// older frame.
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ring.Covers(ack) {
		_ = conn.Close()
		return fmt.Errorf("netstream: resume window exceeded (server applied through seq %d, oldest buffered is %d)",
			ack, c.ring.Oldest())
	}
	c.conn, c.down = conn, false
	if err := c.ring.WriteAfter(conn, ack); err != nil {
		c.down = true // down again, for the next Resume
		_ = conn.Close()
		return err
	}
	return nil
}

// reattach runs the resume handshake on a fresh connection and returns
// the last client seq the server applied.
func (c *Client) reattach(conn net.Conn) (ack uint64, err error) {
	line, err := json.Marshal(&WireEvent{Cmd: "resume", Session: c.session, Recv: c.lastRecv})
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		return 0, err
	}
	c.dec = json.NewDecoder(bufio.NewReader(conn))
	for {
		var o WireLine
		if err := c.dec.Decode(&o); err != nil {
			return 0, err
		}
		switch {
		case o.Resumed != nil:
			if o.Resumed.Rebase {
				c.pending = nil
			}
			c.resumed = o.Resumed
			return o.Resumed.Seq, nil
		case o.Error != "":
			return 0, fmt.Errorf("server: %s", o.Error)
		case o.Warn != "":
			c.warnings = append(c.warnings, o.Warn)
		}
		// pings; durable lines only follow the ack
	}
}

// Send streams one event (SendContext without a dial deadline).
func (c *Client) Send(typ string, t int64, attrs map[string]float64, strs map[string]string) error {
	return c.SendContext(context.Background(), typ, t, attrs, strs)
}

// SendBatch streams a columnar batch frame: n rows of one type, times
// in non-decreasing order, cols/scols mapping each attribute to one
// value per row. The server decodes the arrays straight into its
// columnar ingest path. In a resumable session the frame carries one
// frame-level sequence number and its encoded line is retained whole
// in the resend ring — the server dedups duplicate frames by seq after
// a Resume — so batches stay columnar end to end instead of degrading
// to per-event sends. The caller may reuse its arrays after SendBatch
// returns.
func (c *Client) SendBatch(typ string, times []int64, cols map[string][]float64, scols map[string][]string) error {
	we := &WireEvent{Cmd: "batch", Type: typ, Times: times, Cols: cols, SCols: scols}
	if err := checkBatch(we); err != nil {
		return fmt.Errorf("netstream: batch: %w", err)
	}
	return c.writeFrame(context.Background(), we, true)
}

// Register attaches a new statement mid-stream and returns its id.
// Results already in flight are buffered for Flush.
func (c *Client) Register(query string) (string, error) {
	return c.RegisterContext(context.Background(), query)
}

// CloseStatement closes one statement mid-stream; its open windows
// flush first (those results are buffered for Flush).
func (c *Client) CloseStatement(id string) error {
	if err := c.writeFrame(context.Background(), &WireEvent{Cmd: "close", ID: id}, false); err != nil {
		return err
	}
	_, err := c.await("close", func(o *WireLine) bool { return o.Closed == id })
	return err
}

// Checkpoint asks the server to durably snapshot this session's
// runtime now (the server must arm checkpointing via RuntimeOptions).
// A degraded checkpoint — write failure or no configuration — returns
// an error carrying the server's diagnostic; the session itself keeps
// serving, so the caller may continue sending events either way.
func (c *Client) Checkpoint() error {
	if err := c.writeFrame(context.Background(), &WireEvent{Cmd: "checkpoint"}, false); err != nil {
		return err
	}
	warned := len(c.warnings)
	o, err := c.await("checkpoint", func(o *WireLine) bool { return o.Checkpointed != nil })
	switch {
	case err != nil:
		return err
	case *o.Checkpointed:
		return nil
	case len(c.warnings) > warned:
		// The warn line preceding a false acknowledgement says why.
		return fmt.Errorf("server: %s", c.warnings[len(c.warnings)-1])
	}
	return errors.New("server: checkpoint failed")
}

// Stats asks the server for a live session snapshot ({"cmd":"stats"}):
// resilience cursors, watermark/lag gauges, reorder depth, checkpoint
// durability. Unlike Flush it is non-terminal — poll it mid-stream.
// Results arriving interleaved with the reply are buffered for the
// next Flush.
func (c *Client) Stats() (*WireSessStats, error) {
	if err := c.writeFrame(context.Background(), &WireEvent{Cmd: "stats"}, false); err != nil {
		return nil, err
	}
	o, err := c.await("stats", func(o *WireLine) bool { return o.SessStats != nil })
	if err != nil {
		return nil, err
	}
	return o.SessStats, nil
}

// Flush ends the stream and collects all remaining results plus the
// session summary (Summary retains the full set of counters).
func (c *Client) Flush() ([]WireResult, uint64, error) {
	if err := c.writeFrame(context.Background(), &WireEvent{Cmd: "flush"}, false); err != nil {
		return nil, 0, err
	}
	o, err := c.await("flush", func(o *WireLine) bool { return o.Done })
	results := c.pending
	c.pending = nil
	if err != nil {
		return results, 0, err
	}
	c.summary = &WireDone{
		Events: o.Events, Dropped: o.Drop,
		SharedStmts: o.SharedStmts, SharedGraphs: o.SharedGraphs,
		Stats: o.Stats,
	}
	return results, o.Events, nil
}

// Close closes the connection (a no-op on a lazily-dialed client that
// never connected).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
