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
// The event line and the batch frame are the lines sent per event and
// per block of events, and each has a hand-written codec (eventline.go,
// batchframe.go) whose bytes are encoding/json's for a WireEvent. The
// server's one-pass parsers take exactly what this package's client
// writes: the event line's five keys, and the batch frame's cmd, seq,
// type, time, times, cols, scols, gi, rh, rgs, rhs with "times" ahead of
// the columns and route lists — any order otherwise, strings without
// escapes. Any other line is as valid, but is decoded by encoding/json:
// a peer that wants the fast path keeps to that shape.
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
// snapshot embeds the session id and cursors (SetCheckpointMeta) and
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

import "github.com/greta-cep/greta"

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
func sequencedFrame(cmd string) bool {
	return cmd == "" || cmd == "batch" || cmd == "shard" || shardFrame(cmd)
}

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
