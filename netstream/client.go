package netstream

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/greta-cep/greta/internal/ring"
)

// Client streams events to a netstream server and receives results. It
// is the one client half of the session protocol: ordinary producers
// and the cluster coordinator's shard links both run on it. A Client
// holds its connection from Dial, DialContext or NewClient on; only
// Resume replaces it.
//
// One write rule: Send's event lines and SendBatch's and
// SendBatchFrame's batch frames collect in a pending buffer that goes
// out in one write when it reaches sendChunk bytes, ahead of (and in
// the same write as) any command or SendFrame line, on Close, and at
// most sendLinger after its first line when no call comes. The wire
// carries the same lines, concatenated. A write error is returned by
// the call that performs the write — a later Send or SendBatch, a
// command, or the first call after a linger write — and in a resumable
// session every line not yet written is still in the resend ring (the
// buffer never holds more than SendWindow lines), so Resume drops the
// buffer and the ring replays it.
//
// A Client may be shared by one sending goroutine (Send, SendBatch,
// SendBatchFrame, SendFrame) and one reading goroutine (ReadLine,
// Resume): a Resume replays the resend ring and swaps the connection in
// as one step no send can interleave with. The command calls (Register, Checkpoint,
// Stats, Flush, ...) write a request and read its reply, so they belong
// to a Client driven from a single goroutine. Close is safe from any.
type Client struct {
	// SendWindow bounds the resend ring of a resumable session: the
	// newest SendWindow sequenced frames (events, batch frames, shard
	// frames) are retained, as the bytes that were sent, for replay
	// after Resume (default 1024). The ring keeps the frames back to
	// back in recycled segments, so it holds the bytes of the newest
	// SendWindow frames and a segment or two besides, and a full ring
	// costs a Send no more than an empty one. Send holds at most
	// SendWindow events unwritten. Set it before EnableResume.
	SendWindow int

	// addr is remembered by Dial/DialContext so Resume can redial.
	addr string

	// mu guards the send half: the connection as writers see it, the
	// resend ring (its Last is the event seq cursor) and the pending
	// buffer. down means a write failed (or a Resume is under way):
	// the connection is closed and frames are ringed, not written,
	// until Resume swaps a healed connection in.
	mu      sync.Mutex
	conn    net.Conn
	down    bool
	session string // server-issued id; set once, before any concurrent use
	ring    ring.Ring
	evEnc   eventEncoder

	// out holds the event lines and batch frames not written yet (outN
	// of them; none while down): the next write carries them first.
	// linger is the one timer that writes them when no call does, armed
	// by the line that finds out empty; lingerErr is its failed write's
	// error, which the next call returns.
	out       []byte
	outN      int
	linger    *time.Timer
	lingerErr error

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

// errDown is what a write returns while the connection is known to be
// broken: the frame, if sequenced, waits in the resend ring.
var errDown = errors.New("netstream: connection down (sequenced frames are retained for Resume)")

// sendChunk is the pending size at which Send writes its coalesced
// lines: about 65 event lines of the net_durable benchmark. Measured on
// that benchmark over 4–64 KiB in alternating runs: 8 KiB read the best
// median throughput and CPU per event, and a larger chunk added to the
// live heap (+2.4 % at 64 KiB) without saving CPU.
const sendChunk = 8 << 10

// sendLinger bounds how long a sent event or batch frame may wait in
// the pending buffer when no further call comes to write it.
const sendLinger = time.Millisecond

// writeLocked puts the pending lines and then line (nil for none) on
// the wire in one write (mu held). The first failed write closes the
// connection, so the peer and this client's reader see the break at
// once, and later lines are not written into the dead socket:
// sequenced ones wait in the ring for Resume.
func (c *Client) writeLocked(line []byte) error {
	if c.down {
		return c.downErrLocked()
	}
	p := line
	if c.outN > 0 {
		c.out = append(c.out, line...)
		p = c.out
	}
	_, err := c.conn.Write(p)
	c.dropOutLocked()
	if err != nil {
		c.down = true
		_ = c.conn.Close() // the write error is the one to report; this only wakes the peer and the reader
		return err
	}
	return nil
}

// downErrLocked is what a call that finds the connection down returns:
// the error of the linger write that took it down, once, else errDown.
func (c *Client) downErrLocked() error {
	if err := c.lingerErr; err != nil {
		c.lingerErr = nil
		return err
	}
	return errDown
}

// dropOutLocked empties the pending buffer, giving up storage beyond
// ring.KeepMax that a huge frame written behind it grew.
func (c *Client) dropOutLocked() {
	c.out, c.outN = c.out[:0], 0
	if cap(c.out) > ring.KeepMax {
		c.out = nil
	}
}

// queueLocked counts the line just appended to out and writes out once
// it holds a chunk — or, in a resumable session, as many lines as the
// ring retains, so a pending line is never one the ring has evicted.
// The line that finds out empty arms the linger timer.
func (c *Client) queueLocked() error {
	if c.outN++; len(c.out) >= sendChunk || c.session != "" && c.outN >= c.ring.Window() {
		return c.writeLocked(nil)
	}
	if c.outN == 1 {
		if c.linger == nil {
			c.linger = time.AfterFunc(sendLinger, c.lingerWrite)
		} else {
			c.linger.Reset(sendLinger)
		}
	}
	return nil
}

// lingerWrite is the linger timer's write of the lines no call has
// written. Its error waits for the next call to return it.
func (c *Client) lingerWrite() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outN > 0 {
		c.lingerErr = c.writeLocked(nil)
	}
}

// encodeLocked is the first half of the one path every generic client
// line takes (mu held; writeLocked is the second): encode we — stamped
// with the next seq and retained in the resend ring when it is a
// sequenced frame of a resumable session, before any write, so a frame
// lost to the write error that reveals a break is still replayable. An
// error leaves the ring untouched. (queue does the same steps for the
// pending buffer.)
func (c *Client) encodeLocked(we *WireEvent, sequenced bool) ([]byte, error) {
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
func (c *Client) writeFrame(we *WireEvent, sequenced bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.encodeLocked(we, sequenced)
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
// for a frame that could not be encoded, and then no sequence number
// is consumed.
func (c *Client) SendFrame(we *WireEvent) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	line, err := c.encodeLocked(we, sequencedFrame(we.Cmd))
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

// queue is the one path of event lines and batch frames: encode onto
// the pending buffer — stamped with the next seq and ringed first in a
// resumable session — and queueLocked. It returns the line's length and
// the error of a write it performed or found (queued); an encode error
// leaves buffer and ring untouched.
func (c *Client) queue(encode func(out []byte, seq uint64) ([]byte, error)) (n int, queued, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := uint64(0)
	if c.session != "" {
		seq = c.ring.Next()
	}
	out, err := encode(c.out, seq)
	if err != nil {
		return 0, nil, err
	}
	line := out[len(c.out):]
	if c.session != "" {
		c.ring.Push(line)
	}
	if c.down {
		return len(line), c.downErrLocked(), nil // a sequenced line waits in the ring for Resume
	}
	c.out = out
	return len(line), c.queueLocked(), nil
}

// EnableResume asks the server for a resumable session; it must be
// called before the first event. From then on Send stamps each event
// with a sequence number and retains the newest SendWindow of them for
// replay, and a broken connection can be healed with Resume instead of
// losing the stream. Returns the server-issued session id. Requires
// the server to arm Linger. ctx bounds the wait for the server's reply:
// once it is done the call returns an error wrapping ctx.Err(), and the
// client, whose read it interrupted, is only good for Close.
func (c *Client) EnableResume(ctx context.Context) (string, error) {
	if c.session != "" {
		return c.session, nil
	}
	if err := c.writeFrame(&WireEvent{Cmd: "session"}, false); err != nil {
		return "", err
	}
	woken := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = c.conn.SetReadDeadline(time.Now()) // wakes the read below; its error is the one to report
		close(woken)
	})
	o, err := c.await("session", func(o *WireLine) bool { return o.Session != nil })
	if !stop() {
		<-woken
		if err != nil {
			return "", fmt.Errorf("netstream: session: %w (%v)", ctx.Err(), err)
		}
		_ = c.conn.SetReadDeadline(time.Time{}) // the reply beat the wake-up: reads go on
	}
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
	c.down, c.lingerErr = true, nil // the break Resume heals
	c.dropOutLocked()               // every pending line is in the ring, which replays it
	if c.conn != nil {
		_ = c.conn.Close() // the connection being replaced; already broken, or abandoned by design
	}
	c.mu.Unlock()
	conn, err := dialBackoff(ctx, c.addr)
	if err != nil {
		return err
	}
	return c.reattach(conn)
}

// reattach heals the session on a fresh connection: it runs the resume
// handshake, replays the ring's tail after what the server applied —
// lines that sit next to each other in one of the ring's segments in
// one write — and swaps the connection in. On an error conn is closed.
func (c *Client) reattach(conn net.Conn) error {
	ack, err := c.handshake(conn)
	if err != nil {
		_ = conn.Close() // the handshake's error is the one to report
		return err
	}
	// Replay and swap under the send lock: a frame sent concurrently
	// lands in the ring either before the replay (and rides it) or
	// after the swap (and is written behind it) — never ahead of an
	// older frame.
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ring.Covers(ack) {
		_ = conn.Close() // the session cannot be healed; the window error says why
		return fmt.Errorf("netstream: resume window exceeded (server applied through seq %d, oldest buffered is %d)",
			ack, c.ring.Oldest())
	}
	c.conn, c.down = conn, false
	if err := c.ring.WriteAfter(conn, ack); err != nil {
		c.down = true    // down again, for the next Resume
		_ = conn.Close() // the replay's write error is the one to report
		return err
	}
	return nil
}

// handshake runs the resume handshake on a fresh connection and returns
// the last client seq the server applied.
func (c *Client) handshake(conn net.Conn) (ack uint64, err error) {
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

// Send streams one event. In a resumable session the event is stamped
// with the next sequence number and its encoded line retained (bounded
// by SendWindow) for replay after Resume — retained first, so an event
// lost to the write error that reveals the break is still replayable.
// An event that cannot be encoded (a NaN or infinite attribute) is
// rejected without consuming a sequence number.
//
// The line joins the pending buffer (see Client), so a nil error means
// the event was queued, and an error may be that of a write carrying
// earlier lines. Outside a resumable session lines pending at a failed
// write are lost with it.
func (c *Client) Send(typ string, t int64, attrs map[string]float64, strs map[string]string) error {
	_, queued, err := c.queue(func(out []byte, seq uint64) ([]byte, error) {
		return c.evEnc.appendLine(out, seq, typ, t, attrs, strs)
	})
	return cmp.Or(err, queued)
}

// SendBatch streams a columnar batch frame: n rows of one type, times
// in non-decreasing order, cols/scols mapping each attribute to one
// value per row. The server decodes the arrays straight into its
// columnar ingest path. In a resumable session the frame carries one
// frame-level sequence number and its encoded line is retained whole
// in the resend ring — the server dedups duplicate frames by seq after
// a Resume — so batches stay columnar end to end instead of degrading
// to per-event sends. The frame joins the pending buffer as an event
// line does, so an error may be that of a write carrying earlier lines
// (see Send). The caller may reuse its arrays after SendBatch
// returns.
func (c *Client) SendBatch(typ string, times []int64, cols map[string][]float64, scols map[string][]string) error {
	f := BatchFrame{Type: typ, Times: times, Nums: slices.Sorted(maps.Keys(cols)), Strs: slices.Sorted(maps.Keys(scols))}
	for _, a := range f.Nums {
		f.Cols = append(f.Cols, cols[a])
	}
	for _, a := range f.Strs {
		f.SCols = append(f.SCols, scols[a])
	}
	_, queued, err := c.sendBatch(&f)
	return cmp.Or(err, queued)
}

// SendBatchFrame is SendBatch for a frame the caller holds as columns,
// route info included, under SendFrame's contract: it returns the
// encoded length, a failed write is not an error (Resume replays the
// frame), and a frame that could not be sent at all — malformed, a NaN
// or infinite value — consumes no sequence number. The
// frame is queued (see Client), not written.
func (c *Client) SendBatchFrame(f *BatchFrame) (int, error) {
	n, _, err := c.sendBatch(f)
	return n, err
}

// sendBatch checks f and queues its encoded line.
func (c *Client) sendBatch(f *BatchFrame) (n int, queued, err error) {
	if err := f.check(); err != nil {
		return 0, nil, fmt.Errorf("netstream: batch: %w", err)
	}
	return c.queue(func(out []byte, seq uint64) ([]byte, error) {
		return appendBatchFrame(out, seq, f)
	})
}

// Register attaches a new statement mid-stream and returns its id.
// Results already in flight are buffered for Flush.
func (c *Client) Register(query string) (string, error) {
	if err := c.writeFrame(&WireEvent{Cmd: "register", Query: query}, false); err != nil {
		return "", err
	}
	o, err := c.await("register", func(o *WireLine) bool { return o.Registered != nil })
	if err != nil {
		return "", err
	}
	return o.Registered.ID, nil
}

// CloseStatement closes one statement mid-stream; its open windows
// flush first (those results are buffered for Flush).
func (c *Client) CloseStatement(id string) error {
	if err := c.writeFrame(&WireEvent{Cmd: "close", ID: id}, false); err != nil {
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
	if err := c.writeFrame(&WireEvent{Cmd: "checkpoint"}, false); err != nil {
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
	if err := c.writeFrame(&WireEvent{Cmd: "stats"}, false); err != nil {
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
	if err := c.writeFrame(&WireEvent{Cmd: "flush"}, false); err != nil {
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

// Close writes the pending lines and closes the connection. A failed
// write is returned; it has closed the connection already.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.linger != nil {
		c.linger.Stop()
	}
	if c.outN > 0 {
		if err := c.writeLocked(nil); err != nil {
			return err
		}
	}
	return c.conn.Close()
}
