package netstream

import (
	"bufio"
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
// and the cluster coordinator's shard links both run on it.
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
	line    []byte // encode scratch: unsequenced event lines, batch frames

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
	f := BatchFrame{Type: typ, Times: times, Nums: slices.Sorted(maps.Keys(cols)), Strs: slices.Sorted(maps.Keys(scols))}
	for _, a := range f.Nums {
		f.Cols = append(f.Cols, cols[a])
	}
	for _, a := range f.Strs {
		f.SCols = append(f.SCols, scols[a])
	}
	_, wrote, err := c.sendBatch(&f)
	if err != nil {
		return err
	}
	return wrote
}

// SendBatchFrame is SendBatch for a frame the caller holds as columns,
// route info included, under SendFrame's contract: it returns the
// encoded length, a failed write is not an error (Resume replays the
// frame), and a frame that could not be sent at all — malformed, a NaN
// or infinite value, no connection — consumes no sequence number.
func (c *Client) SendBatchFrame(f *BatchFrame) (int, error) {
	n, _, err := c.sendBatch(f)
	return n, err
}

// sendBatch encodes f and writes it. The line is built in the client's
// scratch — a link's frames differ in size by orders of magnitude — and
// the resend ring retains a snug copy of it before the write.
func (c *Client) sendBatch(f *BatchFrame) (n int, wrote, err error) {
	if err := f.check(); err != nil {
		return 0, nil, fmt.Errorf("netstream: batch: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(context.Background()); err != nil {
		return 0, nil, err
	}
	seq := uint64(0)
	if c.session != "" {
		seq = c.ring.Next()
	}
	if c.line, err = appendBatchFrame(c.line[:0], seq, f); err != nil {
		return 0, nil, err
	}
	line := c.line
	if c.session != "" {
		line = c.ring.PushCopy(line)
	}
	return len(line), c.writeLocked(line), nil
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
