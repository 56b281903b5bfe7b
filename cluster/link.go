package cluster

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/ring"
	"github.com/greta-cep/greta/netstream"
)

// serverLine mirrors the server's output line shape (netstream's
// unexported wireOut): the subset of fields a shard link produces.
type serverLine struct {
	Registered *netstream.WireRegistered `json:"registered"`
	Session    *netstream.WireSession    `json:"session"`
	Resumed    *netstream.WireResumed    `json:"resumed"`
	Seq        uint64                    `json:"seq"`
	Ping       uint64                    `json:"ping"`
	Done       bool                      `json:"done"`
	Error      string                    `json:"error"`
	Warn       string                    `json:"warn"`
	Partial    *netstream.WirePartial    `json:"partial"`
	Ack        *netstream.WireAck        `json:"ack"`
	UnitStats  *netstream.WireUnitStats  `json:"unit_stats"`
	Shard      *netstream.WireShardInfo  `json:"shard"`
	Handoff    *netstream.WireHandoff    `json:"handoff"`
}

// link is one shard connection: a resumable netstream session in shard
// mode, with the client half of the resume protocol (sequence-stamped
// frames, bounded resend ring, durable-input dedup by server seq).
// All fields are guarded by co.mu; the reader goroutine takes it per
// line.
type link struct {
	co   *Coordinator
	idx  int
	addr string

	conn net.Conn
	w    io.Writer // byte-counting writer over conn; nil while the link is down
	dec  *json.Decoder

	session  string
	lastRecv uint64    // last consumed durable server seq
	ring     ring.Ring // sequenced frames as sent; Last is the client seq cursor

	count       int               // shard handshake ack: slot modulus (0 = not yet)
	adopts      int               // count of shard-info acks (handshake + adopts)
	handoff     map[string]string // last received handoff blobs
	handoffEvID uint64            // donor's event-ID counter from that handoff
	buf         batchBuf
	pairs       []pair // per-event routing scratch (routeLocked)

	drained bool // slots handed off; no further fan-outs
	closing bool // intentional finish: reader exits on disconnect
	done    bool // server sent its final summary

	readerDone chan struct{}
}

// dialLink connects one shard, establishes a resumable session, and —
// when slots is non-nil or the cluster is fresh — performs the shard
// handshake hosting the given worker slots. Returns after the server
// acknowledges.
func (co *Coordinator) dialLink(ctx context.Context, idx int, addr string, slots []int) (*link, error) {
	conn, err := dialRetry(ctx, addr)
	if err != nil {
		return nil, err
	}
	l := &link{co: co, idx: idx, addr: addr, conn: conn,
		w:          &countingConnWriter{w: conn, n: co.met.frameBytes},
		dec:        json.NewDecoder(bufio.NewReader(conn)),
		readerDone: make(chan struct{}),
	}
	l.ring.Init(co.sendWin, 0)
	go l.run()
	co.mu.Lock()
	defer co.mu.Unlock()
	l.sendRaw(netstream.WireEvent{Cmd: "session"})
	if err := co.waitLocked(func() bool { return l.session != "" }); err != nil {
		return nil, err
	}
	l.send(netstream.WireEvent{Cmd: "shard", Count: co.n0, Workers: slots})
	if err := co.waitLocked(func() bool { return l.count != 0 }); err != nil {
		return nil, err
	}
	return l, nil
}

// send stamps one sequenced frame, encodes it into the resend ring,
// and writes the ringed bytes. co.mu held. The ring, not the write, is
// what guarantees delivery: a frame that never reached the socket is
// replayed by the resume. A frame that cannot be encoded at all (a NaN
// or infinite attribute) has no replay either, so it fails the cluster.
func (l *link) send(we netstream.WireEvent) {
	t0 := time.Now()
	we.Seq = l.ring.Next()
	line, err := l.ring.PushJSON(we)
	if err != nil {
		l.co.fail(fmt.Errorf("cluster: shard %d: encode %q frame: %w", l.idx, we.Cmd, err))
		return
	}
	l.write(line)
	l.co.met.encDur.Observe(time.Since(t0))
	l.co.met.frames.Inc()
}

// sendRaw writes one unsequenced control line (session, flush). co.mu
// held.
func (l *link) sendRaw(we netstream.WireEvent) {
	if line, err := json.Marshal(we); err == nil {
		l.write(append(line, '\n'))
	}
}

// write puts one encoded line on the wire. co.mu held. The first
// failed write closes the connection, so the reader's reattach starts
// immediately, and drops the writer, so later frames are ringed
// without being written into a dead socket.
func (l *link) write(line []byte) {
	if l.w == nil {
		return
	}
	if _, err := l.w.Write(line); err != nil {
		l.w = nil
		_ = l.conn.Close()
	}
}

// run is the link's reader goroutine: it decodes server lines for the
// life of the cluster, transparently redialing and resuming the
// session when the connection breaks.
func (l *link) run() {
	defer close(l.readerDone)
	for {
		l.readLoop()
		co := l.co
		co.mu.Lock()
		if l.done || l.closing || co.closed || co.err != nil {
			co.mu.Unlock()
			return
		}
		l.w, l.dec = nil, nil
		_ = l.conn.Close()
		co.mu.Unlock()
		if err := l.reattach(); err != nil {
			co.mu.Lock()
			co.fail(fmt.Errorf("cluster: shard %d: %w", l.idx, err))
			co.mu.Unlock()
			return
		}
	}
}

// readLoop decodes lines until the connection breaks.
func (l *link) readLoop() {
	dec := l.dec
	if dec == nil {
		return
	}
	for {
		var o serverLine
		if err := dec.Decode(&o); err != nil {
			return
		}
		l.co.handleLine(l, &o)
		l.co.mu.Lock()
		stop := l.done
		l.co.mu.Unlock()
		if stop {
			return
		}
	}
}

// reattach heals a broken link: redial under the resume timeout,
// identify the session and the last durable line consumed, and replay
// the unacknowledged frame tail. A rebase (the server lost our replay
// window) is fatal — the merge state cannot be rebuilt.
func (l *link) reattach() error {
	co := l.co
	ctx, cancel := context.WithTimeout(context.Background(), co.resumeT)
	defer cancel()
	conn, err := dialRetry(ctx, l.addr)
	if err != nil {
		return err
	}
	w := &countingConnWriter{w: conn, n: co.met.frameBytes}
	dec := json.NewDecoder(bufio.NewReader(conn))

	co.mu.Lock()
	sess, recv := l.session, l.lastRecv
	co.mu.Unlock()
	if err := json.NewEncoder(w).Encode(netstream.WireEvent{Cmd: "resume", Session: sess, Recv: recv}); err != nil {
		_ = conn.Close()
		return err
	}
	var ack uint64
	for {
		var o serverLine
		if err := dec.Decode(&o); err != nil {
			_ = conn.Close()
			return err
		}
		if o.Resumed == nil {
			if o.Error != "" {
				_ = conn.Close()
				return fmt.Errorf("resume: %s", o.Error)
			}
			continue // pings; durable lines only follow the ack
		}
		if o.Resumed.Rebase {
			_ = conn.Close()
			return fmt.Errorf("resume: session rebased (replay window exceeded)")
		}
		ack = o.Resumed.Seq
		break
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	if !l.ring.Covers(ack) {
		_ = conn.Close()
		return fmt.Errorf("resume window exceeded (server applied through seq %d)", ack)
	}
	if err := l.ring.WriteAfter(w, ack); err != nil {
		_ = conn.Close()
		return err
	}
	l.conn, l.w, l.dec = conn, w, dec
	co.met.resumes.Inc()
	return nil
}

// handleLine applies one server line under co.mu: resume bookkeeping
// (heartbeats swallowed, duplicate durable lines skipped by seq), then
// the shard-link payloads — partial windows into the merger, barrier
// acks into the release frontiers, stats folds, handshake and handoff
// acknowledgements.
func (co *Coordinator) handleLine(l *link, o *serverLine) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if o.Ping != 0 {
		return
	}
	if o.Seq != 0 {
		if o.Seq <= l.lastRecv {
			return // duplicate replay of a line already consumed
		}
		l.lastRecv = o.Seq
	}
	switch {
	case o.Warn != "":
		co.warnings = append(co.warnings, fmt.Sprintf("shard %d: %s", l.idx, o.Warn))
	case o.Error != "":
		co.fail(fmt.Errorf("cluster: shard %d: %s", l.idx, o.Error))
	case o.Session != nil:
		l.session = o.Session.ID
		co.cond.Broadcast()
	case o.Shard != nil:
		l.count = o.Shard.Count
		l.adopts++
		co.cond.Broadcast()
	case o.Registered != nil:
		if u := co.unitID[o.Registered.ID]; u != nil {
			delete(u.regPend, l)
			co.cond.Broadcast()
		}
	case o.Handoff != nil:
		l.handoff = o.Handoff.Blobs
		if l.handoff == nil {
			l.handoff = map[string]string{}
		}
		l.handoffEvID = o.Handoff.EvID
		co.cond.Broadcast()
	case o.Partial != nil:
		co.onPartialLocked(l, o.Partial)
	case o.Ack != nil:
		co.onAckLocked(o.Ack)
	case o.UnitStats != nil:
		co.onUnitStatsLocked(o.UnitStats)
	case o.Done:
		l.done = true
		co.cond.Broadcast()
	}
}

// onPartialLocked files one slot's released window into the unit's
// merger.
func (co *Coordinator) onPartialLocked(l *link, p *netstream.WirePartial) {
	u := co.units[p.SI]
	if u == nil {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(p.Payload)
	if err != nil {
		co.fail(fmt.Errorf("cluster: shard %d: bad partial payload: %w", l.idx, err))
		return
	}
	pl, err := core.UnmarshalPayload(raw)
	if err != nil {
		co.fail(fmt.Errorf("cluster: shard %d: partial decode: %w", l.idx, err))
		return
	}
	u.merge.Add(p.W, p.Group, p.Wid, pl)
}

// onAckLocked advances one slot's release frontier; the unit's merger
// emits every window now acknowledged by all slots.
func (co *Coordinator) onAckLocked(a *netstream.WireAck) {
	if a.W < 0 || a.W >= co.n0 {
		return
	}
	if a.T > co.slotAck[a.W] {
		co.slotAck[a.W] = a.T
	}
	co.ackBarrierLocked(a.SI, a.W, a.Hi)
	if u := co.units[a.SI]; u != nil {
		u.merge.Ack(a.W, a.Hi)
		co.cond.Broadcast()
	}
}

// onUnitStatsLocked folds one slot's final engine counters into the
// statement.
func (co *Coordinator) onUnitStatsLocked(s *netstream.WireUnitStats) {
	u := co.units[s.SI]
	if u == nil || s.W < 0 || s.W >= co.n0 || u.statsSeen[s.W] {
		return
	}
	u.statsSeen[s.W] = true
	u.statsLeft--
	u.st.FoldRemoteStats(s.Stats)
	co.cond.Broadcast()
}
