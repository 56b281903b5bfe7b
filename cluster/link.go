package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"time"

	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/netstream"
)

// link is one shard connection: a resumable netstream session in shard
// mode. The client half of the resume protocol — sequence-stamped
// frames, the bounded resend ring, redial and replay, dedup of durable
// lines by server seq — is netstream.Client's; the link adds the shard
// bookkeeping. The coordinator (under co.mu) is the client's sender,
// the link's run goroutine its reader. Every other field is guarded by
// co.mu; the reader takes it per line.
type link struct {
	co  *Coordinator
	idx int
	c   *netstream.Client

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

// dialLink connects one shard, establishes a resumable session, and
// performs the shard handshake hosting the given worker slots (none for
// a shard joining cold). Returns after the server acknowledges.
func (co *Coordinator) dialLink(ctx context.Context, idx int, addr string, slots []int) (*link, error) {
	c, err := netstream.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	c.SendWindow = co.sendWin
	if _, err := c.EnableResume(ctx); err != nil {
		_ = c.Close() // the handshake's error is the one to report
		return nil, fmt.Errorf("cluster: shard %d: %w", idx, err)
	}
	l := &link{co: co, idx: idx, c: c, readerDone: make(chan struct{})}
	go l.run()
	co.mu.Lock()
	defer co.mu.Unlock()
	l.send(netstream.WireEvent{Cmd: "shard", Count: co.n0, Workers: slots})
	if err := co.waitLocked(func() bool { return l.count != 0 }); err != nil {
		_ = c.Close() // the reader exits on the closed connection
		return nil, err
	}
	return l, nil
}

// send ships one sequenced frame. co.mu held. The client's resend ring,
// not the write, is what guarantees delivery: a frame that never
// reached the socket is replayed by the resume. A frame that cannot be
// encoded at all (a NaN or infinite attribute) has no replay either, so
// it fails the cluster.
func (l *link) send(we netstream.WireEvent) {
	t0 := time.Now()
	n, err := l.c.SendFrame(&we)
	l.sent(we.Cmd, t0, n, err)
}

// sent books one frame's send (batchBuf.flush books its own).
func (l *link) sent(cmd string, t0 time.Time, n int, err error) {
	if err != nil {
		l.co.fail(fmt.Errorf("cluster: shard %d: %q frame: %w", l.idx, cmd, err))
		return
	}
	l.co.met.encDur.Observe(time.Since(t0))
	l.co.met.frameBytes.Add(uint64(n))
	l.co.met.frames.Inc()
}

// finish ends the link's session with the unsequenced flush command:
// the reader exits on the server's summary, or on the disconnect. co.mu
// held.
func (l *link) finish() {
	l.closing = true
	n, _ := l.c.SendFrame(&netstream.WireEvent{Cmd: "flush"}) // a bare command always encodes
	l.co.met.frameBytes.Add(uint64(n))
}

// run is the link's reader goroutine: it applies server lines for the
// life of the cluster, transparently resuming the session (redial,
// handshake, replay — under the resume timeout) when the connection
// breaks.
func (l *link) run() {
	defer close(l.readerDone)
	co := l.co
	for {
		o, err := l.c.ReadLine()
		co.mu.Lock()
		if err == nil {
			co.handleLineLocked(l, o)
		}
		stop := l.done || (err != nil && (l.closing || co.closed || co.err != nil))
		co.mu.Unlock()
		if stop {
			return
		}
		if err == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), co.resumeT)
		err = l.c.Resume(ctx)
		cancel()
		if err != nil {
			co.mu.Lock()
			co.fail(fmt.Errorf("cluster: shard %d: %w", l.idx, err))
			co.mu.Unlock()
			return
		}
		co.met.resumes.Inc()
	}
}

// handleLineLocked applies one server line (co.mu held; the client has
// already swallowed heartbeats and skipped replayed durable lines):
// partial windows into the merger, barrier acks into the release
// frontiers, stats folds, handshake and handoff acknowledgements.
func (co *Coordinator) handleLineLocked(l *link, o *netstream.WireLine) {
	switch {
	case o.Warn != "":
		co.warnings = append(co.warnings, fmt.Sprintf("shard %d: %s", l.idx, o.Warn))
	case o.Error != "":
		co.fail(fmt.Errorf("cluster: shard %d: %s", l.idx, o.Error))
	case o.Resumed != nil:
		// The server lost our replay window: the durable lines in the gap
		// are gone and the merge state cannot be rebuilt.
		if o.Resumed.Rebase {
			co.fail(fmt.Errorf("cluster: shard %d: resume: session rebased (replay window exceeded)", l.idx))
		}
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
	pl, err := core.UnmarshalPayload(u.st.Def(), raw)
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
