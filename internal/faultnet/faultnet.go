// Package faultnet is a fault-injection harness for network sessions:
// net.Conn/net.Listener decorators with programmable faults —
// connection reset after a byte budget (torn mid-line), an explicit
// Cut that severs a live connection, bounded per-Write chunking
// (packet-boundary fragmentation), added latency, and a blackhole mode
// whose writes vanish without error (a dead peer absorbed by TCP
// buffering). It mirrors internal/faultfs for the wire: netstream's
// resume tests kill the connection at every event boundary and must
// recover exactly-once results, loudly, never silently diverging.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"time"
)

// ErrInjected marks failures produced by the harness (joined with the
// specific errno where one applies), so tests can tell an injected
// fault from a real one.
var ErrInjected = errors.New("faultnet: injected fault")

func errReset() error { return errors.Join(ErrInjected, syscall.ECONNRESET) }

// Faults is a programmable fault plan shared by every connection
// wrapped through it. The zero budgets pass everything through; all
// methods are safe for concurrent use (Cut races live reads/writes by
// design — that is the fault being injected).
type Faults struct {
	mu           sync.Mutex
	cutWriteLeft int64 // remaining write-byte budget; <0 disables
	cutReadLeft  int64 // remaining read-byte budget; <0 disables
	maxWrite     int   // chunk underlying writes to at most this many bytes
	latency      time.Duration
	blackhole    bool
	cut          bool
	bytesWritten int64
	conns        []net.Conn
}

// New returns a pass-through fault plan.
func New() *Faults { return &Faults{cutWriteLeft: -1, cutReadLeft: -1} }

// CutAfterWrites arms a write budget: after n more bytes have been
// written across all wrapped connections, the write tears (a prefix
// lands, the rest is lost) and every further operation fails with an
// injected ECONNRESET. n = 0 severs on the next write.
func (f *Faults) CutAfterWrites(n int64) {
	f.mu.Lock()
	f.cutWriteLeft = n
	f.mu.Unlock()
}

// CutAfterReads arms the equivalent read budget.
func (f *Faults) CutAfterReads(n int64) {
	f.mu.Lock()
	f.cutReadLeft = n
	f.mu.Unlock()
}

// SetLatency delays every read and write by d.
func (f *Faults) SetLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

// SetMaxWrite chunks each underlying write to at most n bytes,
// exercising line reassembly across arbitrary packet boundaries.
// 0 disables.
func (f *Faults) SetMaxWrite(n int) {
	f.mu.Lock()
	f.maxWrite = n
	f.mu.Unlock()
}

// SetBlackhole makes writes report success while delivering nothing —
// the peer is gone but TCP buffering hides it, the failure mode
// heartbeats exist to expose. Reads are unaffected (they block, as
// they would against a silent peer).
func (f *Faults) SetBlackhole(on bool) {
	f.mu.Lock()
	f.blackhole = on
	f.mu.Unlock()
}

// Cut severs every wrapped connection now: in-flight blocked reads
// wake with an error, and every further operation fails with an
// injected ECONNRESET.
func (f *Faults) Cut() {
	f.mu.Lock()
	f.tripLocked()
	f.mu.Unlock()
}

// tripLocked marks the plan severed and closes the underlying
// connections so blocked peers notice.
func (f *Faults) tripLocked() {
	if f.cut {
		return
	}
	f.cut = true
	for _, c := range f.conns {
		_ = c.Close()
	}
}

// BytesWritten reports the bytes successfully written through wrapped
// connections (blackholed bytes count — the writer believed them
// delivered).
func (f *Faults) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytesWritten
}

// Conn wraps one established connection under the plan.
func (f *Faults) Conn(c net.Conn) net.Conn {
	f.mu.Lock()
	f.conns = append(f.conns, c)
	cut := f.cut
	f.mu.Unlock()
	if cut {
		_ = c.Close()
	}
	return &conn{Conn: c, f: f}
}

// Listener wraps a listener so every accepted connection is under the
// plan (server-side injection).
func (f *Faults) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, f: f}
}

type listener struct {
	net.Listener
	f *Faults
}

// PerConn wraps a listener so that every accepted connection runs
// under a fault plan of its own. A shared plan stays cut once cut; with
// one plan per connection a test can sever the live connection, let the
// peer reconnect, and fault the new one.
type PerConn struct {
	net.Listener
	mu  sync.Mutex
	cur *Faults
}

func (l *PerConn) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	f := New()
	l.mu.Lock()
	l.cur = f
	l.mu.Unlock()
	return f.Conn(c), nil
}

// Plan returns the plan of the newest accepted connection (nil before
// the first).
func (l *PerConn) Plan() *Faults {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.Conn(c), nil
}

type conn struct {
	net.Conn
	f *Faults
}

func (c *conn) delay() {
	c.f.mu.Lock()
	d := c.f.latency
	c.f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (c *conn) Write(p []byte) (int, error) {
	c.delay()
	f := c.f
	f.mu.Lock()
	if f.cut {
		f.mu.Unlock()
		return 0, errReset()
	}
	if f.blackhole {
		f.bytesWritten += int64(len(p))
		f.mu.Unlock()
		return len(p), nil
	}
	torn := false
	n := len(p)
	if f.cutWriteLeft >= 0 {
		if int64(n) >= f.cutWriteLeft {
			// Torn write: the budgeted prefix lands, then the reset.
			n = int(f.cutWriteLeft)
			torn = true
		}
		f.cutWriteLeft -= int64(n)
	}
	chunk := f.maxWrite
	f.mu.Unlock()

	written := 0
	for written < n {
		end := n
		if chunk > 0 && written+chunk < n {
			end = written + chunk
		}
		m, err := c.Conn.Write(p[written:end])
		written += m
		if err != nil {
			f.mu.Lock()
			f.bytesWritten += int64(written)
			f.mu.Unlock()
			return written, err
		}
	}
	f.mu.Lock()
	f.bytesWritten += int64(written)
	if torn {
		f.tripLocked()
	}
	f.mu.Unlock()
	if torn {
		return written, errReset()
	}
	return written, nil
}

func (c *conn) Read(p []byte) (int, error) {
	c.delay()
	f := c.f
	f.mu.Lock()
	if f.cut {
		f.mu.Unlock()
		return 0, errReset()
	}
	if f.cutReadLeft >= 0 {
		if f.cutReadLeft == 0 {
			f.tripLocked()
			f.mu.Unlock()
			return 0, errReset()
		}
		if int64(len(p)) > f.cutReadLeft {
			p = p[:f.cutReadLeft] // this read may exhaust the budget
		}
	}
	f.mu.Unlock()

	n, err := c.Conn.Read(p)

	f.mu.Lock()
	if f.cutReadLeft >= 0 {
		// A read already in flight when the budget was armed can overrun
		// it; the cut happens all the same.
		if f.cutReadLeft -= int64(n); f.cutReadLeft <= 0 {
			f.cutReadLeft = 0
			f.tripLocked()
		}
	}
	cut := f.cut
	f.mu.Unlock()
	if err != nil && cut {
		// A read severed mid-flight (Cut closed the conn under us)
		// surfaces as the injected reset, not a bare use-after-close.
		return n, errReset()
	}
	return n, err
}

func (c *conn) Close() error {
	return c.Conn.Close()
}
