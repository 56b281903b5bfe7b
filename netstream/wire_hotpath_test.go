package netstream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta"
)

// discardConn is a net.Conn that accepts every write and never reads:
// the wire hot path without a kernel underneath it.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// hotEvent is the i-th event of the net_durable shape.
func hotEvent(i int) (typ string, t int64, attrs map[string]float64, strs map[string]string) {
	return "Stock", int64(i / 8), hotAttrs[i%len(hotAttrs)], hotStrs[i%len(hotStrs)]
}

var hotAttrs, hotStrs = func() (a []map[string]float64, s []map[string]string) {
	for i := 0; i < 50; i++ {
		a = append(a, map[string]float64{"price": 90 + float64(i%23)/4, "volume": float64(100 + i)})
		s = append(s, map[string]string{"company": fmt.Sprintf("co%03d", i), "sector": fmt.Sprintf("s%d", i%5)})
	}
	return a, s
}()

// resumableClient is a Client in session mode over a discard
// connection, as EnableResume leaves it.
func resumableClient(window int) *Client {
	c := NewClient(discardConn{})
	c.session, c.SendWindow = "s0", window
	c.ring.Init(window, 0)
	return c
}

func sendN(tb testing.TB, c *Client, from, n int) {
	for i := from; i < from+n; i++ {
		if err := c.Send(hotEvent(i)); err != nil {
			tb.Fatal(err)
		}
	}
}

// hotSession is a resumable server session (Q2-shaped statement)
// attached to a discard connection.
func hotSession(tb testing.TB) (*session, net.Conn) {
	stmt, err := greta.Compile("RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price GROUP-BY sector WITHIN 20 SLIDE 10")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Statements: []*greta.Statement{stmt}, Linger: time.Minute, AllowShard: true}
	conn := discardConn{}
	w := bufio.NewWriter(conn)
	sess := srv.newSession(conn, w, json.NewEncoder(w))
	if sess == nil {
		tb.Fatal("no session")
	}
	tb.Cleanup(func() {
		sess.mu.Lock()
		sess.teardownLocked()
		sess.mu.Unlock()
	})
	if sess.handle(conn, &record{kind: recWire, we: WireEvent{Cmd: "session"}}) || !sess.resumable {
		tb.Fatal("session command refused")
	}
	return sess, conn
}

// hotLines are the lines a client would send for events from..from+n,
// of type typ.
func hotLines(tb testing.TB, typ string, from, n int) [][]byte {
	var enc eventEncoder
	lines := make([][]byte, n)
	for i := range lines {
		_, t, attrs, strs := hotEvent(from + i)
		line, err := enc.appendLine(nil, uint64(from+i+1), typ, t, attrs, strs)
		if err != nil {
			tb.Fatal(err)
		}
		lines[i] = line[:len(line)-1] // the scanner strips the newline
	}
	return lines
}

// hotFrame is a batch frame of the net_durable shape as a client's
// encoder writes it, newline stripped: rows rows of type typ under seq,
// routed (route group 0, one hash per row) when it is for a shard link.
func hotFrame(tb testing.TB, seq uint64, typ string, rows int, routed bool) (*BatchFrame, []byte) {
	f := &BatchFrame{Type: typ, Nums: []string{"price", "volume"}, Cols: make([][]float64, 2), Strs: []string{"company", "sector"}, SCols: make([][]string, 2)}
	for i := 0; i < rows; i++ {
		_, _, attrs, strs := hotEvent(i)
		f.Times = append(f.Times, int64(seq))
		f.Cols[0], f.Cols[1] = append(f.Cols[0], attrs["price"]), append(f.Cols[1], attrs["volume"])
		f.SCols[0], f.SCols[1] = append(f.SCols[0], strs["company"]), append(f.SCols[1], strs["sector"])
		if routed {
			f.RGs, f.RHs, f.RowEnd = append(f.RGs, 0), append(f.RHs, uint64(i%50)+1), append(f.RowEnd, i+1)
		}
	}
	line, err := appendBatchFrame(nil, seq, f)
	if err != nil {
		tb.Fatal(err)
	}
	return f, line[:len(line)-1]
}

// amortizedAllocs is testing.AllocsPerRun without its truncation to an
// integer: the heap objects f allocates a call, averaged over runs calls
// after one warm-up call, for costs that are a fraction of one.
func amortizedAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWireHotPathAllocs is the wire's allocation guard (make
// alloc-guard): a steady-state resumable Send allocates nothing — the
// line is encoded onto the reused pending buffer and copied into the
// ring's recycled segments, and the buffer's writes re-arm one linger
// timer — and the server's event-line parse plus dispatch allocates
// nothing: no WireEvent, no attribute maps, no name or value strings,
// and no slab, since the session carves events off slabs it takes back
// once its horizon has passed them (the lines are of a type no
// statement reads, so the statement's windows close and let go of them).
// The batch frame likewise: encoding one onto the pending buffer and
// into a warm ring allocates nothing, and parse plus apply allocates
// per frame an ordinary session's event batch (header and four slabs)
// and nothing per row, and nothing at all on a shard session, whose
// rows no unit holds.
func TestWireHotPathAllocs(t *testing.T) {
	t.Run("batch-frame/encode", func(t *testing.T) {
		c := resumableClient(64)
		f, _ := hotFrame(t, 1, "Stock", 64, true)
		send := func() {
			if _, err := c.SendBatchFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1100; i++ { // wrap the ring, past the last seq that adds a digit
			send()
		}
		if n := testing.AllocsPerRun(500, send); n != 0 {
			t.Errorf("steady-state SendBatchFrame allocates %v per frame, want 0", n)
		}
	})
	for _, rows := range []int{1, 64, 512} {
		t.Run(fmt.Sprintf("batch-frame/decode+apply/rows=%d", rows), func(t *testing.T) {
			for _, shard := range []bool{false, true} {
				// The rows are of a type no statement reads (and the shard hosts
				// no unit): what is measured is the wire's share of the apply.
				sess, conn := hotSession(t)
				seq := uint64(0)
				if shard {
					seq++
					if sess.handle(conn, &record{kind: recWire, we: WireEvent{Cmd: "shard", Seq: seq, Count: 1, Workers: []int{0}}}) || sess.shard == nil {
						t.Fatal("shard handshake refused")
					}
				}
				// An ordinary session's frame is an event batch of its own.
				// A shard session's rows are carved off its slabs, which the
				// carver takes back as soon as it retires them — nothing
				// holds a row — so no frame allocates; read the mallocs
				// themselves across many frames, since AllocsPerRun
				// truncates a fraction of one to 0.
				warm, runs, want, allocs := 20, 20, 5.0, testing.AllocsPerRun
				if shard {
					warm, runs, want, allocs = 64, 640, 0, amortizedAllocs
				}
				var lines [][]byte
				for k := 1; k <= warm+runs+1; k++ {
					_, line := hotFrame(t, seq+uint64(k), "Quote", rows, shard)
					lines = append(lines, line)
				}
				var rec record
				k := 0
				feed := func() {
					if rec.decode(lines[k]); rec.kind != recBatch {
						t.Fatalf("fast parser declined %q", lines[k])
					}
					if sess.handle(conn, &rec) {
						t.Fatal("session stopped")
					}
					k++
				}
				for k < warm {
					feed()
				}
				if n := allocs(runs, feed); n > want {
					t.Errorf("shard=%v: batch-frame parse + apply allocates %v per %d-row frame, want <= %v", shard, n, rows, want)
				}
				if sess.lastSeq != seq+uint64(k) || sess.processed != uint64(k*rows) {
					t.Fatalf("shard=%v: session applied %d rows through seq %d, fed %d frames through %d", shard, sess.processed, sess.lastSeq, k, seq+uint64(k))
				}
			}
		})
	}

	c := resumableClient(1024)
	sendN(t, c, 0, 4096) // wrap the ring: every slot has its capacity
	i := 4096
	if n := testing.AllocsPerRun(2000, func() { sendN(t, c, i, 1); i++ }); n != 0 {
		t.Errorf("steady-state resumable Client.Send allocates %v per event, want 0", n)
	}
	// AllocsPerRun truncates: read the mallocs themselves across a few
	// hundred chunk writes, each followed by a line that re-arms the
	// linger timer, and across sends that each wait out the linger, so
	// the timer fires, writes, and is re-armed by the next line.
	if n := amortizedAllocs(40000, func() { sendN(t, c, i, 1); i++ }); n != 0 {
		t.Errorf("resumable Client.Send allocates %v per event across chunk writes, want 0", n)
	}
	if n := amortizedAllocs(50, func() { sendN(t, c, i, 1); i++; time.Sleep(3 * sendLinger) }); n != 0 {
		t.Errorf("resumable Client.Send allocates %v per event across linger writes, want 0", n)
	}

	// Of a type no statement reads, like the frames above: on Stock lines
	// the results the stream closes (four objects each: values, result
	// line, ring stage, send) and the engine's payload-pool misses add
	// about 0.37 an event, none of it the event line's.
	sess, conn := hotSession(t)
	lines := hotLines(t, "Quote", 0, 8000)
	var rec record
	feed := func(line []byte) {
		if rec.decode(line); rec.kind != recEvent {
			t.Fatalf("fast parser declined %q", line)
		}
		if sess.handle(conn, &rec) {
			t.Fatal("session stopped")
		}
	}
	for _, l := range lines[:4000] { // warm the schema and intern tables
		feed(l)
	}
	k := 4000
	if n := amortizedAllocs(3000, func() { feed(lines[k]); k++ }); n != 0 {
		t.Errorf("server event-line parse + dispatch allocates %v per event, want 0 (the session's slabs are reused once its horizon passes them)", n)
	}
	if sess.processed != uint64(k) || sess.lastSeq != uint64(k) {
		t.Fatalf("session applied %d events through seq %d, fed %d", sess.processed, sess.lastSeq, k)
	}
}

// TestFullRingSendCostsNoMore pins the cliff shut: with the resend ring
// full, a Send allocates nothing and costs no more than a Send into a
// ring that is still filling — at the cluster's 65 536 default window,
// where shifting the ring per frame once cost milliseconds per Send —
// and lines that cycle through 40 B to 4 KiB allocate nothing either.
func TestFullRingSendCostsNoMore(t *testing.T) {
	pads := []int{0, 4000, 60, 1400, 10, 3900, 700, 2500, 200}
	var mixed []map[string]string
	for _, n := range pads {
		mixed = append(mixed, map[string]string{"p": strings.Repeat("x", n)})
	}
	if n := len(jsonLine(t, WireEvent{Seq: 1, Type: "A", Time: 1, Str: mixed[0]})); n < 40 {
		t.Fatalf("the shortest line is %d bytes", n)
	}
	if n := len(jsonLine(t, WireEvent{Seq: 1 << 20, Type: "A", Time: 1, Str: mixed[1]})); n > 4<<10 {
		t.Fatalf("the longest line is %d bytes", n)
	}
	cycled := resumableClient(1021)
	k := 0
	sendMixed := func() {
		for i := 0; i < 1000; i++ {
			if err := cycled.Send("A", 1, nil, mixed[k%len(mixed)]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	sendMixed()
	sendMixed()
	if a := testing.AllocsPerRun(1, sendMixed); a != 0 {
		t.Errorf("1000 Sends of 40 B to 4 KiB lines into a full ring allocate %v, want 0", a)
	}

	const window, n = 1 << 16, 20000
	perSend := func(c *Client, from int) time.Duration {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			sendN(t, c, from+rep*n, n)
			best = min(best, time.Since(t0)/n)
		}
		return best
	}
	filling := perSend(resumableClient(5*n+1), 0)
	full := resumableClient(window)
	sendN(t, full, 0, 2*window)
	i := 2 * window
	if a := testing.AllocsPerRun(1000, func() { sendN(t, full, i, 1); i++ }); a != 0 {
		t.Errorf("Send into a full %d-line ring allocates %v, want 0", window, a)
	}
	if cost := perSend(full, i); cost > 2*filling+time.Microsecond {
		t.Errorf("Send into a full %d-line ring costs %v, into a filling one %v", window, cost, filling)
	}
}

// BenchmarkClientSend measures the client half of the event line:
// encode into the ring slot and hand the slot to the connection.
func BenchmarkClientSend(b *testing.B) {
	b.Run("ring=empty", func(b *testing.B) {
		c := resumableClient(b.N + 1)
		b.ReportAllocs()
		b.ResetTimer()
		sendN(b, c, 0, b.N)
	})
	b.Run("ring=full", func(b *testing.B) {
		c := resumableClient(1024)
		sendN(b, c, 0, 2048)
		b.ReportAllocs()
		b.ResetTimer()
		sendN(b, c, 2048, b.N)
	})
}

// BenchmarkEventLineDecode measures the server half: one event line to
// an event the runtime can take, by the one-pass parser and schema
// binding, and by encoding/json into a WireEvent with attribute maps.
func BenchmarkEventLineDecode(b *testing.B) {
	lines := hotLines(b, "Stock", 0, 1024)
	b.Run("fast", func(b *testing.B) {
		// A runtime that is handed none of the events holds none: the
		// carver takes each slab back as soon as it is full.
		sess := &session{rt: greta.NewRuntime()}
		defer sess.rt.Close()
		var el eventLine
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !el.parse(lines[i%len(lines)]) {
				b.Fatal("declined")
			}
			sinkEvent = sess.bindLocked(&el, uint64(i))
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var we WireEvent
			if err := json.Unmarshal(lines[i%len(lines)], &we); err != nil {
				b.Fatal(err)
			}
			sinkEvent = &greta.Event{ID: uint64(i), Type: greta.Type(we.Type), Time: we.Time, Attrs: we.Attrs, Str: we.Str}
		}
	})
}

var sinkEvent *greta.Event

// BenchmarkBatchFrameDecode measures the server half of the batch
// frame: one routed 64-row frame to an event batch the runtime can
// take, by the one-pass parser, and by encoding/json into a WireEvent
// plus the generic path's conversion.
func BenchmarkBatchFrameDecode(b *testing.B) {
	_, line := hotFrame(b, 7, "Stock", 64, true)
	b.Run("fast", func(b *testing.B) {
		sess := &session{}
		var bl batchLine
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !bl.parse(line) {
				b.Fatal("declined")
			}
			sinkBatch = sess.batchLocked(&bl, 0)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		sess := &session{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var we WireEvent
			var bl batchLine
			if err := json.Unmarshal(line, &we); err != nil {
				b.Fatal(err)
			}
			if err := bl.fromWire(&we, true); err != nil {
				b.Fatal(err)
			}
			sinkBatch = sess.batchLocked(&bl, 0)
		}
	})
}

var sinkBatch *greta.Batch
