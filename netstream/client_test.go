package netstream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/faultnet"
)

// failingConn is a connection whose every write fails.
type failingConn struct{ net.Conn }

func (failingConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestClientWriteFailure pins what a failed frame write does: the
// connection closes at once (so the peer, and this client's reader,
// see the break), later frames are not written into the dead socket,
// and this and later sequenced frames stay in the resend ring for the
// resume to replay. Unsequenced lines are not ringed.
func TestClientWriteFailure(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	c := NewClient(failingConn{near})
	c.session, c.SendWindow = "s0", 8
	c.ring.Init(c.SendWindow, 0)

	const first = `{"cmd":"barrier","seq":1,"time":0,"si":1}` + "\n"
	if n, err := c.SendFrame(&WireEvent{Cmd: "barrier", SI: 1}); err != nil || n != len(first) {
		t.Fatalf("SendFrame over a failing write = %d, %v; want the frame's %d bytes and no error (the frame is ringed)", n, err, len(first))
	}
	if !c.down {
		t.Fatal("client still up after a failed write")
	}
	_ = far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read = %v, want EOF: the connection must be closed", err)
	}
	if _, err := c.SendFrame(&WireEvent{Cmd: "barrier", SI: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendFrame(&WireEvent{Cmd: "flush"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("A", 3, nil, nil); !errors.Is(err, errDown) {
		t.Fatalf("Send on a down client = %v, want errDown (ringed, not written)", err)
	}
	var replay bytes.Buffer
	if err := c.ring.WriteAfter(&replay, 0); err != nil {
		t.Fatal(err)
	}
	const want = first + `{"cmd":"barrier","seq":2,"time":0,"si":2}` + "\n" + `{"seq":3,"type":"A","time":3}` + "\n"
	if replay.String() != want {
		t.Fatalf("resend ring replays %q, want the three sequenced frames %q", replay.String(), want)
	}
}

// TestClientConcurrentSendResume drives one Client the way a cluster
// link does — one goroutine sending sequenced frames, another reading
// lines and healing breaks with Resume — while the server side of the
// connection is severed between frames, mid-frame and mid-result. Every
// frame must be applied exactly once: each window holds exactly its four
// events (COUNT(*) of A+ = 15), each window's result arrives once, and
// the summary counts every event. Every other event goes through Send,
// so coalesced lines, linger writes and a Resume that drops the pending
// buffer meet too. Run under -race it also checks the sender/reader
// split of the Client's state.
func TestClientConcurrentSendResume(t *testing.T) {
	const n = 4000 // one event per tick, four ticks per window
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stmt, err := greta.Compile("RETURN COUNT(*) PATTERN A+ WITHIN 4 SLIDE 4")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Linger: time.Minute, Statements: []*greta.Statement{stmt}}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &faultnet.PerConn{Listener: tcp}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })

	c, err := DialContext(ctx, tcp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A stream that stalls (a lost line) fails at the deadline: the
	// closed connection wakes the reader and its Resume gives up.
	defer context.AfterFunc(ctx, func() { c.Close() })()
	c.SendWindow = n
	if _, err := c.EnableResume(ctx); err != nil {
		t.Fatal(err)
	}

	faults := map[int]func(*faultnet.Faults){
		n / 5:     func(f *faultnet.Faults) { f.Cut() },
		2 * n / 5: func(f *faultnet.Faults) { f.CutAfterReads(53) },  // a frame torn on its way in
		3 * n / 5: func(f *faultnet.Faults) { f.CutAfterWrites(41) }, // a result torn on its way out
		4 * n / 5: func(f *faultnet.Faults) { f.Cut() },
	}
	var resumes, injected atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the sender
		defer wg.Done()
		for i := 0; i < n; i++ {
			if arm, ok := faults[i]; ok {
				// One break at a time: a connection lost during the resume
				// handshake itself is fatal by design.
				for resumes.Load() < injected.Load() && ctx.Err() == nil {
					time.Sleep(time.Millisecond)
				}
				injected.Add(1)
				arm(ln.Plan())
			}
			if i%2 == 0 {
				// A write error here is the break the reader heals; the
				// event is in the ring either way.
				_ = c.Send("A", int64(i), nil, nil)
			} else if _, err := c.SendFrame(&WireEvent{Type: "A", Time: int64(i)}); err != nil {
				t.Errorf("SendFrame %d: %v", i, err)
				return
			}
		}
	}()

	seen := map[int64]int{}
	note := func(r *WireResult) {
		seen[r.Wid]++
		if len(r.Values) != 1 || r.Values[0] != 15 {
			t.Errorf("window %d = %v, want COUNT(*) = 15 (four events, each applied once)", r.Wid, r.Values)
		}
	}
	// The reader: every window but the last closes mid-stream.
	for windows := n / 4; len(seen) < windows-1; {
		o, err := c.ReadLine()
		switch {
		case err != nil:
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume after %d breaks: %v", injected.Load(), err)
			}
			resumes.Add(1)
		case o.Error != "":
			t.Fatalf("server error line: %s", o.Error)
		case o.Result != nil:
			note(o.Result)
		}
	}
	wg.Wait()
	rest, events, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rest {
		note(&rest[i])
	}
	if events != n {
		t.Errorf("summary counts %d events, sent %d", events, n)
	}
	for wid := int64(0); wid < n/4; wid++ {
		if seen[wid] != 1 {
			t.Errorf("window %d delivered %d times, want once", wid, seen[wid])
		}
	}
	if got := resumes.Load(); got < int64(len(faults)) {
		t.Errorf("%d breaks injected, %d resumes", len(faults), got)
	}
}

// writeLog is a connection that records each write it passes on, so a
// test can count the client's write(2) calls and read what each carried.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// take returns the writes recorded since the last take.
func (w *writeLog) take() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.writes
	w.writes = nil
	return out
}

// withoutLinger gives c a linger timer whose firing writes nothing:
// queueLocked re-arms it instead of making its own, so every write the
// test sees is a chunk's or a call's.
func withoutLinger(c *Client) *Client {
	c.linger = time.AfterFunc(time.Hour, func() {})
	return c
}

// jsonLine is encoding/json's line for we: what the client's encoders
// must write for it, byte for byte.
func jsonLine(t *testing.T, we WireEvent) []byte {
	b, err := json.Marshal(we)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSendCoalescing pins the write contract of Send: event lines are
// written a chunk at a time, as the lines concatenated; a command, a
// frame and Close write the pending lines first, in the same write; a
// lone event goes out after the linger with no further call; and a cut
// that tears a coalesced write mid-chunk is healed by Resume with every
// event applied exactly once.
func TestSendCoalescing(t *testing.T) {
	// padded is the i-th 64-byte event line: 64 divides the chunk, so
	// the sends' writes are exactly chunk-sized.
	const lineLen = 64
	padded := func(i int) WireEvent {
		we := WireEvent{Type: "A", Time: 100000 + int64(i), Str: map[string]string{"p": ""}}
		we.Str["p"] = strings.Repeat("x", lineLen-len(jsonLine(t, we)))
		return we
	}
	send := func(t *testing.T, c *Client, we WireEvent) []byte {
		t.Helper()
		if err := c.Send(we.Type, we.Time, we.Attrs, we.Str); err != nil {
			t.Fatal(err)
		}
		return jsonLine(t, we)
	}
	dial := func(t *testing.T, addr string) (*Client, *writeLog) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		w := &writeLog{Conn: raw}
		c := NewClient(w)
		t.Cleanup(func() { c.Close() })
		return c, w
	}
	addr := startOptServer(t, &Server{}, "RETURN COUNT(*) PATTERN B+")

	t.Run("chunks", func(t *testing.T) {
		perChunk := sendChunk / lineLen
		for _, n := range []int{3 * perChunk, 3*perChunk + 17} {
			c, w := dial(t, addr)
			withoutLinger(c)
			var lines []byte
			for i := 0; i < n; i++ {
				lines = append(lines, send(t, c, padded(i))...)
			}
			writes := w.take()
			if want := n * lineLen / sendChunk; len(writes) != want {
				t.Fatalf("%d sends of %d bytes took %d writes, want %d", n, len(lines), len(writes), want)
			}
			for k, p := range writes {
				if len(p) != sendChunk {
					t.Fatalf("write %d carried %d bytes, want one chunk (%d)", k, len(p), sendChunk)
				}
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Processed != uint64(n) {
				t.Fatalf("server applied %d events, sent %d", st.Processed, n)
			}
			cmd := w.take()
			if len(cmd) != 1 {
				t.Fatalf("the stats command took %d writes, want 1 carrying the %d pending bytes", len(cmd), len(lines)%sendChunk)
			}
			got := bytes.Join(append(writes, cmd...), nil)
			if want := append(lines, jsonLine(t, WireEvent{Cmd: "stats"})...); !bytes.Equal(got, want) {
				t.Fatalf("the wire carried %d bytes that are not the %d of the event lines and the command, concatenated", len(got), len(want))
			}
		}
	})

	t.Run("order", func(t *testing.T) {
		c, w := dial(t, addr)
		withoutLinger(c)
		batch, err := appendBatchFrame(nil, 0, &BatchFrame{Type: "A", Times: []int64{7, 8}})
		if err != nil {
			t.Fatal(err)
		}
		calls := []struct {
			name string
			call func() error
			line []byte
		}{
			{"SendFrame", func() error { _, err := c.SendFrame(&WireEvent{Type: "A", Time: 3}); return err }, jsonLine(t, WireEvent{Type: "A", Time: 3})},
			{"Stats", func() error { _, err := c.Stats(); return err }, jsonLine(t, WireEvent{Cmd: "stats"})},
			{"SendBatch", func() error { return c.SendBatch("A", []int64{7, 8}, nil, nil) }, batch},
			{"Close", c.Close, nil},
		}
		for k, call := range calls {
			want := append(send(t, c, padded(2*k)), send(t, c, padded(2*k+1))...)
			if got := w.take(); len(got) != 0 {
				t.Fatalf("%s: two sends wrote %d times before the call", call.name, len(got))
			}
			if err := call.call(); err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
			want = append(want, call.line...)
			if got := w.take(); len(got) != 1 || !bytes.Equal(got[0], want) {
				t.Fatalf("%s wrote %q, want one write of the pending lines then its own: %q", call.name, got, want)
			}
		}
	})

	t.Run("window", func(t *testing.T) {
		// A resumable session never holds more lines pending than its ring
		// retains: a pending line is always one Resume can replay.
		c := withoutLinger(resumableClient(8))
		w := &writeLog{Conn: c.conn}
		c.conn = w
		for i := 0; i < 20; i++ {
			send(t, c, padded(i))
		}
		writes := w.take()
		if len(writes) != 2 || bytes.Count(writes[0], []byte("\n")) != 8 || bytes.Count(writes[1], []byte("\n")) != 8 {
			t.Fatalf("20 sends into an 8-line ring wrote %d times, want 2 writes of 8 lines", len(writes))
		}
	})

	t.Run("linger", func(t *testing.T) {
		near, far := net.Pipe()
		c := NewClient(near)
		defer c.Close()
		defer far.Close() // first, so a Close with lines pending fails instead of blocking
		r := bufio.NewReader(far)
		for i := 0; i < 2; i++ { // the second re-arms the timer the first fired
			t0 := time.Now()
			want := send(t, c, padded(i))
			_ = far.SetReadDeadline(t0.Add(5 * time.Second))
			got, err := r.ReadBytes('\n')
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("event %d: peer read %q, %v; want %q", i, got, err, want)
			}
			// The linger is 1 ms; the bound leaves room for a loaded runner.
			if d := time.Since(t0); d > sendLinger+500*time.Millisecond {
				t.Fatalf("event %d reached the peer after %v (linger %v)", i, d, sendLinger)
			}
		}
	})

	t.Run("linger-error", func(t *testing.T) {
		// A failed linger write is returned by the next call, once; the
		// calls after it find the connection down.
		near, far := net.Pipe()
		defer far.Close()
		c := NewClient(failingConn{near})
		send(t, c, padded(0))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			down := c.down
			c.mu.Unlock()
			if down {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the linger write never ran")
			}
		}
		if err := c.Send("A", 1, nil, nil); err == nil || errors.Is(err, errDown) {
			t.Fatalf("the call after a failed linger write = %v, want the write's error", err)
		}
		if err := c.Send("A", 2, nil, nil); !errors.Is(err, errDown) {
			t.Fatalf("the next call = %v, want errDown", err)
		}
	})

	t.Run("resume", func(t *testing.T) {
		const n = 4000 // one event per tick, four ticks per window
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		addr := startResumeServer(t, &Server{Linger: time.Minute}, "RETURN COUNT(*) PATTERN A+ WITHIN 4 SLIDE 4")
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		f := faultnet.New()
		c := NewClient(f.Conn(raw))
		c.addr = addr
		defer c.Close()
		// The ring must outlast what the server has not applied when the
		// cut discards the socket's backlog.
		c.SendWindow = n
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		f.CutAfterWrites(sendChunk * 5 / 2) // inside the third write, a chunk or a linger write
		resumes := 0
		for i := 0; i < n; i++ {
			if err := c.Send("A", int64(i), nil, nil); err != nil {
				if err := c.Resume(ctx); err != nil {
					t.Fatalf("Resume after send %d: %v", i, err)
				}
				resumes++
			}
		}
		results, events, err := c.Flush()
		if err != nil { // the cut may surface at the flush's write instead
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume at flush: %v", err)
			}
			resumes++
			if results, events, err = c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if resumes != 1 {
			t.Fatalf("%d resumes, want 1: the cut must tear one write", resumes)
		}
		if events != n {
			t.Errorf("summary counts %d events, sent %d", events, n)
		}
		seen := map[int64]int{}
		for _, r := range results {
			seen[r.Wid]++
			if len(r.Values) != 1 || r.Values[0] != 15 {
				t.Errorf("window %d = %v, want COUNT(*) = 15 (four events, each applied once)", r.Wid, r.Values)
			}
		}
		for wid := int64(0); wid < n/4; wid++ {
			if seen[wid] != 1 {
				t.Errorf("window %d delivered %d times, want once", wid, seen[wid])
			}
		}
	})
}
