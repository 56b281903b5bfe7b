package netstream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
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
// the summary counts every event. Run under -race it also checks the
// sender/reader split of the Client's state.
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
			if _, err := c.SendFrame(&WireEvent{Type: "A", Time: int64(i)}); err != nil {
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
