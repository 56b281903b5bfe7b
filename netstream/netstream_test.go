package netstream

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta"
)

func startServer(t *testing.T, qsrc string, slack greta.Time) (addr string, srv *Server) {
	t.Helper()
	stmt, err := greta.Compile(qsrc)
	if err != nil {
		t.Fatal(err)
	}
	srv = &Server{
		Statements: []*greta.Statement{stmt},
		Slack:      slack,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func TestEndToEndSession(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*), SUM(A.x) PATTERN (SEQ(A+, B))+", 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The Fig. 12 stream: expect COUNT(*)=11, SUM(A.x)=100.
	send := func(typ string, tm int64, x float64) {
		attrs := map[string]float64{}
		if x != 0 {
			attrs["x"] = x
		}
		if err := c.Send(typ, tm, attrs, nil); err != nil {
			t.Fatal(err)
		}
	}
	send("A", 1, 5)
	send("B", 2, 0)
	send("A", 3, 6)
	send("A", 4, 4)
	send("B", 7, 0)
	results, events, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if events != 5 {
		t.Errorf("events = %d, want 5", events)
	}
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Values[0] != 11 || results[0].Values[1] != 100 {
		t.Errorf("values = %v, want [11 100]", results[0].Values)
	}
}

// TestNonFiniteResultReported: a result whose value JSON cannot carry
// (here COUNT(*) and SUM over 1,100 Kleene events overflow to +Inf) must
// not vanish — the client gets an error naming the statement and the
// window, in plain and in resumable sessions alike, and in the latter
// the lost line consumes no durable seq.
func TestNonFiniteResultReported(t *testing.T) {
	for _, resumable := range []bool{false, true} {
		t.Run(fmt.Sprintf("resumable=%v", resumable), func(t *testing.T) {
			addr := startOptServer(t, &Server{Linger: time.Minute},
				"RETURN COUNT(*), SUM(A.x), AVG(A.x) PATTERN A+ WITHIN 5000 SLIDE 5000")
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if resumable {
				if _, err := c.EnableResume(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 1100; i++ {
				if err := c.Send("A", int64(i), map[string]float64{"x": 2}, nil); err != nil {
					t.Fatal(err)
				}
			}
			results, _, err := c.Flush()
			if err == nil {
				t.Fatalf("Flush = %v, nil: the overflowed window vanished without a word", results)
			}
			for _, want := range []string{"q0", "window 0", "+Inf"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Flush error %q does not name %q", err, want)
				}
			}
			if c.lastRecv != 0 { // the session's only durable line
				t.Errorf("the undeliverable result consumed durable seq %d", c.lastRecv)
			}
		})
	}
}

func TestStreamingWindowResults(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tm := range []int64{1, 5, 12, 25} {
		if err := c.Send("A", tm, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	results, _, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0 ([0,10): a1,a5 -> 3 trends), 1 ([10,20): a12 -> 1),
	// 2 ([20,30): a25 -> 1).
	if len(results) != 3 {
		t.Fatalf("results = %+v, want 3 windows", results)
	}
	if results[0].Values[0] != 3 {
		t.Errorf("window 0 count = %v, want 3", results[0].Values[0])
	}
}

func TestReorderSlack(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN SEQ(A, B)", 10)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// B arrives before A but carries a later timestamp after reordering
	// the pair forms one match.
	if err := c.Send("B", 5, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("A", 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, _, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Values[0] != 1 {
		t.Errorf("results = %+v, want one match", results)
	}
}

func TestBadInputReported(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN A+", 0)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	if _, _, err := c.Flush(); err == nil {
		t.Error("expected protocol error for malformed event")
	}
}

func TestMissingTypeReported(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN A+", 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Flush(); err == nil {
		t.Error("expected error for missing type")
	}
}

func TestConcurrentSessions(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN A+", 0)
	done := make(chan error, 4)
	for s := 0; s < 4; s++ {
		go func(n int) {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 1; i <= n; i++ {
				if err := c.Send("A", int64(i), nil, nil); err != nil {
					done <- err
					return
				}
			}
			results, _, err := c.Flush()
			if err != nil {
				done <- err
				return
			}
			want := float64(uint64(1)<<uint(n)) - 1
			if len(results) != 1 || results[0].Values[0] != want {
				done <- errorf("session %d: got %+v, want %v", n, results, want)
				return
			}
			done <- nil
		}(3 + s)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func errorf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

// startRuntimeServer serves multi-statement sessions with mid-stream
// registration enabled.
func startRuntimeServer(t *testing.T, queries ...string) string {
	t.Helper()
	srv := &Server{AllowRegister: true}
	for _, q := range queries {
		stmt, err := greta.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		srv.Statements = append(srv.Statements, stmt)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestMultiStatementTaggedResults runs two statements over one shared
// session stream and checks results carry their statement ids.
func TestMultiStatementTaggedResults(t *testing.T) {
	addr := startRuntimeServer(t,
		"RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10",
		"RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 SLIDE 10")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, e := range []struct {
		typ string
		tm  int64
	}{{"A", 1}, {"A", 3}, {"B", 5}, {"A", 12}} {
		if err := c.Send(e.typ, e.tm, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	results, events, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if events != 4 {
		t.Errorf("events = %d, want 4", events)
	}
	byStmt := map[string]int{}
	for _, r := range results {
		byStmt[r.Stmt]++
	}
	// q0: windows 0 and 1 (A-trends); q1: window 0 (two SEQ(A,B) matches).
	if byStmt["q0"] != 2 || byStmt["q1"] != 1 {
		t.Errorf("results per statement = %v, want q0:2 q1:1 (all %+v)", byStmt, results)
	}
}

// TestMidStreamRegisterAndClose registers a statement mid-stream (it
// sees only the suffix), then closes the first statement and checks
// the survivor keeps producing.
func TestMidStreamRegisterAndClose(t *testing.T) {
	addr := startRuntimeServer(t, "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for tm := int64(1); tm <= 12; tm++ {
		if err := c.Send("A", tm, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	id, err := c.Register("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	if err != nil {
		t.Fatal(err)
	}
	if id != "q1" {
		t.Errorf("registered id = %q, want q1", id)
	}
	if err := c.CloseStatement("q0"); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStatement("q0"); err == nil {
		t.Error("closing q0 twice should report an error")
	}
	for tm := int64(13); tm <= 25; tm++ {
		if err := c.Send("A", tm, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	results, _, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string][]int64{}
	for _, r := range results {
		counts[r.Stmt] = append(counts[r.Stmt], r.Wid)
	}
	// q0 closed at watermark 12: window 0 plus the flushed window 1.
	if len(counts["q0"]) != 2 {
		t.Errorf("q0 windows = %v, want window 0 + flushed window 1", counts["q0"])
	}
	// q1 registered at watermark 12: it must not emit window 0 (closed
	// before registration) but covers windows 1 and 2.
	for _, wid := range counts["q1"] {
		if wid == 0 {
			t.Errorf("q1 emitted window 0, which closed before registration (windows %v)", counts["q1"])
		}
	}
	if len(counts["q1"]) != 2 {
		t.Errorf("q1 windows = %v, want 2 (windows 1 and 2)", counts["q1"])
	}
}

// TestRegisterRejected covers the register error paths: disabled
// server and bad query text, both reported as protocol errors.
func TestRegisterRejected(t *testing.T) {
	addr, _ := startServer(t, "RETURN COUNT(*) PATTERN A+", 0)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register("RETURN COUNT(*) PATTERN B+"); err == nil {
		t.Error("register on a server without AllowRegister must be rejected")
	}

	addr2 := startRuntimeServer(t, "RETURN COUNT(*) PATTERN A+")
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Register("bogus query"); err == nil {
		t.Error("register with a bad query must be rejected")
	}
	// The session survives a rejected registration.
	if err := c2.Send("A", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, events, err := c2.Flush(); err != nil || events != 1 {
		t.Errorf("session after rejected register: events=%d err=%v", events, err)
	}
}

// TestOutOfOrderReported checks that events violating time order are
// dropped, counted, and reported to the client as non-fatal warnings
// instead of silently swallowed — and that the session (and its
// results) survives.
func TestOutOfOrderReported(t *testing.T) {
	addr := startRuntimeServer(t, "RETURN COUNT(*) PATTERN A+")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("A", 10, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("A", 3, nil, nil); err != nil { // late, no slack
		t.Fatal(err)
	}
	if err := c.Send("A", 12, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, events, err := c.Flush()
	if err != nil {
		t.Fatalf("out-of-order drops must not fail the session: %v", err)
	}
	if events != 2 {
		t.Errorf("events = %d, want 2 (the late event dropped)", events)
	}
	if len(results) != 1 || results[0].Values[0] != 3 { // trends over {a10, a12}
		t.Errorf("results = %+v, want count 3", results)
	}
	if len(c.Warnings()) != 1 {
		t.Errorf("warnings = %v, want exactly the drop diagnostic", c.Warnings())
	}
}

// startOptServer serves sessions from a fully caller-configured Server
// (timeouts, runtime options) on an ephemeral port.
func startOptServer(t *testing.T, srv *Server, queries ...string) string {
	t.Helper()
	for _, q := range queries {
		stmt, err := greta.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		srv.Statements = append(srv.Statements, stmt)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestIdleTimeout checks a silent client is cut off with a clean
// {"error":"timeout"} line followed by connection close — not a silent
// hang and not a done summary (nothing was flushed).
func TestIdleTimeout(t *testing.T) {
	addr := startOptServer(t, &Server{IdleTimeout: 60 * time.Millisecond},
		"RETURN COUNT(*) PATTERN A+")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := json.NewDecoder(conn)
	var o struct {
		Error string `json:"error"`
		Done  bool   `json:"done"`
	}
	if err := dec.Decode(&o); err != nil {
		t.Fatalf("reading timeout line: %v", err)
	}
	if o.Error != "timeout" || o.Done {
		t.Fatalf("first line after idling = %+v, want error=timeout", o)
	}
	if err := dec.Decode(&o); err == nil {
		t.Errorf("connection stayed open after the timeout line: %+v", o)
	}
}

// TestCheckpointCommand drives {"cmd":"checkpoint"}: the acknowledged
// snapshot must be restorable offline, and the session keeps serving.
func TestCheckpointCommand(t *testing.T) {
	dir := t.TempDir()
	srv := &Server{
		RuntimeOptions: func() []greta.RuntimeOption {
			return []greta.RuntimeOption{greta.WithCheckpoint(dir, 1<<40)}
		},
	}
	addr := startOptServer(t, srv, "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for tm := int64(1); tm <= 12; tm++ {
		if err := c.Send("A", tm, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint command: %v", err)
	}
	// The acknowledged write is durable: an independent Restore sees the
	// session's statement and watermark.
	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatalf("restoring the session checkpoint: %v", err)
	}
	if len(res.Handles) != 1 || res.Handles[0].ID() != "q0" {
		t.Fatalf("restored handles = %+v, want one q0", res.Handles)
	}
	res.Close()
	// The session continued past the checkpoint.
	if err := c.Send("A", 13, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, events, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if events != 13 || len(results) == 0 {
		t.Errorf("post-checkpoint session: events=%d results=%+v", events, results)
	}
}

// TestCheckpointDegrades covers the failure paths: a write failure and
// a server with no checkpoint configuration both surface as warn-backed
// errors, and in both cases the session keeps serving.
func TestCheckpointDegrades(t *testing.T) {
	// Shadow the checkpoint directory's parent with a regular file so
	// every write fails at MkdirAll.
	shadow := filepath.Join(t.TempDir(), "shadow")
	if err := os.WriteFile(shadow, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		RuntimeOptions: func() []greta.RuntimeOption {
			return []greta.RuntimeOption{greta.WithCheckpoint(filepath.Join(shadow, "ck"), 1<<40)}
		},
	}
	addr := startOptServer(t, srv, "RETURN COUNT(*) PATTERN A+")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("A", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err == nil {
		t.Fatal("failed checkpoint write must surface to the client")
	}
	if len(c.Warnings()) == 0 {
		t.Error("degraded checkpoint left no warn diagnostic")
	}
	if err := c.Send("A", 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, events, err := c.Flush()
	if err != nil || events != 2 || len(results) != 1 {
		t.Errorf("session after degraded checkpoint: results=%+v events=%d err=%v", results, events, err)
	}

	// No RuntimeOptions at all: checkpoint is unconfigured.
	addr2 := startRuntimeServer(t, "RETURN COUNT(*) PATTERN A+")
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Checkpoint(); err == nil {
		t.Error("checkpoint on an unconfigured server must report an error")
	}
	if err := c2.Send("A", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, events, err := c2.Flush(); err != nil || events != 1 {
		t.Errorf("session after unconfigured checkpoint: events=%d err=%v", events, err)
	}
}

// reserveAddr grabs an ephemeral address and frees it, so dials hit
// connection-refused until the test brings a server up on it.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startLateServer brings srv up on addr after the given delay.
func startLateServer(t *testing.T, srv *Server, addr string, delay time.Duration) {
	t.Helper()
	t.Cleanup(func() { srv.Close() })
	go func() {
		time.Sleep(delay)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		srv.Serve(ln) //nolint:errcheck
	}()
}

// TestDialContextBackoff checks DialContext retries connection-refused
// with backoff until the server appears, and gives up cleanly when the
// context expires first.
func TestDialContextBackoff(t *testing.T) {
	addr := reserveAddr(t)
	stmt, err := greta.Compile("RETURN COUNT(*) PATTERN A+")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Statements: []*greta.Statement{stmt}}
	startLateServer(t, srv, addr, 80*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatalf("DialContext did not retry to success: %v", err)
	}
	defer c.Close()
	if err := c.Send("A", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, events, err := c.Flush(); err != nil || events != 1 {
		t.Errorf("session over retried dial: events=%d err=%v", events, err)
	}

	// A dead address with a short deadline: the retry loop must stop
	// with the context error instead of spinning.
	dead := reserveAddr(t)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := DialContext(ctx2, dead); err == nil {
		t.Error("dial to a dead address must fail once the context expires")
	}
}

// TestLazyDialRetry checks a lazily-dialed client connects on first
// use, retrying under the operation's context.
func TestLazyDialRetry(t *testing.T) {
	addr := reserveAddr(t)
	srv := &Server{AllowRegister: true}
	startLateServer(t, srv, addr, 60*time.Millisecond)

	c := LazyDial(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	id, err := c.RegisterContext(ctx, "RETURN COUNT(*) PATTERN A+")
	if err != nil {
		t.Fatalf("RegisterContext over lazy dial: %v", err)
	}
	if id != "q0" {
		t.Errorf("registered id = %q, want q0", id)
	}
	if err := c.SendContext(ctx, "A", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, events, err := c.Flush()
	if err != nil || events != 1 || len(results) != 1 {
		t.Errorf("lazy session: results=%+v events=%d err=%v", results, events, err)
	}
}

// TestRegisterAfterDropNotMisattributed locks in the warn/error split:
// a register command issued right after an out-of-order drop must see
// its own acknowledgement, not the drop diagnostic.
func TestRegisterAfterDropNotMisattributed(t *testing.T) {
	addr := startRuntimeServer(t, "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("A", 10, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("A", 2, nil, nil); err != nil { // dropped, emits a warn line
		t.Fatal(err)
	}
	id, err := c.Register("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")
	if err != nil {
		t.Fatalf("register misattributed the drop diagnostic: %v", err)
	}
	if id != "q1" {
		t.Errorf("registered id = %q, want q1", id)
	}
	if err := c.Send("A", 15, nil, nil); err != nil {
		t.Fatal(err)
	}
	results, _, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	// Window 1 ([10,20)): q0 saw {a10, a15} → 3 trends; q1 registered
	// at watermark 10 saw only a15 → 1 trend.
	byStmt := map[string]float64{}
	for _, r := range results {
		if r.Wid == 1 {
			byStmt[r.Stmt] = r.Values[0]
		}
	}
	if byStmt["q0"] != 3 || byStmt["q1"] != 1 {
		t.Errorf("window-1 counts per statement = %v, want q0:3 q1:1 (all %+v)", byStmt, results)
	}
}
