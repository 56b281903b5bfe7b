package netstream

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/faultnet"
)

// testEvt is one deterministic generated stream event.
type testEvt struct {
	typ   string
	tm    int64
	price float64
	co    string
}

// genStream produces a deterministic stock stream with bounded
// disorder: times mostly advance, jitter pulls events back by up to
// slack+2 (occasionally past the slack, forcing deterministic drops).
func genStream(n int, slack int64, seed uint64) []testEvt {
	rnd := seed
	next := func(mod uint64) uint64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return (rnd >> 33) % mod
	}
	evs := make([]testEvt, 0, n)
	base := int64(0)
	for i := 0; i < n; i++ {
		base += int64(next(3))
		jit := int64(next(uint64(slack) + 3))
		tm := base - jit
		if tm < 0 {
			tm = 0
		}
		typ := "Stock"
		switch next(10) {
		case 0:
			typ = "Halt"
		case 1:
			typ = "News"
		}
		evs = append(evs, testEvt{
			typ: typ, tm: tm,
			price: float64(5 + next(20)),
			co:    fmt.Sprintf("co%d", next(3)),
		})
	}
	return evs
}

func startResumeServer(t *testing.T, srv *Server, queries ...string) string {
	t.Helper()
	for _, q := range queries {
		stmt, err := greta.Compile(q)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
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

// runResumable drives one resumable session over a fault-injected
// connection: events are sent in order, the connection is severed at
// event boundary killAt (or mid-line once writeBudget bytes have gone
// out), Resume heals it, and the session is flushed. killAt < 0 and
// writeBudget <= 0 run uninterrupted. Sends coalesce, so a torn write
// surfaces at whichever call performs it — a later Send, or the Flush
// that writes the pending events ahead of its command — and either is
// healed the same way: Resume, then carry on.
func runResumable(t *testing.T, addr string, evs []testEvt, killAt int, writeBudget int64) ([]WireResult, *WireDone) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := faultnet.New()
	c := NewClient(f.Conn(raw))
	c.addr = addr
	defer c.Close()
	if _, err := c.EnableResume(ctx); err != nil {
		t.Fatalf("EnableResume: %v", err)
	}
	if writeBudget > 0 {
		f.CutAfterWrites(writeBudget)
	}
	for i, e := range evs {
		if i == killAt {
			f.Cut()
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume at boundary %d: %v", i, err)
			}
		}
		if err := c.Send(e.typ, e.tm, map[string]float64{"price": e.price}, map[string]string{"company": e.co}); err != nil {
			// The torn write revealed the cut; the event is already in the
			// resend ring, so healing the session replays it.
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume after torn send %d: %v", i, err)
			}
		}
	}
	if killAt == len(evs) {
		f.Cut()
		if err := c.Resume(ctx); err != nil {
			t.Fatalf("Resume at final boundary: %v", err)
		}
	}
	results, _, err := c.Flush()
	if err != nil {
		// The torn write carried the flush command (and the events still
		// pending); the ring replays the events, and the flush goes again.
		if err := c.Resume(ctx); err != nil {
			t.Fatalf("Resume after torn flush: %v", err)
		}
		more, _, err := c.Flush()
		if err != nil {
			t.Fatalf("Flush after resume: %v", err)
		}
		results = append(results, more...)
	}
	return results, c.Summary()
}

// flushTearBudget is a write budget that tears the flush command of a
// session sending evs: every event line lands, then half the command.
func flushTearBudget(t *testing.T, evs []testEvt) int64 {
	var enc eventEncoder
	n := int64(len(`{"cmd":"flush"}`) / 2)
	for i, e := range evs {
		line, err := enc.appendLine(nil, uint64(i+1), e.typ, e.tm, map[string]float64{"price": e.price}, map[string]string{"company": e.co})
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(line))
	}
	return n
}

// sortResults orders results by identity: flush-time emission order
// is not deterministic across runs (partition/window close order), so
// the differential compares the sets.
func sortResults(rs []WireResult) []WireResult {
	out := append([]WireResult(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Stmt != b.Stmt {
			return a.Stmt < b.Stmt
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Wid != b.Wid {
			return a.Wid < b.Wid
		}
		return a.Start < b.Start
	})
	return out
}

func sameResults(t *testing.T, label string, got, want []WireResult) {
	t.Helper()
	got, want = sortResults(got), sortResults(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		same := g.Stmt == w.Stmt && g.Group == w.Group && g.Wid == w.Wid &&
			g.Start == w.Start && g.End == w.End && len(g.Values) == len(w.Values)
		if same {
			for j := range w.Values {
				if math.Float64bits(g.Values[j]) != math.Float64bits(w.Values[j]) {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, g, w)
		}
	}
}

func sameSummary(t *testing.T, label string, got, want *WireDone) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing summary (got %v, want %v)", label, got, want)
	}
	if got.Events != want.Events || got.Dropped != want.Dropped ||
		got.SharedStmts != want.SharedStmts || got.SharedGraphs != want.SharedGraphs {
		t.Fatalf("%s: summary = %+v, want %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: stats diverged\n got: %+v\nwant: %+v", label, got.Stats, want.Stats)
	}
}

// TestSessionResumeDifferential is the resilience differential: for
// each shape, a reference session runs uninterrupted, then the
// connection is killed at every event boundary (and torn mid-line at
// several byte offsets) and resumed — results, per-statement Stats,
// and drop counts must match the reference bit for bit.
func TestSessionResumeDifferential(t *testing.T) {
	shapes := []struct {
		name    string
		queries []string
		slack   int64
		n       int
		seed    uint64
	}{
		{"kleene-sum", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"}, 4, 30, 1},
		{"unwindowed", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price >= NEXT(S).price"}, 3, 24, 2},
		{"multi-agg", []string{"RETURN COUNT(*), MIN(S.price), MAX(S.price), AVG(S.price) PATTERN Stock S+ WITHIN 16 SLIDE 4"}, 5, 30, 3},
		{"seq-halt", []string{"RETURN COUNT(*) PATTERN SEQ(Halt H, Stock S+) WHERE [company] AND S.price < NEXT(S).price WITHIN 24 SLIDE 8"}, 4, 30, 4},
		{"skip-till-next", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price SEMANTICS skip-till-next-match WITHIN 20 SLIDE 5"}, 4, 24, 5},
		{"contiguous", []string{"RETURN COUNT(*) PATTERN Stock S+ WHERE S.price > NEXT(S).price SEMANTICS contiguous WITHIN 20 SLIDE 5"}, 3, 24, 6},
		{"negation", []string{"RETURN COUNT(*), SUM(S.price) PATTERN SEQ(Stock S+, NOT Halt H) WHERE [company] AND S.price > NEXT(S).price WITHIN 30 SLIDE 10"}, 5, 30, 7},
		{"disjunction", []string{"RETURN COUNT(*) PATTERN Stock S+ OR Halt H+ WITHIN 20 SLIDE 5"}, 4, 24, 8},
		{"shared-pair", []string{
			"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
			"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5",
		}, 4, 30, 9},
		{"zero-slack", []string{"RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] WITHIN 16 SLIDE 4"}, 0, 24, 10},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			srv := &Server{Slack: greta.Time(sh.slack), Linger: time.Minute}
			addr := startResumeServer(t, srv, sh.queries...)
			evs := genStream(sh.n, maxI64(sh.slack, 1), sh.seed)
			wantRes, wantSum := runResumable(t, addr, evs, -1, 0)
			for killAt := 0; killAt <= len(evs); killAt++ {
				label := fmt.Sprintf("kill@%d", killAt)
				gotRes, gotSum := runResumable(t, addr, evs, killAt, 0)
				sameResults(t, label, gotRes, wantRes)
				sameSummary(t, label, gotSum, wantSum)
			}
			// Torn mid-line kills: sever after a byte budget that lands
			// inside a JSON event line, well before the flush command — and
			// one inside the flush command, the tail of the last coalesced
			// write.
			for _, budget := range []int64{60, 500, 1100, flushTearBudget(t, evs)} {
				label := fmt.Sprintf("torn@%d", budget)
				gotRes, gotSum := runResumable(t, addr, evs, -1, budget)
				sameResults(t, label, gotRes, wantRes)
				sameSummary(t, label, gotSum, wantSum)
			}
		})
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestSessionRestartFromCheckpoint kills the whole server (not just
// the connection) after a checkpoint taken mid-disorder, restores the
// parked session from the checkpoint directory on a fresh server, and
// resumes the same client against it: results, Stats, and drop counts
// must match an uninterrupted run bit for bit, and the reorder
// buffer's in-flight events must survive the restart (no silent
// flush).
func TestSessionRestartFromCheckpoint(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	const slack = 5
	evs := genStream(40, slack, 42)
	ckAt, crashAt := 20, 28 // checkpoint mid-stream, crash a few events later

	mkServer := func(dir string) *Server {
		return &Server{
			Slack:  slack,
			Linger: time.Minute,
			RuntimeOptions: func() []greta.RuntimeOption {
				return []greta.RuntimeOption{greta.WithCheckpoint(dir, 10)}
			},
		}
	}

	// Reference: identical configuration (checkpointing armed at the
	// same cadence), uninterrupted.
	refAddr := startResumeServer(t, mkServer(t.TempDir()), q)
	wantRes, wantSum := runResumable(t, refAddr, evs, -1, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dir := t.TempDir()
	addr1 := startResumeServer(t, mkServer(dir), q)
	raw, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	f := faultnet.New()
	c := NewClient(f.Conn(raw))
	c.addr = addr1
	defer c.Close()
	sid, err := c.EnableResume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	send := func(e testEvt) error {
		return c.Send(e.typ, e.tm, map[string]float64{"price": e.price}, map[string]string{"company": e.co})
	}
	for _, e := range evs[:ckAt] {
		if err := send(e); err != nil {
			t.Fatal(err)
		}
	}
	// Manual checkpoint with disorder in flight: the snapshot must
	// carry the pending events of the reorder window.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, e := range evs[ckAt:crashAt] {
		if err := send(e); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: sever the connection and abandon the first server
	// entirely — its in-memory session is gone.
	f.Cut()

	// The snapshot really holds the disorder window. Probe a copy of
	// the directory: closing the probe runtime barriers it, which can
	// write a fresh (advanced) generation and poison the restart below.
	probeDir := copyDir(t, dir)
	probe, err := greta.Restore(probeDir)
	if err != nil {
		t.Fatalf("probe restore: %v", err)
	}
	if probe.ReorderPending == 0 {
		t.Fatalf("checkpoint carries no pending reorder events; pick a checkpoint spot mid-disorder")
	}
	if probe.Meta == nil {
		t.Fatalf("checkpoint carries no session meta")
	}
	probe.Close()

	srv2 := mkServer(dir)
	addr2 := startResumeServer(t, srv2)
	restored, err := srv2.RestoreSession(dir)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	if restored != sid {
		t.Fatalf("restored session id %q, want %q", restored, sid)
	}
	c.addr = addr2
	if err := c.Resume(ctx); err != nil {
		t.Fatalf("Resume onto restored server: %v", err)
	}
	for _, e := range evs[crashAt:] {
		if err := send(e); err != nil {
			t.Fatal(err)
		}
	}
	gotRes, _, err := c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sameResults(t, "restart", gotRes, wantRes)
	sameSummary(t, "restart", c.Summary(), wantSum)
}

// copyDir copies a flat checkpoint directory into a fresh temp dir.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// waitNoLeaks is the goroutine-leak guard: the count must return to
// the baseline once servers shut down.
func waitNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<17)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: %d, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestShutdownDrains exercises the graceful drain: live sessions get a
// barrier, a checkpoint attempt, and the terminal done summary; parked
// sessions are drained too; and every server goroutine (readers,
// heartbeats) exits.
func TestShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := &Server{Slack: 3, Linger: time.Minute, Heartbeat: 5 * time.Millisecond}
	addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 SLIDE 5")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Session 1: live connection, mid-stream when the drain hits.
	c1, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.EnableResume(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c1.Send("Stock", int64(i*2), map[string]float64{"price": 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Round-trip a command so the server has consumed every event
	// before the drain (checkpointing is unarmed; the error is the ack).
	if err := c1.Checkpoint(); err == nil {
		t.Fatal("checkpoint unexpectedly configured")
	}

	// Session 2: parked (connection cut, lingering).
	c2, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.EnableResume(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send("Stock", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Checkpoint(); err == nil {
		t.Fatal("checkpoint unexpectedly configured")
	}
	c2.Close()
	time.Sleep(20 * time.Millisecond) // let the server park session 2

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Session 1's client receives the terminal summary.
	var done *WireLine
	for done == nil {
		o, err := c1.ReadLine()
		if err != nil {
			t.Fatalf("reading drain output: %v", err)
		}
		if o.Done {
			done = o
		}
	}
	if done.Events != 3 {
		t.Errorf("drained summary events = %d, want 3", done.Events)
	}
	if len(done.Stats) != 1 {
		t.Errorf("drained summary stats = %+v, want one statement", done.Stats)
	}
	waitNoLeaks(t, base)
}

// TestSessionProtocolErrors pins the protocol's failure modes.
func TestSessionProtocolErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	t.Run("resume-disabled", func(t *testing.T) {
		srv := &Server{}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err == nil {
			t.Fatal("EnableResume succeeded on a server without Linger")
		}
	})

	t.Run("session-after-events", func(t *testing.T) {
		srv := &Server{Linger: time.Minute}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send("Stock", 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EnableResume(ctx); err == nil {
			t.Fatal("EnableResume succeeded after events")
		}
	})

	t.Run("resume-unknown-session", func(t *testing.T) {
		srv := &Server{Linger: time.Minute}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.session = "s999" // forged
		if err := c.Resume(ctx); err == nil {
			t.Fatal("Resume of unknown session succeeded")
		}
	})

	t.Run("linger-expiry", func(t *testing.T) {
		srv := &Server{Linger: 30 * time.Millisecond}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		if err := c.Send("Stock", 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		c.conn.Close()
		time.Sleep(150 * time.Millisecond) // park + expire
		if err := c.Resume(ctx); err == nil {
			t.Fatal("Resume succeeded after the linger window expired")
		}
	})

	t.Run("missing-seq", func(t *testing.T) {
		srv := &Server{Linger: time.Minute}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		// Bypass Send's stamping: a session event without a seq is a
		// protocol error the server must report.
		if err := c.writeFrame(ctx, &WireEvent{Type: "Stock", Time: 1}, false); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(); err == nil {
			t.Fatal("expected the missing-seq error to surface")
		} else if want := "missing seq"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error = %v, want %q", err, want)
		}
	})

	t.Run("shard-index-out-of-range", func(t *testing.T) {
		srv := &Server{Linger: time.Minute, AllowShard: true}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		// The unit and route-group indices of shard frames size the
		// slot's tables, so wire-supplied ones are bounded: a batch row
		// routed to a group the slot never registered is skipped, and a
		// registration under an out-of-range index is refused.
		const q = "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5"
		for i, we := range []WireEvent{
			{Cmd: "shard", Count: 1, Workers: []int{0}},
			{Cmd: "sreg", SI: 0, GI: 0, Query: q, ID: "u0"},
			{Cmd: "batch", Type: "Stock", Times: []int64{1}, RGs: [][]int{{99, -1}}, RHs: [][]string{{"0", "0"}}},
			{Cmd: "sreg", SI: 1, GI: 1 << 40, Query: q, ID: "u1"},
			{Cmd: "sreg", SI: -1, GI: 0, Query: q, ID: "u2"},
		} {
			we.Seq = uint64(i + 1)
			if err := c.writeFrame(ctx, &we, false); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"u1", "u2"} {
			if err := c.Checkpoint(); err == nil {
				t.Fatalf("sreg %s: expected the out-of-range error to surface", id)
			} else if want := "sreg " + id; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("error = %v, want %q ... out of range", err, want)
			}
		}
	})

	t.Run("shard-event-line-refused", func(t *testing.T) {
		srv := &Server{Linger: time.Minute, AllowShard: true}
		addr := startResumeServer(t, srv)
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		send := func(we WireEvent) {
			t.Helper()
			if err := c.writeFrame(ctx, &we, false); err != nil {
				t.Fatal(err)
			}
		}
		// Coordinators ship batch frames only: an event line on a shard
		// session is refused with an error line and consumes no seq — the
		// next frame is still seq 2 (were it a gap or a duplicate, a
		// second error would follow or the cursor would stay at 1).
		send(WireEvent{Cmd: "shard", Count: 1, Workers: []int{0}, Seq: 1})
		send(WireEvent{Type: "Stock", Time: 1, Seq: 2})
		send(WireEvent{Cmd: "sreg", Query: "RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 10 SLIDE 5", ID: "u0", Seq: 2})
		if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "batch frames only") {
			t.Fatalf("event line on a shard session: error = %v, want a refusal", err)
		}
		st, err := c.Stats() // the reply the refusal cut short, taken after the sreg
		if err != nil {
			t.Fatal(err)
		}
		if st.LastSeq != 2 || st.Processed != 0 {
			t.Fatalf("after the refused event line: last_seq=%d processed=%d, want 2 and 0", st.LastSeq, st.Processed)
		}
	})

	t.Run("heartbeat-interleave", func(t *testing.T) {
		srv := &Server{Linger: time.Minute, Heartbeat: 5 * time.Millisecond}
		addr := startResumeServer(t, srv, "RETURN COUNT(*) PATTERN Stock S+ WITHIN 10 SLIDE 5")
		c, err := DialContext(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.EnableResume(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(40 * time.Millisecond) // let pings accumulate
		for i := 0; i < 4; i++ {
			if err := c.Send("Stock", int64(i*3), nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		results, events, err := c.Flush()
		if err != nil {
			t.Fatalf("Flush with heartbeats interleaved: %v", err)
		}
		if events != 4 {
			t.Errorf("events = %d, want 4", events)
		}
		if len(results) == 0 {
			t.Error("no results through heartbeat-interleaved session")
		}
	})
}

// TestSessionRebaseRedelivers resumes a session with a cursor the replay
// window no longer covers: the server acknowledges with "rebase":true and
// re-delivers every result its statements retain — the first statement's
// in the order they were emitted, then the second's — once each, under
// fresh contiguous seqs.
func TestSessionRebaseRedelivers(t *testing.T) {
	srv := &Server{ResumeWindow: 2, Linger: time.Minute}
	addr := startResumeServer(t, srv,
		"RETURN COUNT(*) PATTERN Stock S+ WHERE [company] GROUP-BY company WITHIN 10 SLIDE 5",
		"RETURN SUM(S.price) PATTERN Stock S+ WITHIN 8 SLIDE 4")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sid, err := c.EnableResume(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		err := c.Send("Stock", int64(i), map[string]float64{"price": float64(5 + i%7)}, map[string]string{"company": fmt.Sprintf("co%d", i%2)})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats() // every event is applied and every result so far read
	if err != nil {
		t.Fatal(err)
	}
	var want []WireResult // registration, then emission order
	for _, id := range []string{"q0", "q1"} {
		n := len(want)
		for _, r := range c.pending {
			if r.Stmt == id {
				want = append(want, r)
			}
		}
		if len(want)-n < 5 {
			t.Fatalf("statement %s delivered %d results before the cut, want at least 5", id, len(want)-n)
		}
	}
	if len(want) != len(c.pending) || st.OutSeq != uint64(len(want)) {
		t.Fatalf("%d results read, %d of them tagged q0 or q1, the server's output cursor at %d", len(c.pending), len(want), st.OutSeq)
	}
	c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(&WireEvent{Cmd: "resume", Session: sid, Recv: 1}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(conn)
	next := func() WireLine {
		for {
			var o WireLine
			if err := dec.Decode(&o); err != nil {
				t.Fatalf("reading the resumed session: %v", err)
			}
			if o.Ping == 0 {
				return o
			}
		}
	}
	if o := next(); o.Resumed == nil || !o.Resumed.Rebase || o.Resumed.ID != sid {
		t.Fatalf("first line after a resume behind the window = %+v, want a rebase of %s", o, sid)
	}
	for i, w := range want {
		o := next()
		if o.Result == nil || !reflect.DeepEqual(*o.Result, w) {
			t.Fatalf("re-delivered line %d = %+v, want result %+v", i, o, w)
		}
		if o.Seq != st.OutSeq+1+uint64(i) {
			t.Fatalf("re-delivered line %d has seq %d, want %d", i, o.Seq, st.OutSeq+1+uint64(i))
		}
	}
	// Nothing follows the re-delivery: the next line answers the next command.
	if err := json.NewEncoder(conn).Encode(&WireEvent{Cmd: "stats"}); err != nil {
		t.Fatal(err)
	}
	if o := next(); o.SessStats == nil || o.SessStats.OutSeq != st.OutSeq+uint64(len(want)) {
		t.Fatalf("line after the re-delivery = %+v, want the stats reply with the output cursor at %d", o, st.OutSeq+uint64(len(want)))
	}
}

// TestRestoreSessionErrors pins what RestoreSession refuses: a server
// that cannot park the session, and a checkpoint whose session meta is
// missing, unreadable, anonymous or of a version this server does not
// write.
func TestRestoreSessionErrors(t *testing.T) {
	ckptWith := func(t *testing.T, meta []byte) string {
		dir := t.TempDir()
		rt := greta.NewRuntime(greta.WithCheckpoint(dir, 1<<40))
		if _, err := rt.Register(greta.MustCompile("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10")); err != nil {
			t.Fatal(err)
		}
		if meta != nil {
			rt.SetCheckpointMeta(func() []byte { return meta })
		}
		if err := rt.Process(&greta.Event{ID: 1, Type: "A", Time: 1}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_ = rt.Close()
		return dir
	}
	for _, tc := range []struct {
		name   string
		linger time.Duration
		meta   string // "" writes none
		want   string
	}{
		{"no-linger", 0, `{"id":"s","v":2}`, "requires Server.Linger > 0"},
		{"no-meta", time.Second, "", "carries no session meta"},
		{"bad-meta", time.Second, `{"id":`, "bad session meta"},
		{"no-id", time.Second, `{"v":2}`, "session meta has no id"},
		{"meta-v1", time.Second, `{"id":"s","last_seq":3}`, errMetaVersion.Error()},
		{"meta-v3", time.Second, `{"id":"s","v":3}`, errMetaVersion.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var meta []byte
			if tc.meta != "" {
				meta = []byte(tc.meta)
			}
			srv := &Server{Linger: tc.linger}
			defer srv.Close()
			id, err := srv.RestoreSession(ckptWith(t, meta))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreSession = %q, %v; want an error containing %q", id, err, tc.want)
			}
		})
	}
}
