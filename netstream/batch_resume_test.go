package netstream

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/faultnet"
)

// batchFrame is one columnar frame: a contiguous run of same-type rows.
type batchFrame struct {
	typ   string
	times []int64
	price []float64
	co    []string
}

// frameStream slices a generated stream into columnar frames, breaking
// on type changes and at rowCap rows.
func frameStream(evs []testEvt, rowCap int) []batchFrame {
	var frames []batchFrame
	for _, e := range evs {
		if n := len(frames); n == 0 || frames[n-1].typ != e.typ || len(frames[n-1].times) >= rowCap {
			frames = append(frames, batchFrame{typ: e.typ})
		}
		cur := &frames[len(frames)-1]
		cur.times = append(cur.times, e.tm)
		cur.price = append(cur.price, e.price)
		cur.co = append(cur.co, e.co)
	}
	return frames
}

func sendFrame(c *Client, fr batchFrame) error {
	return c.SendBatch(fr.typ, fr.times,
		map[string][]float64{"price": fr.price},
		map[string][]string{"company": fr.co})
}

// runBatchResumable drives one resumable session over columnar batch
// frames on a fault-injected connection: the link is severed at frame
// boundary killAt (or mid-line once writeBudget bytes have gone out),
// Resume heals it, and the session is flushed. killAt < 0 and
// writeBudget <= 0 run uninterrupted. Frames queue like event lines, so
// a torn write surfaces at whichever call performs it — a later
// SendBatch, or the Flush that writes the pending frames ahead of its
// command — and either is healed the same way: Resume, then carry on.
func runBatchResumable(t *testing.T, addr string, frames []batchFrame, killAt int, writeBudget int64) ([]WireResult, *WireDone) {
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
	for i, fr := range frames {
		if i == killAt {
			f.Cut()
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume at frame %d: %v", i, err)
			}
		}
		if err := sendFrame(c, fr); err != nil {
			// The torn write revealed the cut; the whole frame is already
			// in the resend ring under one seq, so healing replays it.
			if err := c.Resume(ctx); err != nil {
				t.Fatalf("Resume after torn frame %d: %v", i, err)
			}
		}
	}
	if killAt == len(frames) {
		f.Cut()
		if err := c.Resume(ctx); err != nil {
			t.Fatalf("Resume at final boundary: %v", err)
		}
	}
	results, _, err := c.Flush()
	if err != nil {
		// The torn write carried the flush command (and the frames still
		// pending); the ring replays the frames, and the flush goes again.
		if err := c.Resume(ctx); err != nil {
			t.Fatalf("Resume after torn flush: %v", err)
		}
		if results, _, err = c.Flush(); err != nil {
			t.Fatalf("Flush after resume: %v", err)
		}
	}
	return results, c.Summary()
}

// TestBatchResumeDifferential pins frame-level exactly-once: a batch
// session is killed at every frame boundary (and torn mid-frame at
// several byte offsets), resumed, and must match an uninterrupted
// batch run bit for bit — a duplicated or dropped frame would shift
// every aggregate. The uninterrupted batch run itself must match the
// per-event path's results (same stream, event by event).
func TestBatchResumeDifferential(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	const slack = 4
	srv := &Server{Slack: slack, Linger: time.Minute}
	addr := startResumeServer(t, srv, q)
	evs := genStream(40, slack, 11)
	frames := frameStream(evs, 7)

	wantRes, wantSum := runBatchResumable(t, addr, frames, -1, 0)

	// Cross-path check: frames decode to the same events the per-event
	// path would send. (Results only — the columnar ingest path counts
	// prefilter work differently, so engine stats are not comparable.)
	evRes, _ := runResumable(t, addr, evs, -1, 0)
	sameResults(t, "batch-vs-events", wantRes, evRes)

	for killAt := 0; killAt <= len(frames); killAt++ {
		label := fmt.Sprintf("kill@frame%d", killAt)
		gotRes, gotSum := runBatchResumable(t, addr, frames, killAt, 0)
		sameResults(t, label, gotRes, wantRes)
		sameSummary(t, label, gotSum, wantSum)
	}
	for _, budget := range []int64{80, 400, 900} {
		label := fmt.Sprintf("torn@%d", budget)
		gotRes, gotSum := runBatchResumable(t, addr, frames, -1, budget)
		sameResults(t, label, gotRes, wantRes)
		sameSummary(t, label, gotSum, wantSum)
	}
}

// TestBatchCheckpointMidFrameRestore crashes the server while its
// latest scheduled snapshot landed mid-frame: the snapshot's meta
// records the frame's row prefix (FrameRows), the restored session
// skips exactly that prefix when the client's resume replays the
// frame, and the run must match an uninterrupted reference bit for
// bit — row-exact exactly-once across a process restart.
func TestBatchCheckpointMidFrameRestore(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	const slack = 4
	evs := genStream(48, slack, 22)
	frames := frameStream(evs, 7)
	crashAt := len(frames) * 3 / 4

	mkServer := func(dir string) *Server {
		return &Server{
			Slack:  slack,
			Linger: time.Minute,
			RuntimeOptions: func() []greta.RuntimeOption {
				// Armed checkpointing puts batch frames on the row-at-a-time
				// path so a snapshot can fire inside a frame.
				return []greta.RuntimeOption{greta.WithCheckpoint(dir, 10)}
			},
		}
	}

	// Reference: identical configuration (checkpointing armed, so the
	// same ingest path), uninterrupted.
	refAddr := startResumeServer(t, mkServer(t.TempDir()), q)
	wantRes, wantSum := runBatchResumable(t, refAddr, frames, -1, 0)

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
	for i, fr := range frames[:crashAt] {
		if err := sendFrame(c, fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// The frames wait in the pending buffer until the linger writes them;
	// the snapshot below must have seen them before the crash.
	awaitWritten(t, c)
	// Crash: sever the connection and abandon the first server entirely.
	f.Cut()

	// Wait for the server to drain its read buffer (the cut is client
	// side), then assert the surviving snapshot genuinely fell inside a
	// frame. Each probe restores a fresh copy of the directory: closing
	// the probe runtime barriers it, which would otherwise write an
	// advanced generation and poison the restart below.
	var m sessionMeta
	stable := 0
	var lastEv uint64
	for deadline := time.Now().Add(5 * time.Second); stable < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("server never quiesced (last snapshot evID %d)", lastEv)
		}
		probe, err := greta.Restore(copyDir(t, dir))
		if err == nil && probe.Meta != nil {
			m = sessionMeta{}
			if err := json.Unmarshal(probe.Meta, &m); err != nil {
				t.Fatalf("bad session meta: %v", err)
			}
			probe.Close()
			if m.EvID == lastEv {
				stable++
			} else {
				lastEv, stable = m.EvID, 0
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m.FrameRows == 0 {
		t.Fatalf("latest snapshot is frame-aligned (evID %d); pick parameters so one fires mid-frame", m.EvID)
	}

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
	for i, fr := range frames[crashAt:] {
		if err := sendFrame(c, fr); err != nil {
			t.Fatalf("frame %d after restore: %v", crashAt+i, err)
		}
	}
	gotRes, _, err := c.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sameResults(t, "mid-frame restart", gotRes, wantRes)
	sameSummary(t, "mid-frame restart", c.Summary(), wantSum)
}
