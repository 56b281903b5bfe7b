package netstream

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"slices"
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

// latestMeta waits for the server writing dir to quiesce — the newest
// snapshot's event cursor stops moving — and returns that snapshot's
// session meta. Each probe restores a fresh copy of the directory:
// closing the probe runtime barriers it, which would otherwise write an
// advanced generation and poison a restart from dir.
func latestMeta(t *testing.T, dir string) sessionMeta {
	t.Helper()
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
	return m
}

// TestBatchCheckpointMidFrameRestore crashes the server while its
// latest scheduled snapshot landed mid-frame: the snapshot's meta
// records the frame's row prefix (FrameRows), the restored session
// skips exactly that prefix when the client's resume replays the
// frame, and the run must match an uninterrupted reference bit for
// bit — row-exact exactly-once across a process restart. Rows:
//   - slack: reorder slack armed, so ProcessBatch offers the frame's
//     rows to the reorder buffer one at a time;
//   - slack-0: a sorted stream without slack, so the columnar path
//     splits the frame at each boundary;
//   - late: the disordered stream without slack, so frames with an
//     inversion fall back to one row at a time and drop late rows, some
//     before the snapshot's trigger (the meta counts them dropped);
//   - double-restart: a boundary at every distinct time; the first
//     crash keeps the snapshot of the first boundary past a frame's
//     first row, the restored server applies the frame's tail across
//     later boundaries, and a second crash restores from the newest of
//     those — whose prefix must count the rows the first restore
//     skipped too.
func TestBatchCheckpointMidFrameRestore(t *testing.T) {
	const q = "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price WITHIN 20 SLIDE 5"
	cases := []struct {
		name   string
		slack  int64
		sorted bool
		every  greta.Time
		double bool
	}{
		{"slack", 4, false, 10, false},
		{"slack-0", 0, true, 8, false},
		{"late", 0, false, 9, false},
		{"double-restart", 0, true, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evs := genStream(48, tc.slack, 22)
			if tc.sorted {
				slices.SortStableFunc(evs, func(a, b testEvt) int { return cmp.Compare(a.tm, b.tm) })
			}
			frames := frameStream(evs, 7)
			crashAt := len(frames) * 3 / 4
			b1 := greta.Time(-1)
			if tc.double {
				// Crash after the first frame of the second half with three
				// distinct times; b1 is its second one, the first boundary
				// past its first row.
				for f := len(frames) / 2; f < len(frames) && b1 < 0; f++ {
					if ts := slices.Compact(slices.Clone(frames[f].times)); len(ts) >= 3 {
						crashAt, b1 = f+1, greta.Time(ts[1])
					}
				}
				if b1 < 0 {
					t.Fatal("no frame holds three distinct times; pick another stream")
				}
			}

			mkServer := func(dir string, hook func(greta.TraceEvent)) *Server {
				return &Server{
					Slack:     tc.slack,
					Linger:    time.Minute,
					TraceHook: hook,
					RuntimeOptions: func() []greta.RuntimeOption {
						// A snapshot fires inside a frame's ProcessBatch call at
						// each boundary the frame crosses.
						return []greta.RuntimeOption{greta.WithCheckpoint(dir, tc.every)}
					},
				}
			}

			// Reference: identical configuration (checkpointing armed, so the
			// same ingest path), uninterrupted.
			refAddr := startResumeServer(t, mkServer(t.TempDir(), nil), q)
			wantRes, wantSum := runBatchResumable(t, refAddr, frames, -1, 0)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			dir := t.TempDir()
			// The first crash of a double restart keeps the directory as it
			// stood when boundary b1's snapshot committed: the hook holds the
			// session there — the next boundary, inside the same frame, has
			// not written yet — until the test has copied it.
			held := make(chan chan struct{}, 1)
			var hook func(greta.TraceEvent)
			if tc.double {
				hook = func(ev greta.TraceEvent) {
					if ev.Kind == greta.TraceCheckpointCommit && ev.Boundary == b1 {
						done := make(chan struct{})
						held <- done
						select {
						case <-done:
						case <-time.After(5 * time.Second):
						}
					}
				}
			}
			addr1 := startResumeServer(t, mkServer(dir, hook), q)
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

			// restart brings up a server restored from dir and resumes the
			// client onto it, which replays the frames the snapshot lacks.
			restart := func(dir string) {
				srv := mkServer(dir, nil)
				addr := startResumeServer(t, srv)
				restored, err := srv.RestoreSession(dir)
				if err != nil {
					t.Fatalf("RestoreSession: %v", err)
				}
				if restored != sid {
					t.Fatalf("restored session id %q, want %q", restored, sid)
				}
				c.addr = addr
				if err := c.Resume(ctx); err != nil {
					t.Fatalf("Resume onto restored server: %v", err)
				}
			}

			from := dir
			if tc.double {
				select {
				case done := <-held:
					func() {
						defer close(done)
						from = copyDir(t, dir)
					}()
				case <-time.After(5 * time.Second):
					t.Fatalf("boundary %d never committed", b1)
				}
			}
			// Wait for the server to drain its read buffer (the cut is client
			// side), then assert the surviving snapshot genuinely fell inside a
			// frame.
			m := latestMeta(t, from)
			if m.FrameRows == 0 {
				t.Fatalf("latest snapshot is frame-aligned (evID %d); pick parameters so one fires mid-frame", m.EvID)
			}
			restart(from)
			if tc.double {
				// The stats round trip returns once the replayed frame is
				// applied; the newest snapshot must hold more of the same frame.
				if _, err := c.Stats(); err != nil {
					t.Fatal(err)
				}
				m2 := latestMeta(t, from)
				if m2.LastSeq != m.LastSeq || m2.EvID <= m.EvID {
					t.Fatalf("second snapshot (seq %d, evID %d) is not further inside the first's frame (seq %d, evID %d)",
						m2.LastSeq, m2.EvID, m.LastSeq, m.EvID)
				}
				restart(copyDir(t, from))
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
			gotSum := c.Summary()
			if tc.slack == 0 {
				// Without slack a sorted frame takes the columnar path, whose
				// pre-filter skips are not in the snapshot (see
				// Stats.PrefilterSkips): a restored run counts only its own.
				for _, d := range []*WireDone{gotSum, wantSum} {
					for id, st := range d.Stats {
						st.PrefilterSkips = 0
						d.Stats[id] = st
					}
				}
			}
			sameResults(t, "mid-frame restart", gotRes, wantRes)
			sameSummary(t, "mid-frame restart", gotSum, wantSum)
		})
	}
}
