// Netserver: stream events to a multi-query GRETA runtime over TCP
// and receive window aggregates, tagged per statement, as they close —
// the ingestion path a deployment would use, with bounded out-of-order
// tolerance and mid-stream statement registration.
//
// The server starts each session with Q1 (down-trend counting per
// sector); the in-process client streams a generated stock feed with
// artificial disorder (repaired by the server's reorder slack) and,
// halfway through, registers a second query — a per-sector volume
// monitor — which sees the stream from its registration watermark
// onward.
//
// The session is resumable: the client asks for a session id up front
// (EnableResume) and every event carries a sequence number. Three
// quarters in, the client stalls past the server's read timeout — the
// server parks the session in its linger window instead of tearing it
// down — and heals the break with Resume, which redials and replays
// the unacknowledged tail of the send buffer; the server dedups by
// seq, so every event still applies exactly once. The run ends with
// Server.Shutdown: stop accepting, drain and flush the remaining
// sessions, then close.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/netstream"
)

func main() {
	q1, err := greta.Compile(`
		RETURN sector, COUNT(*)
		PATTERN Stock S+
		WHERE [company, sector] AND S.price > NEXT(S).price
		GROUP-BY sector
		WITHIN 30 seconds SLIDE 10 seconds`)
	if err != nil {
		log.Fatal(err)
	}

	srv := &netstream.Server{
		Statements:    []*greta.Statement{q1}, // registered as "q0" per session
		AllowRegister: true,                   // clients may add statements mid-stream
		Slack:         5,                      // tolerate events up to 5 seconds late
		ReadTimeout:   300 * time.Millisecond, // a silent peer is parked, not served
		Linger:        30 * time.Second,       // parked sessions await a resume this long
		Heartbeat:     100 * time.Millisecond, // pings surface dead peers on the write path
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			// listener closed at shutdown
			_ = err
		}
	}()
	fmt.Printf("serving GRETA sessions on %s\n", ln.Addr())

	client, err := netstream.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	sid, err := client.EnableResume(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumable session %q\n", sid)

	// Stream a stock feed with bounded disorder (±3 seconds of jitter);
	// halfway through, attach the volume monitor mid-stream.
	rng := rand.New(rand.NewSource(7))
	events := greta.StockStream(greta.DefaultStock(20000))
	var volumeID string
	for i, ev := range events {
		if i == len(events)/2 {
			volumeID, err = client.Register(`
				RETURN sector, COUNT(S)
				PATTERN Stock S+
				WHERE [sector]
				GROUP-BY sector
				WITHIN 30 seconds SLIDE 10 seconds`)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("registered volume monitor mid-stream as %q\n", volumeID)
			// The stats frame is the session's live observability view:
			// resilience cursors (applied/dropped, last seq, resumes) and
			// the runtime's event-time frontier — no barrier, no flush.
			if st, err := client.Stats(); err == nil {
				fmt.Printf("mid-stream stats: processed=%d dropped=%d last_seq=%d statements=%d watermark=%d\n",
					st.Processed, st.Dropped, st.LastSeq, st.Statements, st.Watermark)
			}
		}
		if i == 3*len(events)/4 {
			// Stall past the server's read timeout: the server parks the
			// session in its linger window and closes the connection.
			// Resume redials, identifies the session, learns the last
			// sequence number the server applied, and replays the
			// unacknowledged tail — nothing is lost, nothing doubles.
			time.Sleep(srv.ReadTimeout + 200*time.Millisecond)
			if err := client.Resume(ctx); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("connection parked by read timeout; resumed session %q at event %d\n", sid, i)
		}
		t := ev.Time
		if jitter := rng.Intn(4); jitter > 0 && t >= int64(jitter) {
			t -= int64(jitter)
		}
		if err := client.Send(string(ev.Type), t, ev.Attrs, ev.Str); err != nil {
			// A break the stall did not surface: heal it and keep going.
			// Sends coalesce, so the failed write may have carried earlier
			// events too; every one of them is in the resend ring, so the
			// resume replay covers them.
			if rerr := client.Resume(ctx); rerr != nil {
				log.Fatal(rerr)
			}
			fmt.Printf("send failed (%v); resumed session %q at event %d\n", err, sid, i)
		}
	}

	results, processed, err := client.Flush()
	if err != nil {
		log.Fatal(err)
	}
	perStmt := map[string]int{}
	for _, r := range results {
		perStmt[r.Stmt]++
	}
	fmt.Printf("server processed %d events; window results per statement: %v\n", processed, perStmt)
	for i, r := range results {
		fmt.Printf("  [%s] window %3d [%3d,%3d) sector=%-6s value=%g\n",
			r.Stmt, r.Wid, r.Start, r.End, r.Group, r.Values[0])
		if i >= 9 {
			fmt.Printf("  ... (%d more)\n", len(results)-10)
			break
		}
	}

	// Graceful drain: stop accepting, flush and close any remaining
	// sessions (this one already flushed), then release the listener.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and shut down")
}
