package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
	"github.com/greta-cep/greta/netstream"
)

// startStubShard serves one shard link with the acknowledgements a
// coordinator waits for — session, shard handshake, registrations — and
// reads everything else without looking at it. testing.AllocsPerRun
// counts the whole process, so a guard on the coordinator cannot share
// it with real shard servers; the stub allocates nothing per frame.
func startStubShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReaderSize(conn, 1<<20)
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if bytes.HasPrefix(line, []byte(`{"cmd":"batch"`)) {
				continue
			}
			var we netstream.WireEvent
			if json.Unmarshal(line, &we) != nil {
				return
			}
			switch we.Cmd {
			case "session":
				fmt.Fprintln(conn, `{"session":{"id":"s0","linger_ms":60000}}`)
			case "shard":
				_ = json.NewEncoder(conn).Encode(netstream.WireLine{Shard: &netstream.WireShardInfo{Count: we.Count, Workers: we.Workers}})
			case "sreg":
				_ = json.NewEncoder(conn).Encode(netstream.WireLine{Registered: &netstream.WireRegistered{ID: we.ID, Query: we.Query}})
			case "eos": // hang up for good: the coordinator's Close ends with the link's resume timeout
				_ = ln.Close()
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestCoordinatorHotPathAllocs is the coordinator's allocation guard
// (make alloc-guard): routing an event into a warm link — hashing,
// finding its shape, copying its values into the pending frame's
// columns, and, a frame's worth of events later, encoding the frame into
// the resend ring and writing it — allocates nothing, for schema-bound
// and map-carried events, with one route group (gi/rh frames) and with
// two (rgs/rhs frames).
func TestCoordinatorHotPathAllocs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A small prime window: the ring wraps during the warm-up and every
	// slot gets to hold the longest frame.
	co, err := cluster.Connect(ctx, cluster.Config{Shards: []string{startStubShard(t), startStubShard(t)},
		SendWindow: 13, BatchRows: 32, ResumeTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	// One type and one time: frames cut at the row cap only, and no window
	// closes (a barrier's bookkeeping is per window, not per event).
	var bound, mapped []*greta.Event
	for _, src := range greta.ClusterStream(greta.DefaultCluster(2000)) {
		if src.Type != "Measurement" || len(bound) == 640 {
			continue
		}
		ev := *src
		ev.Time = 1
		m := ev
		m.Sch, m.Num, m.StrV = nil, nil, nil
		bound, mapped = append(bound, &ev), append(mapped, &m)
	}
	feed := func(events []*greta.Event) func() {
		return func() {
			for _, ev := range events {
				if err := co.Process(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for groups, q := range diffQueries[:2] { // route group [job, mapper], then [job] as well
		if _, err := co.Register(q); err != nil {
			t.Fatal(err)
		}
		for label, events := range map[string][]*greta.Event{"schema-bound": bound, "map-carried": mapped} {
			for i := 0; i < 30; i++ {
				feed(events)()
			}
			frames := co.Metrics().Frames
			n := testing.AllocsPerRun(10, feed(events))
			if frames = co.Metrics().Frames - frames; frames < 11*uint64(len(events))/32-2 {
				t.Fatalf("%d frames for %d events: the guard measures no flush", frames, 11*len(events))
			}
			if n != 0 {
				t.Errorf("%d route group(s), %s events: Coordinator.Process allocates %v per %d events (%d frames), want 0",
					groups+1, label, n, len(events), frames/11)
			}
		}
	}
	if err := co.Err(); err != nil {
		t.Fatal(err)
	}
}
