package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/greta-cep/greta"
)

const wireGoldenPath = "testdata/wire_golden.txt"

// recordingRelay fronts one shard with a TCP relay that hashes every
// coordinator→shard byte it forwards.
type recordingRelay struct {
	addr string
	done chan struct{} // closed when the coordinator→shard copy ends

	mu  sync.Mutex
	buf bytes.Buffer
}

func startRecordingRelay(t *testing.T, shard string) *recordingRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	r := &recordingRelay{addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		down, err := ln.Accept() // the scenario never breaks a link: one connection
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", shard)
		if err != nil {
			_ = down.Close()
			return
		}
		go func() {
			_, _ = io.Copy(down, up)
			_ = down.Close()
		}()
		_, _ = io.Copy(up, io.TeeReader(down, (*relayLog)(r)))
		_ = up.Close()
		close(r.done)
	}()
	return r
}

type relayLog recordingRelay

func (l *relayLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// summary is the golden line of one link: the stream's hash and size,
// and how many of its frames are batch frames in each routing form, so
// a mismatch says roughly where to look.
func (r *recordingRelay) summary(shard int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buf.Bytes()
	single := bytes.Count(b, []byte(`"rh":[`))
	multi := bytes.Count(b, []byte(`"rhs":[`))
	return fmt.Sprintf("shard%d sha256=%x bytes=%d lines=%d batch_rh=%d batch_rhs=%d\n",
		shard, sha256.Sum256(b), len(b), bytes.Count(b, []byte("\n")), single, multi)
}

// TestClusterWireGolden pins the coordinator→shard wire, byte for byte:
// a seeded 2-shard run — three statements, the third registered
// mid-stream and opening a second route group, so frames in the
// single-group (gi/rh) and the per-row (rgs/rhs) form both occur on
// every link, every third event map-carried instead of schema-bound — goes through a recording relay
// per link, and each link's stream must hash to the committed value.
// The golden file was generated before the batch-frame codec replaced
// encoding/json on this path; whatever builds the frames, the bytes on
// the wire (and so in the resend ring) do not move.
func TestClusterWireGolden(t *testing.T) {
	events := greta.ClusterStream(greta.DefaultCluster(4000))
	var relays []*recordingRelay
	var addrs []string
	for _, shard := range startShards(t, 2) {
		r := startRecordingRelay(t, shard)
		relays, addrs = append(relays, r), append(addrs, r.addr)
	}
	co := connect(t, addrs)
	// Two statements on the route group [job, mapper]: single-group frames.
	sameGroup := `RETURN COUNT(*) PATTERN Measurement M+ WHERE [job, mapper] WITHIN 30 seconds SLIDE 15 seconds`
	for _, q := range []string{diffQueries[0], sameGroup} {
		if _, err := co.Register(q); err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range events {
		if i == len(events)/2 { // a second route group, [job]: per-row group lists from here on
			if _, err := co.Register(diffQueries[1]); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 2 {
			e := *ev
			e.Sch, e.Num, e.StrV = nil, nil, nil
			ev = &e
		}
		if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
			t.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
	var fresh []byte
	for i, r := range relays {
		<-r.done
		fresh = append(fresh, r.summary(i)...)
	}
	if bytes.Contains(fresh, []byte("batch_rhs=0\n")) || bytes.Contains(fresh, []byte("batch_rh=0 ")) {
		t.Fatalf("scenario does not exercise both routing forms on every link:\n%s", fresh)
	}

	want, err := os.ReadFile(wireGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(wireGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGoldenPath, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote it, review and commit\n%s", wireGoldenPath, fresh)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("coordinator→shard bytes moved:\n got\n%s\nwant\n%s", fresh, want)
	}
}
