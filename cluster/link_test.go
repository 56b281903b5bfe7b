package cluster

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/greta-cep/greta/internal/obs"
	"github.com/greta-cep/greta/netstream"
)

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestLinkWriteFailure pins what a failed frame write does: the
// connection closes at once (so the reader's reattach starts), the
// writer is dropped, and this and later frames stay in the resend
// ring for the resume to replay.
func TestLinkWriteFailure(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	co := &Coordinator{sendWin: 8, met: newCoMetrics(obs.NewRegistry())}
	l := &link{co: co, conn: near, w: failingWriter{}}
	l.ring.Init(co.sendWin, 0)

	l.send(netstream.WireEvent{Cmd: "barrier", SI: 1})
	if l.w != nil {
		t.Fatal("writer kept after a failed write")
	}
	_ = far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read = %v, want EOF: the connection must be closed", err)
	}
	l.send(netstream.WireEvent{Cmd: "barrier", SI: 2})
	l.sendRaw(netstream.WireEvent{Cmd: "flush"})
	var replay bytes.Buffer
	if err := l.ring.WriteAfter(&replay, 0); err != nil {
		t.Fatal(err)
	}
	const want = `{"cmd":"barrier","seq":1,"time":0,"si":1}` + "\n" + `{"cmd":"barrier","seq":2,"time":0,"si":2}` + "\n"
	if replay.String() != want {
		t.Fatalf("resend ring replays %q, want the two sequenced frames %q", replay.String(), want)
	}
}
