package cluster

import (
	"encoding/json"
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
// encoder is dropped, and this and later frames stay in the resend
// ring for the resume to replay.
func TestLinkWriteFailure(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	co := &Coordinator{sendWin: 8, met: newCoMetrics(obs.NewRegistry())}
	l := &link{co: co, conn: near, enc: json.NewEncoder(failingWriter{})}

	l.send(netstream.WireEvent{Cmd: "barrier", SI: 1})
	if l.enc != nil {
		t.Fatal("encoder kept after a failed write")
	}
	_ = far.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read = %v, want EOF: the connection must be closed", err)
	}
	l.send(netstream.WireEvent{Cmd: "barrier", SI: 2})
	l.sendRaw(netstream.WireEvent{Cmd: "flush"})
	if len(l.ring) != 2 || l.ring[0].Seq != 1 || l.ring[1].Seq != 2 {
		t.Fatalf("resend ring = %+v, want the two sequenced frames", l.ring)
	}
}
