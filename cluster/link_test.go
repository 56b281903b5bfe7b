package cluster

import (
	"context"
	"encoding/base64"
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/netstream"
)

// TestClusterLinkRefusesMisshapenPartial: a shard's partial is read with
// its unit's definition, so one whose payload has another shape — a slot
// the statement does not have, exact-mode values for a native statement,
// a count where the statement's slot keeps a float, bytes after the
// payload — is refused and fails the cluster, while a well-shaped one is
// filed.
func TestClusterLinkRefusesMisshapenPartial(t *testing.T) {
	const (
		src    = "RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds"
		sumSrc = "RETURN COUNT(*), SUM(M.cpu) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds"
	)
	native := &aggregate.Def{}
	p := native.New()
	p.Count = 3
	good, err := core.MarshalPayload(native, p)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(d *aggregate.Def) []byte {
		b, err := core.MarshalPayload(d, d.New())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A COUNT(M) partial whose slot counts 3, read by a SUM(M.cpu)
	// statement: the same bytes but a count where a float belongs.
	countE := &aggregate.Def{Slots: []aggregate.Slot{{Kind: aggregate.SlotCountE, Type: "Measurement"}}}
	pc := countE.New()
	pc.Count = 3
	countE.Val(pc, 0).SetN(3)
	counted, err := core.MarshalPayload(countE, pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string // "" if the partial is filed
		src     string // src if ""
	}{
		{"well-shaped", good, "", ""},
		{"extra-slot", marshal(&aggregate.Def{Slots: []aggregate.Slot{{Kind: aggregate.SlotSum, Type: "Measurement", Attr: "cpu"}}}), "payload has 1 slots, definition has 0", ""},
		{"exact-count", marshal(&aggregate.Def{Mode: aggregate.ModeExact}), "exact-value shape mismatch", ""},
		{"trailing-bytes", append(slices.Clone(good), 0), "trailing bytes", ""},
		{"count-as-sum", counted, "SUM slot holds a count", sumSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tcp, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := ServeShard()
			go func() { _ = srv.Serve(tcp) }()
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = srv.Shutdown(ctx)
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			co, err := Connect(ctx, Config{Shards: []string{tcp.Addr().String()}})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			q := tc.src
			if q == "" {
				q = src
			}
			if _, err := co.Register(q); err != nil {
				t.Fatal(err)
			}
			co.mu.Lock()
			if len(co.order) != 1 {
				co.mu.Unlock()
				t.Fatalf("%d partitioned units, want 1", len(co.order))
			}
			si := co.order[0]
			co.onPartialLocked(co.links[0], &netstream.WirePartial{SI: si, W: 0, Group: "", Wid: 0, Payload: base64.StdEncoding.EncodeToString(tc.payload)})
			pending, err := co.units[si].merge.Pending(), co.err
			co.mu.Unlock()
			switch {
			case tc.want == "" && (err != nil || pending != 1):
				t.Fatalf("well-shaped partial: cluster error %v, %d windows pending, want none and 1", err, pending)
			case tc.want != "" && (!errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) || pending != 0):
				t.Fatalf("cluster error %v with %d windows pending, want a refused partial (%s)", err, pending, tc.want)
			}
		})
	}
}
