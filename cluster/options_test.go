package cluster_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
)

// TestClusterRegisterOptions: a Coordinator takes greta's registration
// options, honours the ones it can and refuses the rest with
// greta.ErrUnsupportedOption; the one option of its own, exact
// arithmetic, is refused by a Runtime for a natively compiled statement.
func TestClusterRegisterOptions(t *testing.T) {
	q := diffQueries[1]
	t.Run("with-id", func(t *testing.T) {
		co := connect(t, startShards(t, 2))
		defer co.Close()
		h, err := co.Register(q, greta.WithID("mine"))
		if err != nil {
			t.Fatal(err)
		}
		if h.ID() != "mine" || h.Query() != greta.MustCompile(q).Query() {
			t.Errorf("handle reads id %q, query %q", h.ID(), h.Query())
		}
		if _, err := co.Register(q, greta.WithID("mine")); err == nil {
			t.Error("a second statement took the id a live one holds")
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); !errors.Is(err, greta.ErrStatementClosed) {
			t.Errorf("second Close = %v, want ErrStatementClosed", err)
		}
		if _, err := co.Register(q, greta.WithID("mine")); err != nil {
			t.Errorf("a closed statement's id is not reusable: %v", err)
		}
	})
	t.Run("sharing", func(t *testing.T) {
		co := connect(t, startShards(t, 2))
		defer co.Close()
		if _, err := co.Register(q, greta.WithSharing(true)); !errors.Is(err, greta.ErrUnsupportedOption) {
			t.Errorf("WithSharing(true) = %v, want ErrUnsupportedOption", err)
		}
		if _, err := co.Register(q, greta.WithSharing(false)); err != nil {
			t.Errorf("WithSharing(false) = %v", err)
		}
	})
	t.Run("exact", func(t *testing.T) {
		// Trend counts past 2^64: native arithmetic wraps where exact
		// does not, so a cluster that dropped the option fails here.
		events := diffEvents(3000)
		rt := greta.NewRuntime()
		ref, err := rt.Register(greta.MustCompile(q, greta.WithExactArithmetic()), greta.WithSharing(false))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RunParallel(context.Background(), greta.NewSliceStream(events), 2); err != nil {
			t.Fatal(err)
		}
		co := connect(t, startShards(t, 2))
		h, err := co.Register(q, cluster.WithExactArithmetic())
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
				t.Fatal(err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		want := collect(ref)
		if !slices.ContainsFunc(want, func(r greta.Result) bool { return r.Values[0] > math.MaxUint64 }) {
			t.Fatal("no reference count exceeds 2^64: native and exact arithmetic agree on this stream")
		}
		compareAtLeast(t, "exact", diffFloors[1], want, collect(h))
		if ws, cs := ref.Stats(), h.Stats(); ws != cs {
			t.Errorf("stats:\nref     %+v\ncluster %+v", ws, cs)
		}
	})
	t.Run("exact-on-a-runtime", func(t *testing.T) {
		rt := greta.NewRuntime()
		defer rt.Close()
		if _, err := rt.Register(greta.MustCompile(q), cluster.WithExactArithmetic()); !errors.Is(err, greta.ErrUnsupportedOption) {
			t.Errorf("exact option on a native statement = %v, want ErrUnsupportedOption", err)
		}
		if _, err := rt.Register(greta.MustCompile(q, greta.WithExactArithmetic()), cluster.WithExactArithmetic()); err != nil {
			t.Errorf("exact option on an exact statement = %v", err)
		}
	})
}
