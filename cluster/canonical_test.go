package cluster_test

import (
	"fmt"
	"testing"

	"github.com/greta-cep/greta"
)

// TestCanonicalTextConsumers takes one statement whose WHERE holds a
// string literal the canonical text used to mangle (a backslash came
// back doubled; a double quote made text that no longer parsed) through
// the three places that compile a statement from its canonical text —
// a checkpoint restore, a coordinator's shard registration and
// ShardHost.Register behind it — and demands the uninterrupted
// single-process run's answers from each.
func TestCanonicalTextConsumers(t *testing.T) {
	for _, lit := range []string{`"a\b"`, `'say "hi"'`} {
		name := lit[1 : len(lit)-1]
		q := "RETURN COUNT(*), SUM(S.price) PATTERN Stock S+ WHERE S.company = " + lit +
			" AND [company] AND S.price > NEXT(S).price GROUP-BY company WITHIN 20 SLIDE 5"
		b := &greta.Builder{}
		for i := 0; i < 400; i++ {
			company := []string{name, "IBM", name + name}[i%3]
			b.AddStr("Stock", greta.Time(1+i/4), map[string]float64{"price": float64(100 - (i*7)%13)},
				map[string]string{"company": company})
		}
		evs := b.Events()
		feed := func(rt *greta.Runtime, evs []*greta.Event, from greta.Time) {
			for _, ev := range evs {
				if ev.Time < from {
					continue
				}
				if err := rt.Process(ev); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Uninterrupted single-process run; the literal must select.
		rt := greta.NewRuntime()
		ref, err := rt.Register(greta.MustCompile(q), greta.WithID("q"))
		if err != nil {
			t.Fatal(err)
		}
		feed(rt, evs, 0)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		want := collect(ref)
		for _, r := range want {
			if r.Group != name {
				t.Fatalf("%s: a result for group %q", lit, r.Group)
			}
		}

		// Killed at three quarters, restored from the checkpoint's query
		// text, replayed.
		dir := t.TempDir()
		rtB := greta.NewRuntime(greta.WithCheckpoint(dir, 16),
			greta.WithCheckpointErrors(func(err error) { t.Errorf("checkpoint: %v", err) }))
		if _, err := rtB.Register(greta.MustCompile(q), greta.WithID("q")); err != nil {
			t.Fatal(err)
		}
		feed(rtB, evs[:len(evs)*3/4], 0)
		res, err := greta.Restore(dir)
		if err != nil {
			t.Fatalf("%s: restore: %v", lit, err)
		}
		feed(res.Runtime, evs, res.ReplayFrom)
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
		compareAtLeast(t, fmt.Sprintf("%s restored", lit), 15, want, collect(res.Handles[0]))

		// Registered on two shards from the coordinator's sreg text.
		co := connect(t, startShards(t, 2))
		h, err := co.Register(q)
		if err != nil {
			t.Fatalf("%s: cluster register: %v", lit, err)
		}
		for _, ev := range evs {
			if err := co.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		compareAtLeast(t, fmt.Sprintf("%s cluster", lit), 15, want, collect(h))
	}
}
