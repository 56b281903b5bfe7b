package greta_test

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
)

// everyTick is a statement that closes one window, with one result, per
// time unit it is fed an A event at.
const everyTick = "RETURN COUNT(*) PATTERN A+ WITHIN 1 SLIDE 1"

// feedTicks feeds one A event at each of times from..to.
func feedTicks(t *testing.T, rt *greta.Runtime, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := rt.Process(&greta.Event{ID: uint64(i), Type: "A", Time: greta.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveIteratorDropsOldest pins the bound on what a WithoutRetention
// iterator may fall behind by: one that stops consuming loses exactly
// the oldest results past the last 4096, and every delivery is counted
// whether or not anything was there to see it.
func TestLiveIteratorDropsOldest(t *testing.T) {
	const tail, total = 4096, 4096 + 500
	rt := greta.NewRuntime()
	h, err := rt.Register(greta.MustCompile(everyTick), greta.WithoutRetention())
	if err != nil {
		t.Fatal(err)
	}
	stalled := h.Results() // subscribed from here, consumed only after Close
	feedTicks(t, rt, 0, total-1)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n := h.Stats().Results; n != total {
		t.Fatalf("Stats counts %d results, want %d", n, total)
	}
	next := int64(total - tail)
	for r := range stalled {
		if r.Wid != next {
			t.Fatalf("stalled iterator yields window %d, want %d (the oldest %d dropped, then emission order)", r.Wid, next, total-tail)
		}
		next++
	}
	if next != total {
		t.Errorf("stalled iterator stopped before window %d, want all of the last %d up to %d", next, tail, total-1)
	}
}

// TestWithoutRetentionHoldsNothing: with no iterator live a
// WithoutRetention statement has nothing to snapshot however much was
// delivered, and an iterator that left takes its tail with it — on a
// Runtime, and for a statement partitioned over a 2-shard cluster.
func TestWithoutRetentionHoldsNothing(t *testing.T) {
	t.Run("runtime", func(t *testing.T) {
		rt := greta.NewRuntime()
		h, err := rt.Register(greta.MustCompile(everyTick), greta.WithoutRetention())
		if err != nil {
			t.Fatal(err)
		}
		feedTicks(t, rt, 0, 10000)
		if rs := h.Delivered(); rs != nil {
			t.Errorf("Delivered() holds %d results with no iterator live", len(rs))
		}
		seq := h.Results()
		feedTicks(t, rt, 10001, 10010)
		for r := range seq {
			if r.Wid != 10000 {
				t.Errorf("iterator opened after window 9999 closed starts at window %d", r.Wid)
			}
			break
		}
		feedTicks(t, rt, 10011, 10020)
		if rs := h.Delivered(); rs != nil {
			t.Errorf("Delivered() holds %d results while and after an iterator ran", len(rs))
		}
		if n := h.Stats().Results; n != 10020 {
			t.Errorf("Stats counts %d results, want 10020", n)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		const n = 2000
		co := connectShards(t, 2)
		h, err := co.Register("RETURN COUNT(*) PATTERN A+ WHERE [k] WITHIN 1 SLIDE 1", greta.WithoutRetention())
		if err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64 // the link readers deliver
		h.OnResult(func(greta.Result) { calls.Add(1) })
		for i := 0; i < n; i++ {
			ev := &greta.Event{ID: uint64(i + 1), Type: "A", Time: greta.Time(i), Str: map[string]string{"k": strconv.Itoa(i % 4)}}
			if err := co.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
		if rs := h.Delivered(); rs != nil {
			t.Errorf("Delivered() holds %d results mid-stream", len(rs))
		}
		if err := co.Close(); err != nil {
			t.Fatal(err)
		}
		if rs := h.Delivered(); rs != nil {
			t.Errorf("Delivered() holds %d results after Close", len(rs))
		}
		if got, cb := h.Stats().Results, calls.Load(); got != n || cb != n {
			t.Errorf("Stats counts %d results and the callback saw %d, want %d windows each", got, cb, n)
		}
	})
}

// connectShards serves n cluster shards on loopback and connects a
// coordinator to them; both end with the test.
func connectShards(t *testing.T, n int) *cluster.Coordinator {
	t.Helper()
	var addrs []string
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := cluster.ServeShard()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		addrs = append(addrs, ln.Addr().String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	co, err := cluster.Connect(ctx, cluster.Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	return co
}

// TestResultsUnblocksOnClose: an iterator blocked in Results on another
// goroutine has seen every delivery, and returns, once the statement
// ends — by Handle.Close, by Runtime.Close, or under RunParallel, where
// deliveries come from the merger goroutine — with and without
// retention. Run under -race.
func TestResultsUnblocksOnClose(t *testing.T) {
	const q = "RETURN COUNT(*) PATTERN Measurement M+ WHERE [job] WITHIN 30 seconds SLIDE 10 seconds"
	events := greta.ClusterStream(greta.DefaultCluster(4000))
	feed := func(rt *greta.Runtime) error {
		for _, ev := range events {
			if err := rt.Process(ev); err != nil {
				return err
			}
		}
		return nil
	}
	ends := map[string]func(*greta.Runtime, *greta.Handle) error{
		"handle-close": func(rt *greta.Runtime, h *greta.Handle) error {
			if err := feed(rt); err != nil {
				return err
			}
			return h.Close()
		},
		"runtime-close": func(rt *greta.Runtime, _ *greta.Handle) error {
			if err := feed(rt); err != nil {
				return err
			}
			return rt.Close()
		},
		"run-parallel": func(rt *greta.Runtime, _ *greta.Handle) error {
			return rt.RunParallel(context.Background(), greta.NewSliceStream(events), 3)
		},
	}
	for name, end := range ends {
		for _, retain := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/retain=%t", name, retain), func(t *testing.T) {
				rt := greta.NewRuntime()
				defer rt.Close()
				var opts []greta.RegisterOption
				if !retain {
					opts = append(opts, greta.WithoutRetention())
				}
				h, err := rt.Register(greta.MustCompile(q), opts...)
				if err != nil {
					t.Fatal(err)
				}
				seq := h.Results()
				seen := make(chan int)
				go func() {
					n := 0
					for range seq {
						n++
					}
					seen <- n
				}()
				if err := end(rt, h); err != nil {
					t.Fatal(err)
				}
				if n, want := <-seen, h.Stats().Results; n != want || want == 0 {
					t.Errorf("the iterator saw %d of %d results before it returned", n, want)
				}
			})
		}
	}
}
