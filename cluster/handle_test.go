package cluster_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/greta-cep/greta"
)

// TestClusterHandleConcurrent uses a Handle from a goroutine that is not
// the one delivering to it: merged windows are delivered by link reader
// goroutines while the test goroutine keeps swapping the callback and
// snapshotting Results. Every result reaches exactly one of the
// callbacks, each mid-stream snapshot extends the one before it in
// emission order, and under -race nothing is reported.
func TestClusterHandleConcurrent(t *testing.T) {
	const q = `RETURN mapper, COUNT(*) PATTERN Measurement M+ WHERE [mapper] GROUP-BY mapper WITHIN 10 seconds SLIDE 5 seconds`
	events := diffEvents(3000)
	co := connect(t, startShards(t, 2))
	h, err := co.Register(q)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		group string
		wid   int64
	}
	var mu sync.Mutex // callbacks run on the link readers
	seen := map[key]int{}
	var first sync.Once
	delivered := make(chan struct{}) // closed by the first delivery
	install := func(gen int) {
		h.OnResult(func(r greta.Result) {
			mu.Lock()
			defer mu.Unlock()
			k := key{r.Group, r.Wid}
			if before, dup := seen[k]; dup {
				t.Errorf("result %v reached callback %d and then callback %d", k, before, gen)
			}
			seen[k] = gen
			first.Do(func() { close(delivered) })
		})
	}
	install(0)

	// The shards answer in bursts that trail the feed, the last of them
	// inside Close, so the test goroutine works the handle for as long as
	// the feeder runs, Close included. Halfway — several windows have
	// closed — the feeder waits for a mid-stream snapshot that holds a
	// delivery, so the snapshot comparison always has something to compare.
	snapped := make(chan struct{})
	fedAll := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i, ev := range events {
			if err := co.Process(ev); err != nil && !errors.Is(err, greta.ErrOutOfOrder) {
				done <- err
				return
			}
			if i == len(events)/2 {
				<-delivered
				<-snapped
			}
		}
		close(fedAll)
		done <- co.Close()
	}()
	gens := 0
	var prev []greta.Result
	for running, live := true, true; running; runtime.Gosched() {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		gens++
		install(gens)
		snap := h.Delivered()
		select {
		case <-fedAll: // Close may have sorted what this snapshot copied
			live = false
		default:
		}
		if !live {
			continue
		}
		if len(snap) < len(prev) {
			t.Fatalf("snapshot %d holds %d results, the one before it %d", gens, len(snap), len(prev))
		}
		for i, r := range prev {
			if snap[i].Group != r.Group || snap[i].Wid != r.Wid {
				t.Fatalf("snapshot %d result %d is (%q,%d), the one before it had (%q,%d) there",
					gens, i, snap[i].Group, snap[i].Wid, r.Group, r.Wid)
			}
		}
		if len(prev) == 0 && len(snap) > 0 {
			close(snapped)
		}
		prev = snap
	}

	final := h.Delivered()
	if len(final) < 40 || len(prev) == 0 {
		t.Fatalf("scenario checks nothing: %d results, %d of them in a mid-stream snapshot", len(final), len(prev))
	}
	mu.Lock()
	defer mu.Unlock()
	if n := h.Stats().Results; len(seen) != len(final) || n != len(final) {
		t.Errorf("callbacks saw %d results, Results() holds %d, Stats counts %d", len(seen), len(final), n)
	}
	for _, r := range final {
		if _, ok := seen[key{r.Group, r.Wid}]; !ok {
			t.Errorf("result (%q,%d) reached no callback", r.Group, r.Wid)
		}
	}
}
