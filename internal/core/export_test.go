package core

import (
	"bytes"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// CountHelperSweeps counts, until t ends, the route-group sources a batch
// segment swept on a helper goroutine rather than on the ProcessBatch
// caller: a count above zero shows the fan-out engaged.
func CountHelperSweeps(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	setSegmentHook(t, func(onHelper bool) {
		if onHelper {
			n.Add(1)
		}
	})
	return n
}

// PanicOnSweep makes the first sweep on a helper goroutine (onHelper) or
// on the ProcessBatch caller panic with v, until t ends. For a helper,
// the caller's sweeps wait for that panic (up to five seconds), so a
// segment with a helper and a source for it raises whichever goroutine
// took the first source.
func PanicOnSweep(t testing.TB, v any, onHelper bool) {
	var once sync.Once
	raised := make(chan struct{})
	setSegmentHook(t, func(helper bool) {
		if helper != onHelper {
			if onHelper {
				select {
				case <-raised:
				case <-time.After(5 * time.Second): // no helper came
					once.Do(func() { close(raised) })
				}
			}
			return
		}
		first := false
		once.Do(func() { first = true; close(raised) })
		if first {
			panic(v)
		}
	})
}

// CaptureSweepPanics collects, until t ends, what the caller writes out
// about a panic a helper recovered, and returns a reader of it.
func CaptureSweepPanics(t testing.TB) func() string {
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	sweepPanicLog = lockedWriter{&mu, &buf}
	t.Cleanup(func() { sweepPanicLog = os.Stderr })
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// Results returns a copy of the retained results: in emission order
// while the statement is live, sorted by (group, wid) once it is closed.
// Empty when it registered with NoRetain.
func (st *Stmt) Results() []Result {
	_, rs, closed := st.record()
	if rs = slices.Clone(rs); closed {
		sortResults(rs)
	}
	return rs
}

func setSegmentHook(t testing.TB, hook func(onHelper bool)) {
	segmentHook = hook
	t.Cleanup(func() { segmentHook = nil })
}
