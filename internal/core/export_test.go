package core

import (
	"bytes"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greta-cep/greta/internal/event"
)

// NewTestSink returns the SnapshotSink the core tests arm where a
// checkpoint.Store would be: each snapshot's bytes are copied at Start
// and handed to keep (nil discards them), and Wait fails t if a part
// changed since Start — the parts are the sink's until Wait returns.
// Without keep the copy reuses one buffer, so a write allocates nothing
// snapshot-sized.
func NewTestSink(t testing.TB, keep func(body []byte)) SnapshotSink {
	return &testSink{t: t, keep: keep}
}

type testSink struct {
	t     testing.TB
	keep  func(body []byte)
	parts [][]byte // handed over at Start, the sink's until Wait
	body  []byte   // their concatenation, copied at Start
}

func (s *testSink) Start(parts ...[]byte) {
	if s.parts != nil {
		s.t.Errorf("checkpoint sink: Start with a write in flight")
	}
	if s.keep != nil {
		s.body = nil // keep may hold the last copy
	}
	s.parts, s.body = parts, s.body[:0]
	for _, p := range parts {
		s.body = append(s.body, p...)
	}
	if s.keep != nil {
		s.keep(s.body)
	}
}

func (s *testSink) Wait() (time.Duration, error) {
	if s.parts == nil {
		return 0, nil
	}
	rest := s.body
	for _, p := range s.parts {
		if !bytes.HasPrefix(rest, p) {
			break
		}
		rest = rest[len(p):]
	}
	if len(rest) != 0 {
		s.t.Errorf("checkpoint sink: the runtime wrote into a snapshot part before Wait")
	}
	s.parts = nil
	return 0, nil
}

// ParChanDepth is how many chunks a RunParallel worker's channel
// buffers.
const ParChanDepth = parChanDepth

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

// OldestHeld returns the oldest event time the runtime's state refers
// to — the event of a vertex in any pane of a live source's graphs
// (composite sub-engines included), an event pending in the reorder
// buffer, the in-flight event — math.MaxInt64 when it refers to none,
// and how many vertices it walked.
func (rt *Runtime) OldestHeld() (oldest event.Time, vertices int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	oldest = math.MaxInt64
	var walk func(e *Engine)
	walk = func(e *Engine) {
		for _, se := range e.subs {
			walk(se)
		}
		for _, p := range e.parts.all() {
			for _, g := range p.graphs {
				for _, pn := range g.panes {
					for _, tree := range pn.trees {
						if tree != nil {
							tree.Ascend(func(it vitem) bool {
								oldest, vertices = min(oldest, it.Val.Ev.Time), vertices+1
								return true
							})
						}
					}
				}
			}
		}
	}
	for _, g := range rt.groups {
		for _, s := range g.members {
			walk(s.eng)
		}
	}
	for _, s := range rt.direct {
		walk(s.eng)
	}
	if b := rt.reorder; b != nil {
		for _, ev := range b.Snapshot(nil).Pending {
			oldest = min(oldest, ev.Time)
		}
	}
	if rt.inflight != nil {
		oldest = min(oldest, rt.inflight.Time)
	}
	return oldest, vertices
}
