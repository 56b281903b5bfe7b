package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/greta-cep/greta"
)

// closeRing bounds the window closes that may be awaiting rows at once; a
// lap never has more than its own closes outstanding.
const closeRing = 1024

// closeRec is one window close awaiting its result rows.
type closeRec struct {
	wid       int64
	start     int64 // clock when the closing call was entered
	last      int64 // clock when the latest row arrived
	want, got int
	seen      [maxWindowRows / 64]uint64 // reference rows delivered, by index in the window
}

// mark records the delivery of the window's idx-th reference row and
// reports whether it is the first.
func (r *closeRec) mark(idx int) bool {
	bit := uint64(1) << (idx % 64)
	first := r.seen[idx/64]&bit == 0
	r.seen[idx/64] |= bit
	return first
}

// collector receives every result row: it checks the row against the
// reference, and times each window close from the moment the closing event
// was handed to the entry point until the window's last row is in the
// caller's hands. Rows arrive on the caller's goroutine in-process and on
// link readers in the cluster, hence the lock.
type collector struct {
	mu   sync.Mutex
	cond *sync.Cond
	exp  *expectation

	open        [closeRing]closeRec
	outstanding int
	samples     []float64 // ns, one per completed close
	lastWid     int64     // newest window a close was begun for, -1 before the first
	windows     int       // closes begun
	rows        int       // rows expected by the closes begun
	bad         int       // rows missing, extra or differing
	errs        int       // entry-point calls that returned an error
	notes       []string  // the first few failed rows, for the report
	draining    bool      // end-of-run flush: its partial windows are not results
	// While a trace is on, row times itself: deliver is the child span of
	// the call that emitted the row (parent), kept holds the spans in full.
	trace   bool
	lap     int
	parent  string
	deliver spanAgg
	kept    []span
}

func newCollector(exp *expectation) *collector {
	c := &collector{exp: exp, samples: make([]float64, 0, 1<<14), lastWid: -1}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// beginClose is called just before the call that closes window wid.
func (c *collector) beginClose(wid int64) {
	t := now()
	c.mu.Lock()
	rec := &c.open[wid%closeRing]
	if rec.got < rec.want {
		c.bad += rec.want - rec.got // the ring came round on an unfinished close
		c.outstanding--
	}
	*rec = closeRec{wid: wid, start: t, want: c.exp.want(wid)}
	if rec.want > 0 { // a window without rows (thinned laps only) has nothing to wait for
		c.outstanding++
	}
	c.lastWid = wid
	c.windows++
	c.rows += rec.want
	c.mu.Unlock()
}

// begin opens every window the closing event cl closes in lap k and
// returns the newest of them, or -1 when lap 0 has not reached window 0.
func (c *collector) begin(cl closing, k int, period int64) int64 {
	for wid := cl.lo + 1; wid <= cl.hi; wid++ {
		if w := wid + int64(k)*period; w >= 0 {
			c.beginClose(w)
		}
	}
	return max(cl.hi+int64(k)*period, -1)
}

// row takes delivery of one result row of statement stmt.
func (c *collector) row(stmt int, wid int64, group string, vals []float64) {
	t := now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return
	}
	rec := &c.open[wid%closeRing]
	idx, same := c.exp.check(stmt, wid, group, vals)
	switch {
	case rec.wid != wid || idx < 0:
		c.mismatch("unexpected", stmt, wid, group, vals) // a window not being closed, or a group it does not have
		return
	case !rec.mark(idx):
		c.mismatch("repeated", stmt, wid, group, vals)
		return
	case !same:
		c.mismatch("differing", stmt, wid, group, vals)
	}
	rec.got++
	rec.last = t
	if rec.got == rec.want {
		c.samples = append(c.samples, float64(rec.last-rec.start))
		c.outstanding--
		if c.outstanding == 0 {
			c.cond.Broadcast()
		}
	}
	if c.trace {
		end := now()
		c.deliver.n++
		c.deliver.ns += end - t
		if len(c.kept) < cap(c.kept) {
			c.kept = append(c.kept, span{Name: spanNames[spDeliver], Start: t, End: end, Parent: c.parent, Lap: c.lap, Window: wid})
		}
	}
}

func (c *collector) onResult(stmt int) func(greta.Result) {
	return func(r greta.Result) { c.row(stmt, r.Wid, r.Group, r.Values) }
}

// settle times a close whose rows do not come through row (the netstream
// client hands results over only at Flush, where verify checks them): the
// close is complete when the caller's synchronous round trip returns.
func (c *collector) settle(wid int64) {
	if wid < 0 {
		return
	}
	t := now()
	c.mu.Lock()
	rec := &c.open[wid%closeRing]
	if rec.wid == wid && rec.got < rec.want {
		rec.got = rec.want
		c.samples = append(c.samples, float64(t-rec.start))
		c.outstanding--
	}
	c.mu.Unlock()
}

// verify checks a row delivered outside the timed path (after Flush);
// seen holds, per window, the reference rows delivered so far.
func (c *collector) verify(stmt int, wid int64, group string, vals []float64, seen map[int64]*closeRec) {
	rec := seen[wid]
	if rec == nil {
		rec = &closeRec{}
		seen[wid] = rec
	}
	idx, same := c.exp.check(stmt, wid, group, vals)
	switch {
	case idx < 0:
		c.mismatch("unexpected", stmt, wid, group, vals)
	case !rec.mark(idx):
		c.mismatch("repeated", stmt, wid, group, vals)
	default:
		rec.got++
		if !same {
			c.mismatch("differing", stmt, wid, group, vals)
		}
	}
}

// mismatch counts a failed row and keeps the first few for the report.
func (c *collector) mismatch(what string, stmt int, wid int64, group string, vals []float64) {
	c.bad++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf("%s row: statement %d window %d group %q: %v, reference %v",
			what, stmt, wid, group, vals, c.exp.rows[rowKey{stmt, c.exp.canon(wid), group}].vals))
	}
}

// wait blocks until every close begun has its rows, or counts the missing
// rows as failures after the timeout.
func (c *collector) wait(timeout time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outstanding == 0 {
		return
	}
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	deadline := now() + int64(timeout)
	for c.outstanding > 0 && now() < deadline {
		c.cond.Wait()
	}
	if c.outstanding == 0 {
		return
	}
	for i := range c.open {
		if rec := &c.open[i]; rec.got < rec.want {
			c.bad += rec.want - rec.got
			rec.got = rec.want
		}
	}
	c.outstanding = 0
}

func (c *collector) fail() {
	c.mu.Lock()
	c.errs++
	c.mu.Unlock()
}

func (c *collector) drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}
