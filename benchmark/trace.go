package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// spanKind names a call the harness times in a traced lap. Spans are
// recorded from the harness's side of each public entry point; spans
// inside the program are a later change.
type spanKind int

const (
	spProcess     spanKind = iota // Runtime.Process, no window closes
	spCloseEmit                   // Runtime.Process that closes windows and emits
	spBatchAppend                 // NewBatch + Batch.AppendEvent
	spBatch                       // Runtime.ProcessBatch, no window closes
	spBatchClose                  // Runtime.ProcessBatch that closes windows and emits
	spSend                        // netstream Client.Send
	spSync                        // netstream Client.Stats round trip
	spCoordinator                 // cluster Coordinator.Process
	spBarrierWait                 // end-of-lap wait for the last barrier's merged rows
	spDeliver                     // the harness's own OnResult callback (child span)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.process", "core.close_emit", "event.batch_append", "core.batch", "core.batch_close",
	"netstream.send", "netstream.sync", "cluster.process", "cluster.barrier_wait", "deliver",
}

// spanAgg is the (count, total ns) of one span kind over one lap; rows is
// the batch rows the spans handled, for the two batch kinds.
type spanAgg struct {
	n, ns, rows int64
}

// span is one fully kept span: every window-closing call and one in 64 of
// the others.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Lap    int    `json:"lap"`
	Window int64  `json:"window"` // -1: the call closed no window
}

// tracer accumulates spans for the lap being fed. It is used from the
// feeding goroutine only. A nil tracer is tracing switched off: start reads
// no clock and add records nothing, so the feed loops carry one code path.
type tracer struct {
	lap   int
	agg   [numSpanKinds]spanAgg
	syncs []float64 // ns of each netstream.sync, for its median
	kept  []span
}

func newTracer() *tracer {
	return &tracer{kept: make([]span, 0, 1<<16), syncs: make([]float64, 0, 1<<12)}
}

// start opens a span.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return now()
}

// addBatch is add for a ProcessBatch call of the given number of rows.
func (t *tracer) addBatch(k spanKind, start, wid int64, rows int) {
	if t == nil {
		return
	}
	t.agg[k].rows += int64(rows)
	t.add(k, start, wid)
}

// add closes a span opened at start; wid is the window its call closed,
// or -1.
func (t *tracer) add(k spanKind, start, wid int64) {
	if t == nil {
		return
	}
	end := now()
	a := &t.agg[k]
	a.n++
	a.ns += end - start
	if k == spSync {
		t.syncs = append(t.syncs, float64(end-start))
	}
	if (wid >= 0 || a.n&63 == 0) && len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{Name: spanNames[k], Start: start, End: end, Lap: t.lap, Window: wid})
	}
}

// take returns the lap's aggregates and resets them; deliver is the time
// the collector spent in callbacks, a child of the calls that emit.
func (t *tracer) take(lap int, deliver spanAgg) [numSpanKinds]spanAgg {
	out := t.agg
	out[spDeliver] = deliver
	t.agg = [numSpanKinds]spanAgg{}
	t.lap = lap + 1
	return out
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budgetRow is one line of the ingest budget: a layer's self time per
// event.
type budgetRow struct {
	name string
	ns   float64
}

// budget turns the spans summed over the traced laps into self times per
// event: a span's time minus the child spans inside it. deliver runs
// inside the call that emits (the closing Process or the closing batch)
// except in the cluster, where it runs on link readers concurrently with
// the feeder and is left out of the sum.
func budget(agg [numSpanKinds]spanAgg, events int) (rows []budgetRow, total float64) {
	var ns [numSpanKinds]float64
	for k := range agg {
		ns[k] = float64(agg[k].ns)
	}
	switch {
	case ns[spCloseEmit] > 0:
		ns[spCloseEmit] -= ns[spDeliver]
	case ns[spBatchClose] > 0:
		ns[spBatchClose] -= ns[spDeliver]
	default:
		ns[spDeliver] = 0
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if ns[k] > 0 {
			rows = append(rows, budgetRow{spanNames[k], ns[k] / float64(events)})
			total += ns[k] / float64(events)
		}
	}
	return rows, total
}

func printBudget(out io.Writer, rows []budgetRow, total, measured float64) {
	fmt.Fprintf(out, "ingest budget (traced laps, self time per event)\n")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-24s %10.1f ns  %5.1f%%\n", r.name, r.ns, 100*ratio(r.ns, measured))
	}
	res := ratio(measured-total, measured)
	flag := ""
	if res > 0.10 || res < -0.10 {
		flag = "  <-- residual above 10%"
	}
	fmt.Fprintf(out, "  %-24s %10.1f ns\n  %-24s %10.1f ns  residual %.1f%%%s\n",
		"sum of layers", total, "measured lap", measured, 100*res, flag)
}
