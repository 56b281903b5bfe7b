package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"github.com/greta-cep/greta/internal/event"
)

// options are one run's settings. seed reaches only the generators.
type options struct {
	workload string
	seed     int64
	seconds  float64 // set-ups and laps together run for this long; at least minLaps laps
	trace    bool
	traceOut string
	scale    float64 // thins the event rate; 1 is the benchmark's size
	outDir   string  // scratch space: checkpoint directories, traces
	verbose  bool    // also print every lap
	out      io.Writer
}

// report is what a run found. Attempted counts the events offered and the
// result rows expected; Failed the calls that returned an error (drops and
// server error lines included) and the rows missing, extra, repeated or
// differing.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics // end-to-end without a trace, per-layer with one
	Counts    metrics // engine counts per event, the same in both modes
}

const (
	// setupReps is how often a run sets the system up: as many instances
	// of every segment of the set-up as setup_s has to choose from.
	setupReps = 20
	// warmLaps run before measuring: the first begins inside the timed
	// set-up (cold partitions, empty pools), the second reaches steady state.
	warmLaps = 2
	minLaps  = 3
	// minEnumWindows is the fewest windows per statement the brute-force
	// enumerator must have been compared on at full size.
	minEnumWindows = 16
	// countLaps bounds the laps the memory metrics look at: the first
	// countLaps measured ones. Sessions retain delivered results for their
	// lifetime and pools keep filling for a while, so a run that fits more
	// laps into its time would read a higher heap and fewer allocations per
	// event for that alone.
	countLaps = 8
)

// lapRec is what one lap measured.
type lapRec struct {
	traced       bool
	wall, cpu    float64 // ns
	mallocs      float64
	bytes        float64
	heap         float64 // bytes in use after quiesce and a forced collection
	gcs, gcPause float64 // collections inside the lap; their pause, ns
	scrapeNs     float64
	s0, s1       int // the lap's close latencies are collector.samples[s0:s1]
	// segs splits wall at the driver's cuts, the places where the loop is
	// closed; every lap cuts at the same events.
	segs  []float64
	spans [numSpanKinds]spanAgg
}

// runner holds one set-up instance of the workload being driven.
type runner struct {
	w    *workload
	plan *lapPlan
	env  *runEnv
	drv  driver
	fed  int // laps fed to this instance
	// evbuf holds the lap's events while it is fed (fresh ones only).
	evbuf []*event.Event
	// heapBase is the heap in use just before the instance was opened: the
	// harness's own (lap template, reference rows, collector, buffers).
	heapBase float64
}

// events makes the first n of lap k's events: fresh ones for an entry
// point that keeps what it is handed, the restamped template otherwise.
func (r *runner) events(k, n int) []*event.Event {
	if r.w.keeps {
		r.evbuf = r.plan.fresh(k, r.evbuf, n)
		return r.evbuf
	}
	return r.plan.stamp(k)
}

// setUp opens the workload and feeds the beginning of the first lap (see
// coldEvents). It returns the time spent inside program calls (the lap's
// events are made outside), cut like a lap's: the first segment is the
// open, the others the cold events between the driver's cuts.
func setUp(w *workload, plan *lapPlan, exp *expectation, outDir string) (*runner, []float64, error) {
	dir, err := scratchDir(outDir)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{w: w, plan: plan, env: &runEnv{plan: plan, col: newCollector(exp), dir: dir, cuts: make([]int64, 0, maxCuts)}}
	if w.keeps {
		r.evbuf = make([]*event.Event, len(plan.evs))
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapBase = float64(ms.HeapAlloc)
	cold := plan.coldEvents()
	evs := r.events(0, cold)
	t0 := now()
	if r.drv, err = w.open(w, r.env); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	r.env.cut()
	r.drv.feed(0, evs, 0, cold)
	r.env.col.wait(waitTimeout)
	return r, segments(t0, r.env.cuts, now()), nil
}

// firstLap feeds what set-up left of the first lap.
func (r *runner) firstLap() {
	evs := r.events(0, len(r.plan.evs))
	r.drv.feed(0, evs, r.plan.coldEvents(), len(evs))
	r.env.col.wait(waitTimeout)
	r.fed = 1
	clear(r.evbuf)
}

// segments splits the time from t0 to t1 at the cuts.
func segments(t0 int64, cuts []int64, t1 int64) []float64 {
	segs := make([]float64, 0, len(cuts)+1)
	for _, c := range append(cuts, t1) {
		segs = append(segs, float64(c-t0))
		t0 = c
	}
	return segs
}

// scratchDir makes a fresh directory under benchmark/out for one driver.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

func (r *runner) finish() (*finalStats, error) {
	fs, err := r.drv.finish()
	return fs, errors.Join(err, os.RemoveAll(r.env.dir))
}

// lap feeds one measured lap. Everything the harness does for itself —
// making the lap's events, reading counters, forcing the collection that
// the heap reading needs — happens outside the timed section. The
// allocation counters do take in the lap's events where they are fresh: an
// entry point that keeps the event it is handed costs its caller one
// allocated event a call.
func (r *runner) lap(tr *tracer) lapRec {
	k := r.fed
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	evs := r.events(k, len(r.plan.evs))
	col := r.env.col
	rec := lapRec{traced: tr != nil}
	firstSample := len(col.samples)
	r.env.tr = tr
	col.trace, col.lap = tr != nil, k
	deliver0 := col.deliver
	r.env.cuts = r.env.cuts[:0]

	c0, t0 := cpuNanos(), now()
	r.drv.feed(k, evs, 0, len(evs))
	col.wait(waitTimeout)
	t1, c1 := now(), cpuNanos()
	runtime.ReadMemStats(&m1)

	r.fed++
	r.env.tr = nil
	rec.wall, rec.cpu = float64(t1-t0), float64(c1-c0)
	rec.s0, rec.s1 = firstSample, len(col.samples)
	rec.segs = segments(t0, r.env.cuts, t1)
	rec.mallocs, rec.bytes = float64(m1.Mallocs-m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc)
	rec.gcs, rec.gcPause = float64(m1.NumGC-m0.NumGC), float64(m1.PauseTotalNs-m0.PauseTotalNs)
	if tr != nil {
		rec.spans = tr.take(k, spanAgg{n: col.deliver.n - deliver0.n, ns: col.deliver.ns - deliver0.ns})
		s0 := now()
		r.drv.scrape()
		rec.scrapeNs = float64(now() - s0)
	}
	clear(r.evbuf)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	rec.heap = float64(m1.HeapAlloc)
	return rec
}

// measured is what the set-ups and laps of one run produced.
type measured struct {
	setups   []lapRec // one per set-up, segs only
	laps     []lapRec
	fs       *finalStats
	col      *collector // of the instance that was measured
	failed   int        // failed operations, discarded set-ups included
	fedLaps  int        // laps fed to the measured instance, warm ones included
	heapBase float64    // of the measured instance, see runner
}

// measure sets the workload up setupReps times, keeps the last instance,
// feeds it the rest of the first lap and a warm one, and then measured laps
// until o.seconds have passed since the first set-up began: set-up is a
// measurement too.
func measure(o options, w *workload, plan *lapPlan, exp *expectation, tr *tracer) (*measured, error) {
	m := &measured{}
	start := now()
	var r *runner
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			if _, err := r.finish(); err != nil {
				return nil, err
			}
			m.failed += r.env.col.errs + r.env.col.bad
		}
		var segs []float64
		var err error
		if r, segs, err = setUp(w, plan, exp, o.outDir); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, lapRec{segs: segs})
	}
	r.firstLap()
	for r.fed < warmLaps {
		r.lap(nil)
	}
	m.col, m.heapBase = r.env.col, r.heapBase
	if tr != nil {
		m.col.kept = make([]span, 0, 1<<13)
	}
	for n := 0; n < minLaps || float64(now()-start) < o.seconds*1e9; n++ {
		// A traced run alternates plain and traced laps, so that the two
		// kinds saw the same machine.
		if tr != nil && n%2 == 1 {
			m.laps = append(m.laps, r.lap(tr))
		} else {
			m.laps = append(m.laps, r.lap(nil))
		}
	}
	m.fedLaps = r.fed
	var err error
	if m.fs, err = r.finish(); err != nil {
		return nil, err
	}
	m.failed += m.col.errs + m.col.bad
	return m, nil
}

// column extracts one field of every lap.
func column(ls []lapRec, f func(*lapRec) float64) []float64 {
	out := make([]float64, len(ls))
	for i := range ls {
		out[i] = f(&ls[i])
	}
	return out
}

func lapWall(l *lapRec) float64 { return l.wall }

// undisturbed is the time of a lap with each of its segments at the fastest
// that segment ran in any of the laps. Laps replay the same events and a
// segment is cut at the same events every time, so its instances differ by
// what the machine added: on a shared host, the stretches in which a
// neighbour slowed the processor down. They last from milliseconds to
// minutes, slow most whole laps of a run, and leave the median lap 25 %
// apart between runs where this sum is 10 % apart (README, "Undisturbed
// time").
func undisturbed(laps []lapRec) (float64, error) {
	total := 0.0
	for j := range laps[0].segs {
		best := math.Inf(1)
		for i := range laps {
			if len(laps[i].segs) != len(laps[0].segs) {
				return 0, fmt.Errorf("lap %d was cut into %d segments, lap 0 into %d", i, len(laps[i].segs), len(laps[0].segs))
			}
			best = min(best, laps[i].segs[j])
		}
		total += best
	}
	return total, nil
}

func run(o options) (*report, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	procs := procsUsed()
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)

	plan := buildLapPlan(w, o.seed, o.scale)
	exp, err := buildExpectation(plan, o.scale == 1)
	if err != nil {
		return nil, err
	}
	enumWindows, err := enumCheck(plan)
	if err != nil {
		return nil, err
	}
	if o.scale == 1 && enumWindows < minEnumWindows {
		return nil, fmt.Errorf("enumerator: only %d windows of some statement compared, want %d", enumWindows, minEnumWindows)
	}
	L := len(plan.evs)
	fmt.Fprintf(o.out, "env: %s nproc=%d cpu=%q commit=%s GOMAXPROCS=%d GOGC=100 workload=%s seed=%d L=%d closes/lap=%d trace=%v\n",
		runtime.Version(), runtime.NumCPU(), cpuModel(), commit(), procs, w.name, o.seed, L, plan.period, o.trace)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m, err := measure(o, w, plan, exp, tr)
	if err != nil {
		return nil, err
	}
	offered := m.fedLaps * L
	rep := &report{
		Attempted: offered + m.col.rows,
		Failed:    m.failed,
		Correct:   m.failed == 0,
		Counts:    engineCounts(m.fs, float64(offered), float64(m.col.windows), float64(m.col.rows)),
	}

	var plain, traced []lapRec
	for _, l := range m.laps {
		if l.traced {
			traced = append(traced, l)
		} else {
			plain = append(plain, l)
		}
	}
	// The memory metrics look at a fixed number of laps, see countLaps.
	counted := plain[:min(countLaps, len(plain))]
	// The time metrics read the laps segment by segment, see undisturbed.
	var closes []float64
	for _, l := range plain {
		closes = append(closes, m.col.samples[l.s0:l.s1]...)
	}
	walls := column(plain, lapWall)
	wall, err := undisturbed(plain)
	if err != nil {
		return nil, err
	}
	setup, err := undisturbed(m.setups)
	if err != nil {
		return nil, err
	}
	e2e := metrics{
		"setup_s":               setup / 1e9,
		"throughput_eps":        float64(L) / wall * 1e9,
		"cpu_ns_per_event":      wall * median(column(plain, func(l *lapRec) float64 { return l.cpu / l.wall })) / float64(L),
		"allocs_per_event":      sum(column(counted, func(l *lapRec) float64 { return l.mallocs })) / float64(len(counted)*L),
		"alloc_bytes_per_event": sum(column(counted, func(l *lapRec) float64 { return l.bytes })) / float64(len(counted)*L),
		"live_heap_mb":          (slices.Max(column(counted, func(l *lapRec) float64 { return l.heap })) - m.heapBase) / (1 << 20),
	}
	fmt.Fprintf(o.out, "laps: %d measured (%d traced) of %d events in %d segments, undisturbed %.1f ms, as run %.1f | %.1f | %.1f ms (quartiles); %d closes, latency p50 %.1f us p99 %.1f us; set-up x%d; enumerator checked >=%d windows per statement\n",
		len(m.laps), len(traced), L, len(plain[0].segs), wall/1e6, quantile(walls, 0.25)/1e6, median(walls)/1e6, quantile(walls, 0.75)/1e6,
		len(closes), quantile(closes, 0.5)/1e3, quantile(closes, 0.99)/1e3, setupReps, enumWindows)
	fmt.Fprintf(o.out, "attempted=%d (events %d + rows %d) failed=%d correct=%v\n", rep.Attempted, offered, m.col.rows, rep.Failed, rep.Correct)
	for _, note := range m.col.notes {
		fmt.Fprintln(o.out, note)
	}
	if o.verbose {
		for i, l := range m.laps {
			fmt.Fprintf(o.out, "lap %2d traced=%v wall %.1f ms cpu %.1f ms close-p50 %.1f us collections %.0f heap %.2f MB mallocs %.0f bytes %.0f\n",
				i, l.traced, l.wall/1e6, l.cpu/1e6, median(m.col.samples[l.s0:l.s1])/1e3, l.gcs, (l.heap-m.heapBase)/(1<<20), l.mallocs, l.bytes)
		}
	}
	if !o.trace {
		rep.Metrics = e2e
		printMetrics(o.out, endToEnd, e2e)
		printMetrics(o.out, nil, rep.Counts)
		return rep, nil
	}

	layer, agg, err := layerMetrics(w, plan, m, rep.Counts, tr, plain, traced, closes, wall)
	if err != nil {
		return nil, err
	}
	rep.Metrics = metrics{}
	for _, s := range perLayer {
		rep.Metrics[s.name] = layer[s.name] // a layer off this workload's path reads 0
	}
	fmt.Fprintf(o.out, "end to end, plain laps of this run (for context; the gated numbers come from a run without a trace):\n")
	printMetrics(o.out, endToEnd, e2e)
	fmt.Fprintf(o.out, "per layer:\n")
	printMetrics(o.out, perLayer, rep.Metrics)
	// The spans are sums over the traced laps as they ran; so is the time
	// they are set against.
	tracedPerEvent := sum(column(traced, lapWall)) / float64(len(traced)*L)
	rows, total := budget(agg, len(traced)*L)
	printBudget(o.out, rows, total, tracedPerEvent)
	if w.name == "cluster_2shard" {
		printGap(o.out, layer, wall/float64(L), ratio(float64(agg[spBarrierWait].ns), float64(len(traced)*L)))
	}
	if o.traceOut != "" {
		tr.kept = append(tr.kept, m.col.kept...)
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(o.out, "spans: %d written to %s\n", len(tr.kept), o.traceOut)
	}
	return rep, nil
}

// layerMetrics assembles the per-layer metrics of a traced run: spans of
// the traced laps, the drivers' and the engines' own counters, and layers
// replayed in isolation. It also returns the spans summed over the traced
// laps.
func layerMetrics(w *workload, plan *lapPlan, m *measured, counts metrics, tr *tracer, plain, traced []lapRec, closes []float64, wall float64) (metrics, [numSpanKinds]spanAgg, error) {
	L := len(plan.evs)
	out := metrics{}
	for k, v := range counts {
		out[k] = v
	}
	for k, v := range m.fs.layer {
		out[k] = v
	}
	var agg [numSpanKinds]spanAgg
	for _, l := range traced {
		for k := range l.spans {
			agg[k].n += l.spans[k].n
			agg[k].ns += l.spans[k].ns
			agg[k].rows += l.spans[k].rows
		}
	}
	mean := func(k spanKind) float64 { return ratio(float64(agg[k].ns), float64(agg[k].n)) }
	deliverPerClose := ratio(float64(agg[spDeliver].ns), float64(agg[spCloseEmit].n+agg[spBatchClose].n))
	out["core.process_ns_per_event"] = mean(spProcess)
	out["event.batch_append_ns_per_row"] = mean(spBatchAppend)
	out["netstream.send_ns_per_event"] = mean(spSend)
	out["cluster.process_ns_per_event"] = mean(spCoordinator)
	out["netstream.sync_rtt_us_p50"] = median(tr.syncs) / 1e3
	switch {
	case agg[spCloseEmit].n > 0:
		out["core.close_emit_us_per_window"] = (mean(spCloseEmit) - mean(spProcess) - deliverPerClose) / 1e3
	case agg[spBatchClose].n > 0:
		// A closing batch costs what its rows cost in a batch that closes
		// nothing, plus the close and the emit.
		perRow := ratio(float64(agg[spBatch].ns), float64(agg[spBatch].rows))
		out["core.batch_ns_per_row"] = ratio(float64(agg[spBatch].ns+agg[spBatchClose].ns-agg[spDeliver].ns), float64(agg[spBatch].rows+agg[spBatchClose].rows))
		out["core.close_emit_us_per_window"] = ((float64(agg[spBatchClose].ns)-perRow*float64(agg[spBatchClose].rows))/float64(agg[spBatchClose].n) - deliverPerClose) / 1e3
	}
	out["checkpoint.writes_per_lap"] = ratio(out["checkpoint.writes"], float64(m.fedLaps))
	out["greta.result_latency_p50_us"] = quantile(closes, 0.5) / 1e3
	out["greta.result_latency_p99_us"] = quantile(closes, 0.99) / 1e3
	out["greta.result_latency_samples"] = float64(len(closes))
	out["obs.scrape_us"] = median(column(traced, func(l *lapRec) float64 { return l.scrapeNs })) / 1e3
	out["goruntime.gc_cycles_per_lap"] = ratio(sum(column(plain, func(l *lapRec) float64 { return l.gcs })), float64(len(plain)))
	out["goruntime.gc_pause_ms_per_lap"] = ratio(sum(column(plain, func(l *lapRec) float64 { return l.gcPause })), float64(len(plain))) / 1e6
	tracedWall, err := undisturbed(traced)
	if err != nil {
		return nil, agg, err
	}
	out["trace.overhead_share"] = tracedWall/wall - 1
	_, total := budget(agg, len(traced)*L)
	asRun := sum(column(traced, lapWall)) / float64(len(traced)*L)
	out["trace.budget_residual_share"] = math.Abs(ratio(asRun-total, asRun))
	iso, err := isolatedLayers(w, plan, wall/float64(L))
	if err != nil {
		return nil, agg, err
	}
	for k, v := range iso {
		out[k] = v
	}
	return out, agg, nil
}

// engineCounts turns the engines' exact counters into per-event ratios.
// They are counts, not timings: a change that moves one changed the
// algorithm, not its constant. Statements served by one shared graph
// report that graph's counters each; the graph is counted once.
func engineCounts(fs *finalStats, events, windows, rows float64) metrics {
	var edges, visits, folds, rebuilds, skips, seen, parts, peak float64
	for _, s := range fs.stmts {
		share := 1.0
		if s.SharedStatements > 1 {
			share = 1 / float64(s.SharedStatements)
		}
		edges += share * float64(s.Edges)
		visits += share * float64(s.ScanVisits)
		folds += share * float64(s.SummaryFolds)
		rebuilds += share * float64(s.SummaryRebuilds)
		skips += share * float64(s.PrefilterSkips)
		seen += share * float64(s.Events)
		parts += share * float64(s.Partitions)
		peak += share * float64(s.PeakVertices)
	}
	return metrics{
		"core.edges_per_event":             ratio(edges, events),
		"core.scan_visits_per_event":       ratio(visits, events),
		"core.summary_folds_per_event":     ratio(folds, events),
		"core.summary_rebuilds_per_kevent": ratio(rebuilds, events) * 1e3,
		"core.fold_share":                  ratio(folds, folds+visits),
		"core.prefilter_skip_share":        ratio(skips, seen),
		"core.partitions":                  parts,
		"core.peak_vertices":               peak,
		"share.statements_per_graph":       ratio(float64(len(fs.stmts)), float64(fs.graphs)),
		"greta.results_per_window":         ratio(rows, windows),
	}
}

func printMetrics(out io.Writer, order []metricSpec, m metrics) {
	if order == nil {
		for _, s := range perLayer {
			if _, ok := m[s.name]; ok {
				order = append(order, s)
			}
		}
	}
	for _, s := range order {
		fmt.Fprintf(out, "  %-38s %16.4f %s\n", s.name, m[s.name], s.unit)
	}
}

// printGap lays the cluster's cost per event beside the same statement's
// cost closer and closer to the bare engine.
func printGap(out io.Writer, m metrics, measured, waitNs float64) {
	fmt.Fprintf(out, "cluster gap (ns per event, single-threaded baselines first)\n")
	for _, row := range []struct {
		name string
		ns   float64
	}{
		{"in-process Runtime.Process", m["core.inproc_ns_per_event"]},
		{"shard apply (2 ShardHosts)", m["core.shard_apply_ns_per_event"]},
		{"frame encode", m["cluster.frame_encode_ns_per_event"]},
		{"coordinator call", m["cluster.process_ns_per_event"]},
		{"barrier wait at closes", waitNs},
		{"measured lap", measured},
	} {
		fmt.Fprintf(out, "  %-28s %10.1f ns\n", row.name, row.ns)
	}
	fmt.Fprintf(out, "  %-28s %10.2f x\n", "wire tax (measured/in-process)", m["cluster.wire_tax_ratio"])
}

func procsUsed() int { return min(runtime.NumCPU(), 2) }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, " \t:"))
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git, when there is one (the
// driver's checkout has none).
func commit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			b, err := os.ReadFile(filepath.Join(root, ".git", ref))
			if err != nil {
				return ref
			}
			h = strings.TrimSpace(string(b))
		}
		return h[:min(12, len(h))]
	}
	return "unknown"
}
