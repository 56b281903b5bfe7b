// Command gretacli runs one or more GRETA queries over a generated
// workload or a CSV event file and prints the per-group, per-window
// aggregates. Multiple -query flags share one Runtime: the stream is
// ingested once and fanned out to every statement.
//
// Usage:
//
//	gretacli -query 'RETURN COUNT(*) PATTERN Stock S+ WHERE [company] AND S.price > NEXT(S).price' \
//	         -query 'RETURN SUM(S.price) PATTERN Stock S+ WHERE [company]' \
//	         -workload stock -events 10000
//
//	gretacli -query '...' -csv events.csv
//
// CSV format: type,time,attr=value,...,name=string,... — numeric values
// become numeric attributes, everything else string attributes.
//
// Durability: -checkpoint-dir DIR -checkpoint-every N writes a
// watermark-aligned checkpoint into DIR at every multiple of N in
// event time. After a crash, -restore -checkpoint-dir DIR rebuilds the
// statements from the newest valid checkpoint and replays only the
// events at or past its watermark — the output matches the
// uninterrupted run:
//
//	gretacli -query '...' -workload stock -checkpoint-dir /tmp/ck -checkpoint-every 100
//	gretacli -restore -checkpoint-dir /tmp/ck -workload stock
//
// Disorder: -slack N buffers events up to N time units behind the
// stream maximum and releases them in order; later events are dropped
// with a diagnostic on stderr (event time vs the violated watermark).
//
// Observability: -metrics ADDR serves /metrics (Prometheus text),
// /metrics.json, and /debug/pprof/ for the run's
// lifetime (the bound address is echoed on stderr; ":0" picks a free
// port). -stats-interval D prints a one-line metrics summary to
// stderr every D. -linger D holds the stream open that long after the
// last event — watermark, lag, and checkpoint gauges stay live for
// scraping — before the final flush.
package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/greta-cep/greta"
)

// queryList collects repeated -query flags.
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }
func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

func main() {
	var queries queryList
	flag.Var(&queries, "query", "GRETA query text (repeatable; all queries share one ingest)")
	workload := flag.String("workload", "", "generate events: stock|linearroad|cluster")
	events := flag.Int("events", 10000, "number of generated events")
	csvPath := flag.String("csv", "", "read events from a CSV file instead")
	exact := flag.Bool("exact", false, "use exact (math/big) aggregate arithmetic")
	workers := flag.Int("workers", 1, "parallel partition workers")
	statsFlag := flag.Bool("stats", false, "print runtime statistics")
	haltProb := flag.Float64("haltprob", 0, "stock workload: per-event trading-halt probability (drives negation queries)")
	dotFlag := flag.Bool("dot", false, "print the GRETA graph in Graphviz DOT format (small streams, single query)")
	ckDir := flag.String("checkpoint-dir", "", "write watermark-aligned checkpoints into this directory (sequential runs only)")
	ckEvery := flag.Int64("checkpoint-every", 0, "checkpoint boundary interval in event-time units (required with -checkpoint-dir)")
	restoreFlag := flag.Bool("restore", false, "rebuild the runtime from -checkpoint-dir instead of -query flags, replaying only events at or past the checkpoint watermark")
	slack := flag.Int64("slack", 0, "tolerate out-of-order events up to this many time units behind the stream maximum (reorder buffer)")
	batch := flag.Int("batch", 1, "columnar ingest: feed events in batches of up to this many rows (sequential runs only; results are identical)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /metrics.json and /debug/pprof/ on this address (\":0\" picks a free port, echoed on stderr)")
	statsInterval := flag.Duration("stats-interval", 0, "print a one-line metrics summary to stderr at this interval")
	linger := flag.Duration("linger", 0, "hold the stream open this long after the last event before flushing (metrics stay live for scraping)")
	flag.Parse()

	if *restoreFlag {
		if *ckDir == "" {
			fmt.Fprintln(os.Stderr, "-restore requires -checkpoint-dir")
			os.Exit(2)
		}
		if len(queries) > 0 || *dotFlag {
			fmt.Fprintln(os.Stderr, "-restore replays the checkpointed statements; drop -query/-dot")
			os.Exit(2)
		}
	} else if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "missing -query")
		flag.Usage()
		os.Exit(2)
	}
	if *ckDir != "" && !*restoreFlag && *ckEvery <= 0 {
		fmt.Fprintln(os.Stderr, "-checkpoint-dir requires a positive -checkpoint-every")
		os.Exit(2)
	}
	if *ckDir != "" && *workers > 1 {
		// Checkpoints ride the sequential ingest path; RunParallel owns
		// the stream without boundary hooks.
		fmt.Fprintln(os.Stderr, "-checkpoint-dir requires -workers 1")
		os.Exit(2)
	}
	if *slack > 0 && *workers > 1 {
		fmt.Fprintln(os.Stderr, "-slack requires -workers 1")
		os.Exit(2)
	}
	if *slack > 0 && *restoreFlag {
		fmt.Fprintln(os.Stderr, "-restore recovers the slack recorded in the checkpoint; drop -slack")
		os.Exit(2)
	}
	if *batch > 1 && *workers > 1 {
		fmt.Fprintln(os.Stderr, "-batch requires -workers 1 (RunParallel owns the stream)")
		os.Exit(2)
	}
	var opts []greta.Option
	if *exact {
		opts = append(opts, greta.WithExactArithmetic())
	}

	var evs []*greta.Event
	var err error
	switch {
	case *csvPath != "":
		evs, err = readCSV(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *workload == "stock":
		cfg := greta.DefaultStock(*events)
		cfg.HaltProb = *haltProb
		evs = greta.StockStream(cfg)
	case *workload == "linearroad":
		evs = greta.LinearRoadStream(greta.DefaultLinearRoad(*events))
	case *workload == "cluster":
		evs = greta.ClusterStream(greta.DefaultCluster(*events))
	default:
		fmt.Fprintln(os.Stderr, "specify -workload stock|linearroad|cluster or -csv file")
		os.Exit(2)
	}

	if *dotFlag {
		if len(queries) != 1 {
			fmt.Fprintln(os.Stderr, "-dot supports a single -query")
			os.Exit(2)
		}
		stmt, err := greta.Compile(queries[0], opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rt := greta.NewRuntime()
		h, err := rt.Register(stmt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, ev := range evs {
			_ = rt.Process(ev) // late events are dropped, as in a normal run
		}
		fmt.Print(h.DOT())
		return
	}

	var rt *greta.Runtime
	var handles []*greta.Handle
	if *restoreFlag {
		ropts := []greta.RuntimeOption{
			greta.WithCheckpointErrors(func(err error) { fmt.Fprintln(os.Stderr, "checkpoint:", err) }),
		}
		if *metricsAddr != "" {
			ropts = append(ropts, greta.WithMetricsAddr(*metricsAddr))
		}
		res, err := greta.Restore(*ckDir, ropts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rt = res.Runtime
		handles = res.Handles
		// Replay only the suffix the checkpoint did not cover; the results
		// below match the uninterrupted run bit for bit.
		replay := make([]*greta.Event, 0, len(evs))
		for _, ev := range evs {
			if ev.Time >= res.ReplayFrom {
				replay = append(replay, ev)
			}
		}
		fmt.Printf("restored %d statement(s) from %s; replaying %d of %d events (time >= %d)\n",
			len(handles), *ckDir, len(replay), len(evs), res.ReplayFrom)
		evs = replay
	} else {
		var ropts []greta.RuntimeOption
		if *ckDir != "" {
			ropts = append(ropts,
				greta.WithCheckpoint(*ckDir, *ckEvery),
				greta.WithCheckpointErrors(func(err error) { fmt.Fprintln(os.Stderr, "checkpoint:", err) }))
		}
		if *slack > 0 {
			ropts = append(ropts, greta.WithReorderSlack(*slack))
		}
		if *metricsAddr != "" {
			ropts = append(ropts, greta.WithMetricsAddr(*metricsAddr))
		}
		rt = greta.NewRuntime(ropts...)
		handles = make([]*greta.Handle, 0, len(queries))
		for _, src := range queries {
			stmt, err := greta.Compile(src, opts...)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			h, err := rt.Register(stmt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			handles = append(handles, h)
		}
	}
	// Sharing topology is decided at registration; snapshot it before
	// the run closes the runtime.
	topo := rt.Stats()

	if *metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", rt.MetricsAddr())
	}
	if *statsInterval > 0 {
		stop := startStatsDump(rt, *statsInterval)
		defer close(stop)
	}
	// lingerNow holds the stream open (pre-flush) so live gauges —
	// watermark, lag, checkpoint age — can be scraped before Close
	// tears the statement set down.
	lingerNow := func() {
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "lingering %s before flush\n", *linger)
			time.Sleep(*linger)
		}
	}

	ctx := context.Background()
	if *workers > 1 {
		err = rt.RunParallel(ctx, greta.NewSliceStream(evs), *workers)
		lingerNow()
	} else if *batch > 1 {
		var dropped int
		dropped, err = feedBatched(rt, evs, *batch)
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "%d out-of-order drops\n", dropped)
		}
		if err == nil {
			lingerNow()
			err = rt.Close()
		}
	} else {
		// Feed event by event so out-of-order drops surface with their
		// diagnostics (event time vs the violated watermark or reorder
		// horizon) instead of vanishing inside Run.
		const maxWarns = 10
		dropped := 0
		for _, ev := range evs {
			perr := rt.Process(ev)
			if perr == nil {
				continue
			}
			var oe *greta.OrderError
			if errors.As(perr, &oe) {
				dropped++
				if dropped <= maxWarns {
					fmt.Fprintf(os.Stderr, "out-of-order drop: event %d time %d behind watermark %d\n",
						ev.ID, oe.EventTime, oe.Watermark)
				}
				continue
			}
			err = perr
			break
		}
		if dropped > maxWarns {
			fmt.Fprintf(os.Stderr, "... %d more out-of-order drops\n", dropped-maxWarns)
		}
		if err == nil {
			lingerNow()
			err = rt.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("events: %d\n", len(evs))
	if *statsFlag && topo.Statements > 1 {
		fmt.Printf("statements=%d routeGroups=%d sharedStatements=%d sharedGraphs=%d\n",
			topo.Statements, topo.RouteGroups, topo.SharedStatements, topo.SharedGraphs)
	}
	for _, h := range handles {
		tag := ""
		if len(handles) > 1 {
			tag = fmt.Sprintf("[%s] ", h.ID())
		}
		fmt.Printf("\n%squery: %s\n\n", tag, h.Query())
		fmt.Printf("%-20s%-10s%-14s%s\n", "group", "window", "interval", "aggregates")
		// Collect and sort by (group, window): batch output stays
		// deterministic and diffable across engine versions.
		var results []greta.Result
		for r := range h.Results() {
			results = append(results, r)
		}
		slices.SortFunc(results, func(a, b greta.Result) int {
			if c := cmp.Compare(a.Group, b.Group); c != 0 {
				return c
			}
			return cmp.Compare(a.Wid, b.Wid)
		})
		for _, r := range results {
			group := r.Group
			if group == "" {
				group = "(all)"
			}
			vals := make([]string, len(r.Values))
			for i, v := range r.Values {
				vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Printf("%-20s%-10d[%d,%d)      %s\n", group, r.Wid, r.WindowStart, r.WindowEnd, strings.Join(vals, ", "))
		}
		if *statsFlag {
			st := h.Stats()
			fmt.Printf("\nevents=%d inserted=%d edges=%d partitions=%d peakVertices=%d peakPayloads=%d results=%d shared=%d\n",
				st.Events, st.Inserted, st.Edges, st.Partitions, st.PeakVertices, st.PeakPayloads, st.Results, st.SharedStatements)
			// Edge-traversal cost split: per-vertex candidate visits vs O(1)
			// summary folds (each covering any number of edges) vs lazy
			// watermark-driven summary rebuilds.
			fmt.Printf("scanVisits=%d summaryFolds=%d summaryRebuilds=%d\n",
				st.ScanVisits, st.SummaryFolds, st.SummaryRebuilds)
		}
	}
}

// startStatsDump prints a one-line metrics summary to stderr every
// interval until the returned channel is closed: cumulative events and
// the instantaneous rate, drops, watermark and lag, the fold/scan
// split, and checkpoint age.
func startStatsDump(rt *greta.Runtime, interval time.Duration) chan struct{} {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastEvents uint64
		lastT := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			m := rt.Metrics()
			now := time.Now()
			rate := float64(m.Events-lastEvents) / now.Sub(lastT).Seconds()
			lastEvents, lastT = m.Events, now
			var folds, scans uint64
			for i := range m.Statements {
				folds += m.Statements[i].Stats.SummaryFolds
				scans += m.Statements[i].Stats.ScanVisits
			}
			line := fmt.Sprintf("stats: events=%d (%.0f/s) dropped=%d watermark=%d lag=%d folds=%d scans=%d",
				m.Events, rate, m.Dropped, m.Watermark, m.WatermarkLag, folds, scans)
			if m.Checkpoint.Armed {
				line += fmt.Sprintf(" ckwrites=%d ckage=%s", m.Checkpoint.Writes, m.Checkpoint.Age.Truncate(time.Millisecond))
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}()
	return stop
}

// feedBatched feeds evs through Runtime.ProcessBatch in columnar
// blocks of up to n consecutive same-type events, returning the number
// of out-of-order drops. Events the dense representation cannot hold
// (NaN values, empty strings) fall back to the per-event path; results
// are identical to a per-event feed either way. Each flush hands the
// batch's rows to the runtime, so a fresh batch is allocated per block
// (graphs retain pointers into it while windows stay open).
func feedBatched(rt *greta.Runtime, evs []*greta.Event, n int) (int, error) {
	// One schema per type, with sorted attribute names collected over the
	// whole stream, so every batch of a type binds to one schema.
	type attrSets struct{ num, str map[string]bool }
	sets := map[greta.Type]*attrSets{}
	for _, ev := range evs {
		s := sets[ev.Type]
		if s == nil {
			s = &attrSets{num: map[string]bool{}, str: map[string]bool{}}
			sets[ev.Type] = s
		}
		for a := range ev.Attrs {
			s.num[a] = true
		}
		for a := range ev.Str {
			s.str[a] = true
		}
	}
	schemas := make(map[greta.Type]*greta.Schema, len(sets))
	for typ, s := range sets {
		sch := &greta.Schema{Type: typ}
		for a := range s.num {
			sch.Numeric = append(sch.Numeric, a)
		}
		for a := range s.str {
			sch.Strings = append(sch.Strings, a)
		}
		slices.Sort(sch.Numeric)
		slices.Sort(sch.Strings)
		schemas[typ] = sch
	}

	dropped := 0
	flush := func(b *greta.Batch) error {
		if b == nil || b.Len() == 0 {
			return nil
		}
		acc, err := rt.ProcessBatch(b)
		dropped += b.Len() - acc
		return err
	}
	var cur *greta.Batch
	for _, ev := range evs {
		if cur != nil && (cur.Type() != ev.Type || cur.Len() >= n) {
			if err := flush(cur); err != nil {
				return dropped, err
			}
			cur = nil
		}
		if cur == nil {
			cur = greta.NewBatch(schemas[ev.Type], n)
		}
		if err := cur.AppendEvent(ev); err != nil {
			// Unrepresentable row: flush the block so far and feed this
			// event through the per-event path.
			if err := flush(cur); err != nil {
				return dropped, err
			}
			cur = nil
			if perr := rt.Process(ev); perr != nil {
				if errors.Is(perr, greta.ErrOutOfOrder) {
					dropped++
					continue
				}
				return dropped, perr
			}
		}
	}
	return dropped, flush(cur)
}

// readCSV parses "type,time,key=value,..." lines.
func readCSV(path string) ([]*greta.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var evs []*greta.Event
	sc := bufio.NewScanner(f)
	line := 0
	var id uint64
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		parts := strings.Split(txt, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("%s:%d: need at least type,time", path, line)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad time %q", path, line, parts[1])
		}
		id++
		ev := &greta.Event{
			ID:    id,
			Type:  greta.Type(strings.TrimSpace(parts[0])),
			Time:  t,
			Attrs: map[string]float64{},
			Str:   map[string]string{},
		}
		for _, kv := range parts[2:] {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return nil, fmt.Errorf("%s:%d: bad attribute %q", path, line, kv)
			}
			k, v := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
			if fv, err := strconv.ParseFloat(v, 64); err == nil {
				ev.Attrs[k] = fv
			} else {
				ev.Str[k] = v
			}
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}
