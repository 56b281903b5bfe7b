// Command gretacluster runs the multi-process GRETA cluster: shard
// processes host worker slots behind netstream servers, and one
// coordinator process routes a workload across them, drives the
// per-statement window barriers, and merges the shards' partial
// windows into final aggregates — bit-identical to a single-process
// RunParallel run with the same worker count.
//
// Start shards, then point a coordinator at them:
//
//	gretacluster shard -listen 127.0.0.1:7101 &
//	gretacluster shard -listen 127.0.0.1:7102 &
//	gretacluster coord -shards 127.0.0.1:7101,127.0.0.1:7102 \
//	    -query 'RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E)
//	            WHERE [job, mapper] AND M.load < NEXT(M).load
//	            GROUP-BY mapper WITHIN 60 seconds SLIDE 30 seconds' \
//	    -workload cluster -events 100000
//
// Shards are stateless to configure: every statement, route table, and
// watermark arrives from the coordinator over the wire. A shard serves
// until SIGINT/SIGTERM, then drains its sessions and exits.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
)

type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }
func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "shard":
		runShard(os.Args[2:])
	case "coord":
		runCoord(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gretacluster shard -listen ADDR
  gretacluster coord -shards ADDR[,ADDR...] -query '...' [-query '...'] [flags]`)
}

func runShard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to serve shard sessions on")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// The coordinator scrapes this line when it spawns shards itself
	// (see examples/cluster); humans read it too.
	fmt.Printf("shard listening on %s\n", ln.Addr())

	srv := cluster.ServeShard()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		if err := srv.Shutdown(context.Background()); err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
}

func runCoord(args []string) {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	var queries queryList
	fs.Var(&queries, "query", "GRETA query text (repeatable)")
	shards := fs.String("shards", "", "comma-separated shard addresses")
	workload := fs.String("workload", "cluster", "generate events: stock|linearroad|cluster")
	events := fs.Int("events", 100000, "number of generated events")
	exact := fs.Bool("exact", false, "use exact (math/big) aggregate arithmetic")
	statsFlag := fs.Bool("stats", false, "print per-statement statistics")
	metricsAddr := fs.String("metrics", "", "serve the coordinator's /metrics, /metrics.json and /debug/pprof/ on this address (\":0\" picks a free port, echoed on stderr)")
	traceFlag := fs.Bool("trace", false, "print lifecycle trace events (barriers, shard membership) to stderr")
	linger := fs.Duration("linger", 0, "hold the cluster open this long after the last event before closing (metrics stay live for scraping)")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *shards == "" || len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "coord requires -shards and at least one -query")
		os.Exit(2)
	}
	var evs []*greta.Event
	switch *workload {
	case "stock":
		evs = greta.StockStream(greta.DefaultStock(*events))
	case "linearroad":
		evs = greta.LinearRoadStream(greta.DefaultLinearRoad(*events))
	case "cluster":
		evs = greta.ClusterStream(greta.DefaultCluster(*events))
	default:
		fmt.Fprintln(os.Stderr, "unknown -workload (want stock|linearroad|cluster)")
		os.Exit(2)
	}

	cfg := cluster.Config{
		Shards:      strings.Split(*shards, ","),
		MetricsAddr: *metricsAddr,
	}
	if *traceFlag {
		cfg.TraceHook = func(te greta.TraceEvent) {
			fmt.Fprintf(os.Stderr, "trace: %s stmt=%s shard=%d boundary=%d watermark=%d dur=%s\n",
				te.Kind, te.Stmt, te.Shard, te.Boundary, te.Watermark, te.Dur)
		}
	}
	co, err := cluster.Connect(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	if *metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", co.MetricsAddr())
	}
	handles := make([]*greta.Handle, 0, len(queries))
	for _, src := range queries {
		var opts []greta.RegisterOption
		if *exact {
			opts = append(opts, cluster.WithExactArithmetic())
		}
		h, err := co.Register(src, opts...)
		if err != nil {
			fatal(err)
		}
		handles = append(handles, h)
	}

	dropped := 0
	for _, ev := range evs {
		if err := co.Process(ev); err != nil {
			if errors.Is(err, greta.ErrOutOfOrder) {
				dropped++
				continue
			}
			fatal(err)
		}
	}
	if *linger > 0 {
		// Pre-close: slot ack lag, barrier RTTs, and the watermarks stay
		// live on the metrics endpoint while we linger.
		fmt.Fprintf(os.Stderr, "lingering %s before close\n", *linger)
		time.Sleep(*linger)
	}
	if err := co.Close(); err != nil {
		fatal(err)
	}
	for _, w := range co.Warnings() {
		fmt.Fprintln(os.Stderr, "warn:", w)
	}

	fmt.Printf("events: %d  shards: %d  slots: %d\n", len(evs), co.Shards(), co.Slots())
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "%d out-of-order drops\n", dropped)
	}
	for _, h := range handles {
		tag := ""
		if len(handles) > 1 {
			tag = fmt.Sprintf("[%s] ", h.ID())
		}
		fmt.Printf("\n%s%-20s%-10s%-14s%s\n", tag, "group", "window", "interval", "aggregates")
		rs := h.Delivered()
		slices.SortFunc(rs, func(a, b greta.Result) int {
			return cmp.Or(strings.Compare(a.Group, b.Group), cmp.Compare(a.Wid, b.Wid))
		})
		for _, r := range rs {
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
			fmt.Printf("\nevents=%d inserted=%d edges=%d partitions=%d results=%d\n",
				st.Events, st.Inserted, st.Edges, st.Partitions, st.Results)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
