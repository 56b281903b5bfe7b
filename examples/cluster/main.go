// Cluster: the paper's query Q2 — total CPU cycles per mapper over
// increasing load-distribution trends on a Hadoop cluster (paper §1) —
// run as a real multi-process cluster.
//
// The binary re-execs itself as shard processes: each child hosts one
// worker slot behind a netstream server, and the parent becomes the
// coordinator — it hashes every event's partition key once (the same
// FNV-1a route hash the single-process engine uses), forwards events
// to the owning shard as columnar batch frames, drives the per-window
// barrier schedule, and merges the shards' partial windows in slot
// order, so the aggregates are bit-identical to a single-process
// RunParallel run (paper §7, distributed).
//
// Halfway through the stream a third shard process joins cold
// (AddShard) and the first shard drains its slot onto it (Drain):
// a barrier, a snapshot, and a handoff later the stream continues on
// the rebalanced topology without disturbing a single window.
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"slices"
	"strings"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
)

const shardEnv = "GRETA_EXAMPLE_SHARD"

func main() {
	if os.Getenv(shardEnv) != "" {
		runShard()
		return
	}

	// Spawn two shard children; each prints its listen address.
	sh1 := spawnShard()
	sh2 := spawnShard()
	defer sh1.stop()
	defer sh2.stop()

	co, err := cluster.Connect(context.Background(), cluster.Config{
		Shards: []string{sh1.addr, sh2.addr},
	})
	if err != nil {
		log.Fatal(err)
	}

	q2, err := co.Register(`
		RETURN mapper, SUM(M.cpu)
		PATTERN SEQ(Start S, Measurement M+, End E)
		WHERE [job, mapper] AND M.load < NEXT(M).load
		GROUP-BY mapper
		WITHIN 60 seconds SLIDE 30 seconds`, greta.WithID("q2"))
	if err != nil {
		log.Fatal(err)
	}
	// A second statement rides the same ingest: measurement volume per
	// job, a sanity signal for the tuner.
	vol, err := co.Register(`
		RETURN job, COUNT(M)
		PATTERN Measurement M+
		WHERE [job]
		GROUP-BY job
		WITHIN 60 seconds SLIDE 30 seconds`, greta.WithID("volume"))
	if err != nil {
		log.Fatal(err)
	}

	events := greta.ClusterStream(greta.DefaultCluster(100000))
	for i, ev := range events {
		if i == len(events)/2 {
			// Rebalance mid-stream: a cold shard joins and shard 0 drains
			// its slot onto it. Results are unaffected — slots keep their
			// home indices through the handoff.
			sh3 := spawnShard()
			defer sh3.stop()
			idx, err := co.AddShard(context.Background(), sh3.addr)
			if err != nil {
				log.Fatal(err)
			}
			if err := co.Drain(0, idx); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rebalanced at event %d: shard 0 drained onto shard %d (%d shards, %d slots)\n",
				i, idx, co.Shards(), co.Slots())
		}
		if err := co.Process(ev); err != nil {
			log.Fatal(err)
		}
	}
	if err := co.Close(); err != nil {
		log.Fatal(err)
	}

	// Aggregate total CPU per mapper across windows for a compact report.
	perMapper := map[string]float64{}
	for r := range q2.Results() {
		perMapper[r.Group] += r.Values[0]
	}
	keys := make([]string, 0, len(perMapper))
	for k := range perMapper {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Println("total CPU cycles over increasing-load trends, per (job, mapper) group:")
	for _, k := range keys {
		fmt.Printf("  %-16s %14.0f\n", k, perMapper[k])
	}
	st := q2.Stats()
	fmt.Printf("\nprocessed %d events across %d shard processes; %d Q2 results, %d volume windows emitted\n",
		st.Events, co.Shards(), st.Results, len(vol.Delivered()))
}

// runShard is the child role: serve shard sessions on a kernel-picked
// port, announce it on stdout, and exit when the parent closes stdin.
func runShard() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ln.Addr())
	srv := cluster.ServeShard()
	go func() {
		// Parent exit closes our stdin: drain sessions and go.
		_, _ = io.Copy(io.Discard, os.Stdin)
		_ = srv.Shutdown(context.Background())
	}()
	// Serve returns an accept error once Shutdown closes the listener.
	_ = srv.Serve(ln)
}

// child is one spawned shard process and its announced address.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string
}

func spawnShard() *child {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), shardEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		log.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		log.Fatalf("shard failed to announce its address: %v", err)
	}
	return &child{cmd: cmd, stdin: stdin, addr: strings.TrimSpace(line)}
}

func (c *child) stop() {
	_ = c.stdin.Close()
	_ = c.cmd.Wait()
}
