package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/cluster"
	"github.com/greta-cep/greta/internal/obs"
)

// TestClusterMetrics runs the differential workload on a live 2-shard
// cluster with the metrics endpoint armed and a trace hook installed,
// scraping /metrics mid-run: the barrier-RTT, slot-ack-lag and frame
// accounting series must be present and the end-of-run snapshot must
// agree with the feed.
func TestClusterMetrics(t *testing.T) {
	addrs := startShards(t, 2)

	var mu sync.Mutex
	traced := map[greta.TraceKind]int{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	co, err := cluster.Connect(ctx, cluster.Config{
		Shards:      addrs,
		MetricsAddr: "127.0.0.1:0",
		TraceHook: func(te greta.TraceEvent) {
			mu.Lock()
			traced[te.Kind]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range diffQueries {
		if _, err := co.Register(q); err != nil {
			t.Fatal(err)
		}
	}

	// Slow the generator down so the stream spans ~40s of event time and
	// crosses several slide boundaries — barriers only fan out when
	// windows close.
	cfg := greta.DefaultCluster(12000)
	cfg.Rate = 300
	events := greta.ClusterStream(cfg)
	half := len(events) / 2
	for _, ev := range events[:half] {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}

	// Mid-run scrape: the cluster is live, watermarks and ack frontiers
	// are moving.
	addr := co.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with Config.MetricsAddr armed")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("mid-run exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"greta_cluster_events_total",
		"greta_cluster_frames_total",
		"greta_cluster_frame_bytes_total",
		"greta_cluster_barriers_total",
		"greta_cluster_barrier_rtt_seconds",
		"greta_cluster_frame_encode_seconds",
		"greta_cluster_watermark",
		"greta_cluster_low_watermark",
		"greta_cluster_shards",
		"greta_cluster_slots",
		`greta_cluster_slot_ack_lag{slot="0"}`,
		`greta_cluster_slot_ack_lag{slot="1"}`,
	} {
		if !obs.HasSeries(series, name) {
			t.Errorf("mid-run /metrics missing %s", name)
		}
	}
	if got := series["greta_cluster_events_total"]; got != float64(half) {
		t.Errorf("greta_cluster_events_total = %v mid-run, want %v", got, half)
	}
	if series["greta_cluster_shards"] != 2 {
		t.Errorf("greta_cluster_shards = %v, want 2", series["greta_cluster_shards"])
	}

	for _, ev := range events[half:] {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Barrier acks are credited by the link readers asynchronously;
	// poll until the round trips land.
	var m cluster.Metrics
	for deadline := time.Now().Add(10 * time.Second); ; {
		m = co.Metrics()
		if m.BarrierRTTCount > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Events != uint64(len(events)) {
		t.Errorf("Metrics().Events = %d, want %d", m.Events, len(events))
	}
	if m.Shards != 2 || m.Slots != 2 {
		t.Errorf("Shards/Slots = %d/%d, want 2/2", m.Shards, m.Slots)
	}
	if m.Barriers == 0 {
		t.Error("no barriers counted over the differential workload")
	}
	if m.BarrierRTTCount == 0 || m.BarrierRTTMax <= 0 {
		t.Errorf("barrier RTT never observed: count=%d max=%s", m.BarrierRTTCount, m.BarrierRTTMax)
	}
	if m.Frames == 0 || m.FrameBytes == 0 {
		t.Errorf("frame accounting dead: frames=%d bytes=%d", m.Frames, m.FrameBytes)
	}
	if len(m.SlotAckLag) != 2 {
		t.Errorf("SlotAckLag has %d slots, want 2", len(m.SlotAckLag))
	}
	if m.LowWatermark > m.Watermark {
		t.Errorf("LowWatermark %d > Watermark %d", m.LowWatermark, m.Watermark)
	}
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if traced[greta.TraceBarrierEmit] == 0 {
		t.Error("TraceBarrierEmit never fired")
	}
	if traced[greta.TraceShardAdd] != 2 {
		t.Errorf("TraceShardAdd fired %d times, want 2", traced[greta.TraceShardAdd])
	}
}

// TestCoordinatorMetricsHandler mounts the embeddable surface on a
// caller-owned server: it serves the series the coordinator's snapshot
// reports.
func TestCoordinatorMetricsHandler(t *testing.T) {
	addrs := startShards(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	co, err := cluster.Connect(ctx, cluster.Config{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, err := co.Register(diffQueries[1]); err != nil {
		t.Fatal(err)
	}
	events := greta.ClusterStream(greta.DefaultCluster(2000))
	for _, ev := range events {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(co.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	m := co.Metrics()
	for name, want := range map[string]float64{
		"greta_cluster_events_total": float64(len(events)),
		"greta_cluster_watermark":    float64(m.Watermark),
		"greta_cluster_shards":       2,
		"greta_cluster_slots":        2,
	} {
		if v, ok := series[name]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

// TestClusterMetricsScrapeRace hammers the snapshot and HTTP surfaces
// while the coordinator is feeding — run under -race in CI.
func TestClusterMetricsScrapeRace(t *testing.T) {
	addrs := startShards(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	co, err := cluster.Connect(ctx, cluster.Config{Shards: addrs, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Register(diffQueries[1]); err != nil {
		t.Fatal(err)
	}
	addr := co.MetricsAddr()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := co.Metrics()
			if m.LowWatermark > m.Watermark {
				t.Errorf("torn snapshot: low %d > wm %d", m.LowWatermark, m.Watermark)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				return
			}
			if _, err := obs.ParseProm(resp.Body); err != nil {
				t.Errorf("scrape during run does not parse: %v", err)
			}
			resp.Body.Close()
		}
	}()
	for _, ev := range greta.ClusterStream(greta.DefaultCluster(4000)) {
		if err := co.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := co.Close(); err != nil {
		t.Fatal(err)
	}
}
