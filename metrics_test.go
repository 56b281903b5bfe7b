package greta_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/obs"
)

// metricsShapes are the fastpath shapes the differential test drives:
// the snapshot must agree with the legacy Stats surfaces on every one.
var metricsShapes = []struct {
	name    string
	queries []string
	opts    func(t *testing.T) []greta.RuntimeOption
	batch   int // >1: feed through ProcessBatch blocks of this size
}{
	{
		name: "summary-fold",
		queries: []string{`RETURN sector, COUNT(*) PATTERN Stock S+
			WHERE [company, sector] AND S.price > NEXT(S).price
			GROUP-BY sector WITHIN 60 seconds SLIDE 20 seconds`},
	},
	{
		name: "negation",
		queries: []string{`RETURN company, COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H, Stock E)
			WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`},
	},
	{
		name: "shared-statements",
		queries: []string{
			`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`,
			`RETURN SUM(S.price) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`,
		},
	},
	{
		name:    "checkpointed",
		queries: []string{`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`},
		opts: func(t *testing.T) []greta.RuntimeOption {
			return []greta.RuntimeOption{greta.WithCheckpoint(t.TempDir(), 2)}
		},
	},
	{
		name:    "reorder-slack",
		queries: []string{`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`},
		opts: func(t *testing.T) []greta.RuntimeOption {
			return []greta.RuntimeOption{greta.WithReorderSlack(5)}
		},
	},
	{
		name:    "batch-ingest",
		queries: []string{`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`},
		batch:   64,
	},
}

// TestMetricsMatchesStats is the snapshot-consistency contract: at end
// of run (statements still registered), Runtime.Metrics() must equal
// the legacy Stats surfaces bit for bit — the snapshot is a view, not
// a second set of books.
func TestMetricsMatchesStats(t *testing.T) {
	cfg := greta.DefaultStock(4000)
	cfg.HaltProb = 0.02
	events := greta.StockStream(cfg)
	for _, shape := range metricsShapes {
		t.Run(shape.name, func(t *testing.T) {
			var opts []greta.RuntimeOption
			if shape.opts != nil {
				opts = shape.opts(t)
			}
			rt := greta.NewRuntime(opts...)
			handles := make([]*greta.Handle, 0, len(shape.queries))
			for _, q := range shape.queries {
				h, err := rt.Register(greta.MustCompile(q))
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			var fed uint64
			if shape.batch > 1 {
				feedStockBatches(t, rt, events, shape.batch)
				fed = uint64(len(events))
			} else {
				for _, ev := range events {
					if err := rt.Process(ev); err != nil {
						t.Fatal(err)
					}
					fed++
				}
			}
			if err := rt.Barrier(); err != nil {
				t.Fatal(err)
			}

			m := rt.Metrics()
			if m.Events != fed {
				t.Errorf("Events = %d, want %d", m.Events, fed)
			}
			if m.Watermark != rt.Watermark() {
				t.Errorf("Watermark = %d, Runtime.Watermark() = %d", m.Watermark, rt.Watermark())
			}
			if m.Runtime != rt.Stats() {
				t.Errorf("Runtime section %+v != Stats() %+v", m.Runtime, rt.Stats())
			}
			if len(m.Statements) != len(handles) {
				t.Fatalf("snapshot has %d statements, want %d", len(m.Statements), len(handles))
			}
			byID := map[string]greta.StatementMetrics{}
			for _, sm := range m.Statements {
				byID[sm.ID] = sm
			}
			for _, h := range handles {
				sm, ok := byID[h.ID()]
				if !ok {
					t.Fatalf("statement %q missing from snapshot", h.ID())
				}
				if !reflect.DeepEqual(sm.Stats, h.Stats()) {
					t.Errorf("statement %q: snapshot stats %+v != Handle.Stats() %+v", h.ID(), sm.Stats, h.Stats())
				}
			}
			if ck := m.Checkpoint; shape.name == "checkpointed" {
				if !ck.Armed || ck.Writes == 0 || ck.TotalBytes == 0 || ck.LastBoundary < 0 || ck.Age <= 0 {
					t.Errorf("checkpoint section not live: %+v", ck)
				}
			}
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			// Cell-backed counters survive Close; engine stats are torn down.
			after := rt.Metrics()
			if after.Events != fed || after.Statements != nil {
				t.Errorf("post-Close snapshot: events=%d statements=%v", after.Events, after.Statements)
			}
		})
	}
}

// feedStockBatches feeds the stock stream through ProcessBatch in
// same-type blocks of up to n rows.
func feedStockBatches(t *testing.T, rt *greta.Runtime, events []*greta.Event, n int) {
	t.Helper()
	schemas := map[greta.Type]*greta.Schema{
		"Stock": {Type: "Stock", Numeric: []string{"price"}, Strings: []string{"company", "sector"}},
		"Halt":  {Type: "Halt", Strings: []string{"company", "sector"}},
	}
	var cur *greta.Batch
	flush := func() {
		if cur == nil || cur.Len() == 0 {
			return
		}
		if _, err := rt.ProcessBatch(cur); err != nil {
			t.Fatal(err)
		}
		cur = nil
	}
	for _, ev := range events {
		if cur != nil && (cur.Type() != ev.Type || cur.Len() >= n) {
			flush()
		}
		if cur == nil {
			cur = greta.NewBatch(schemas[ev.Type], n)
		}
		if err := cur.AppendEvent(ev); err != nil {
			flush()
			if err := rt.Process(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
}

// TestMetricsEndpoint runs a checkpointed stream with the HTTP surface
// armed and asserts the Prometheus exposition parses and carries the
// key series with live values.
func TestMetricsEndpoint(t *testing.T) {
	rt := greta.NewRuntime(
		greta.WithMetricsAddr("127.0.0.1:0"),
		greta.WithCheckpoint(t.TempDir(), 2),
	)
	defer rt.Close()
	if _, err := rt.Register(greta.MustCompile(
		`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`)); err != nil {
		t.Fatal(err)
	}
	events := greta.StockStream(greta.DefaultStock(3000))
	for _, ev := range events {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}

	addr := rt.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with WithMetricsAddr armed")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	m := rt.Metrics()
	checks := map[string]float64{
		"greta_events_total":             float64(m.Events),
		"greta_watermark":                float64(m.Watermark),
		"greta_watermark_lag":            float64(m.WatermarkLag),
		"greta_checkpoint_writes_total":  float64(m.Checkpoint.Writes),
		"greta_stmt_summary_folds_total": -1, // presence only (advances between scrape and snapshot is impossible here, but keyed by label)
	}
	for name, want := range checks {
		if !obs.HasSeries(series, name) {
			t.Errorf("series %s missing from /metrics", name)
			continue
		}
		if v, ok := series[name]; ok && want >= 0 && v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if !obs.HasSeries(series, "greta_checkpoint_age_seconds") {
		t.Error("greta_checkpoint_age_seconds missing")
	}
	if series[`greta_stmt_events_total{stmt="q0"}`] != float64(m.Statements[0].Stats.Events) {
		t.Errorf("per-statement series disagrees with snapshot: %v vs %v",
			series[`greta_stmt_events_total{stmt="q0"}`], m.Statements[0].Stats.Events)
	}

	// The JSON view and pprof mounts serve on the same listener.
	for _, path := range []string{"/metrics.json", "/debug/pprof/cmdline"} {
		r2, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, r2.StatusCode)
		}
	}
}

// TestMetricsConcurrentScrape races the snapshot and HTTP surfaces
// against a RunParallel feed (run under -race in CI): scrapes during
// the run must not panic, deadlock, or tear.
func TestMetricsConcurrentScrape(t *testing.T) {
	rt := greta.NewRuntime(greta.WithMetricsAddr("127.0.0.1:0"))
	if _, err := rt.Register(greta.MustCompile(
		`RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E)
		 WHERE [job, mapper] AND M.load < NEXT(M).load GROUP-BY mapper
		 WITHIN 20 seconds SLIDE 10 seconds`)); err != nil {
		t.Fatal(err)
	}
	events := greta.ClusterStream(greta.DefaultCluster(20000))
	addr := rt.MetricsAddr()

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
			m := rt.Metrics()
			if m.MaxEventTime < m.Watermark {
				t.Errorf("torn snapshot: max %d < watermark %d", m.MaxEventTime, m.Watermark)
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
				return // listener closed by rt.Close at test end
			}
			if _, err := obs.ParseProm(resp.Body); err != nil {
				t.Errorf("scrape during run does not parse: %v", err)
			}
			resp.Body.Close()
		}
	}()

	if err := rt.RunParallel(t.Context(), greta.NewSliceStream(events), 4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if m := rt.Metrics(); m.Events != uint64(len(events)) {
		t.Errorf("Events = %d after RunParallel, want %d", m.Events, len(events))
	}
	_ = rt.Close()
}

// TestTraceHook asserts the runtime's lifecycle kinds fire in order
// with their payload fields populated.
func TestTraceHook(t *testing.T) {
	var mu sync.Mutex
	var seen []greta.TraceEvent
	rt := greta.NewRuntime(
		greta.WithCheckpoint(t.TempDir(), 2),
		greta.WithTraceHook(func(te greta.TraceEvent) {
			mu.Lock()
			seen = append(seen, te)
			mu.Unlock()
		}),
	)
	h, err := rt.Register(greta.MustCompile(
		`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 seconds SLIDE 20 seconds`))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range greta.StockStream(greta.DefaultStock(2000)) {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	_ = rt.Close()

	counts := map[greta.TraceKind]int{}
	for _, te := range seen {
		counts[te.Kind]++
		switch te.Kind {
		case greta.TraceStatementRegister, greta.TraceStatementClose:
			if te.Stmt != "q0" {
				t.Errorf("%v carries stmt %q, want q0", te.Kind, te.Stmt)
			}
		case greta.TraceCheckpointCommit:
			if te.Bytes <= 0 || te.Dur <= 0 {
				t.Errorf("checkpoint-commit without payload: %+v", te)
			}
			if te.Encode <= 0 || te.Encode > te.Dur {
				t.Errorf("checkpoint-commit encode %v, want 0 < encode <= dur %v", te.Encode, te.Dur)
			}
		}
	}
	if counts[greta.TraceStatementRegister] != 1 || counts[greta.TraceStatementClose] != 1 {
		t.Errorf("register/close fired %d/%d times, want 1/1",
			counts[greta.TraceStatementRegister], counts[greta.TraceStatementClose])
	}
	if counts[greta.TraceCheckpointBegin] == 0 || counts[greta.TraceCheckpointCommit] == 0 {
		t.Errorf("checkpoint trace never fired: %v", counts)
	}
	if counts[greta.TraceCheckpointBegin] != counts[greta.TraceCheckpointCommit]+counts[greta.TraceCheckpointFail] {
		t.Errorf("unbalanced checkpoint trace: %v", counts)
	}
}

// TestMetricsRestoredFrontier restores a slack-armed runtime with five
// events pending and reads its frontier before any new event: the
// snapshot, and the series MetricsHandler serves, carry the live
// runtime's maximum event time and lag — the restored reorder buffer's.
func TestMetricsRestoredFrontier(t *testing.T) {
	dir := t.TempDir()
	rt := greta.NewRuntime(greta.WithReorderSlack(5), greta.WithCheckpoint(dir, 1000))
	if _, err := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN Stock S+ WHERE [company] WITHIN 60 SLIDE 20`)); err != nil {
		t.Fatal(err)
	}
	b := &greta.Builder{}
	for tm := greta.Time(1); tm <= 40; tm++ {
		b.AddStr("Stock", tm, map[string]float64{"price": float64(100 - tm)}, map[string]string{"company": "c0"})
	}
	for _, ev := range b.Events() {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := rt.Metrics()
	if live.Watermark != 35 || live.MaxEventTime != 40 || live.WatermarkLag != 5 || live.ReorderPending != 5 {
		t.Fatalf("live watermark/max/lag/pending = %d/%d/%d/%d, want 35/40/5/5",
			live.Watermark, live.MaxEventTime, live.WatermarkLag, live.ReorderPending)
	}
	_ = rt.Close()

	res, err := greta.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	m := res.Metrics()
	if m.Watermark != live.Watermark || m.MaxEventTime != live.MaxEventTime ||
		m.WatermarkLag != live.WatermarkLag || m.ReorderPending != live.ReorderPending {
		t.Errorf("restored watermark/max/lag/pending = %d/%d/%d/%d, live %d/%d/%d/%d",
			m.Watermark, m.MaxEventTime, m.WatermarkLag, m.ReorderPending,
			live.Watermark, live.MaxEventTime, live.WatermarkLag, live.ReorderPending)
	}

	srv := httptest.NewServer(res.MetricsHandler())
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
	for name, want := range map[string]float64{
		"greta_watermark":       35,
		"greta_event_time_max":  40,
		"greta_watermark_lag":   5,
		"greta_reorder_pending": 5,
		"greta_reorder_slack":   5,
	} {
		if v, ok := series[name]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

// Compile-time check: the example in the README ("Observability")
// uses these exact symbols.
var _ = []any{
	greta.WithMetricsAddr, greta.WithTraceHook,
	(*greta.Runtime).Metrics, (*greta.Runtime).MetricsAddr, (*greta.Runtime).MetricsHandler,
	fmt.Sprintf, time.Since,
}
