package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCellsBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(-7)
	g.Add(10)
	if got := g.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
	g.SetMax(2)
	if got := g.Load(); got != 3 {
		t.Fatalf("SetMax lowered gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)  // bucket 0 (<=50µs)
	h.Observe(700 * time.Microsecond) // <=1ms
	h.Observe(3 * time.Second)        // +Inf
	h.Observe(-time.Second)           // clamped to 0, bucket 0
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	wantSum := 10*time.Microsecond + 700*time.Microsecond + 3*time.Second
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	if got := h.Max(); got != 3*time.Second {
		t.Fatalf("max = %v, want %v", got, 3*time.Second)
	}
	if got := h.buckets[0].Load(); got != 2 {
		t.Fatalf("bucket[0] = %d, want 2", got)
	}
	if got := h.buckets[NumBuckets-1].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
}

func TestRegistryRenderAndParse(t *testing.T) {
	r := NewRegistry()
	ev := r.Counter("greta_events_total", "events offered", "")
	ev.Add(1234)
	wm := r.Gauge("greta_watermark", "current watermark", "")
	wm.Set(99)
	ck := r.Histogram("greta_checkpoint_write_seconds", "checkpoint write latency", "")
	ck.Observe(2 * time.Millisecond)
	ck.Observe(80 * time.Millisecond)
	perStmt := r.Counter("greta_stmt_events_total", "per-statement events", `stmt="q1"`)
	perStmt.Add(7)
	r.Collect(func(e Emitter) {
		e.Emit("greta_watermark_lag", "event-time lag", KindGauge, "", 5)
		e.Emit("greta_slot_ack_lag", "per-slot ack lag", KindGauge, `slot="0"`, 3)
		e.Emit("greta_slot_ack_lag", "per-slot ack lag", KindGauge, `slot="1"`, 11)
	})

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	parsed, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm on own output: %v\n%s", err, text)
	}
	checks := map[string]float64{
		"greta_events_total":                   1234,
		"greta_watermark":                      99,
		`greta_stmt_events_total{stmt="q1"}`:   7,
		"greta_watermark_lag":                  5,
		`greta_slot_ack_lag{slot="0"}`:         3,
		`greta_slot_ack_lag{slot="1"}`:         11,
		"greta_checkpoint_write_seconds_count": 2,
	}
	for name, want := range checks {
		got, ok := parsed[name]
		if !ok {
			t.Fatalf("series %q missing from exposition:\n%s", name, text)
		}
		if got != want {
			t.Fatalf("series %q = %g, want %g", name, got, want)
		}
	}
	// Histogram buckets cumulative: the +Inf bucket equals _count.
	inf, ok := parsed[`greta_checkpoint_write_seconds_bucket{le="+Inf"}`]
	if !ok || inf != 2 {
		t.Fatalf("+Inf bucket = %g, want 2 (present=%v)", inf, ok)
	}
	lo := parsed[`greta_checkpoint_write_seconds_bucket{le="0.0025"}`]
	if lo != 1 {
		t.Fatalf("le=0.0025 bucket = %g, want 1", lo)
	}
	sum := parsed["greta_checkpoint_write_seconds_sum"]
	if want := (82 * time.Millisecond).Seconds(); sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	if !HasSeries(parsed, "greta_checkpoint_write_seconds") {
		t.Fatal("HasSeries should find histogram family")
	}
	if !HasSeries(parsed, "greta_slot_ack_lag") {
		t.Fatal("HasSeries should find labelled family")
	}
	if HasSeries(parsed, "greta_nonexistent") {
		t.Fatal("HasSeries found a ghost")
	}

	// TYPE lines present and correct.
	for _, want := range []string{
		"# TYPE greta_events_total counter",
		"# TYPE greta_watermark gauge",
		"# TYPE greta_checkpoint_write_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"greta_events_total",       // no value
		"greta_events_total abc",   // bad value
		`{x="y"} 3`,                // no name
		"a 1\na 2\n",               // duplicate series
		"# TYPE x notakind\nx 1\n", // unknown type
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted malformed input %q", bad)
		}
	}
}

func TestJSONViewStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b", "").Add(2)
	r.Counter("a_total", "a", "").Add(1)
	var first string
	for i := 0; i < 3; i++ {
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			if !strings.Contains(first, `"a_total": 1`) || !strings.Contains(first, `"b_total": 2`) {
				t.Fatalf("JSON view missing series: %s", first)
			}
			// Keys sorted.
			if strings.Index(first, "a_total") > strings.Index(first, "b_total") {
				t.Fatalf("JSON keys not sorted: %s", first)
			}
			continue
		}
		if b.String() != first {
			t.Fatalf("JSON view unstable:\n%s\nvs\n%s", first, b.String())
		}
	}
}

func TestConcurrentCells(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", "")
	h := r.Histogram("h_seconds", "h", "")
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(time.Duration(i%5) * time.Millisecond)
			}
		}()
	}
	// Concurrent scrapes while incrementing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WriteProm(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseProm(strings.NewReader(b.String())); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
}
