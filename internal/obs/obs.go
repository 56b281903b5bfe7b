// Package obs is the zero-allocation metrics core shared by the
// runtime, netstream, and cluster layers.
//
// The design splits every metric into two halves:
//
//   - Hot-path cells — Counter, Gauge, Histogram — are padded atomic
//     words registered once, before the stream starts. An armed
//     increment is a single atomic add on a pre-existing cell: no
//     locks, no maps, no interface calls, no allocation. They are safe
//     to hit from the 0-alloc ingest path guarded by
//     TestNoHotPathAllocs.
//
//   - Scrape-time work — label rendering, family grouping, derived
//     gauges sampled from live structures under their owner's lock —
//     happens only inside WriteProm/WriteJSON, off the ingest path,
//     where allocation is fine.
//
// A Registry owns the declared metric families and renders them in
// Prometheus text exposition format and as JSON. Collectors let an
// owner publish values that live in existing structures (engine Stats, reorder depth, slot ack
// frontiers) without mirroring them into cells on the hot path.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing cell. The trailing pad keeps
// independently-updated cells on distinct cache lines so hot loops on
// different cores do not false-share.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a cell holding a signed instantaneous value.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is larger (monotone high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histBounds are the fixed latency bucket upper bounds. They span the
// observed range of the instrumented paths: barrier round trips and
// frame encodes (tens of µs to ms) up to checkpoint writes and
// handoffs (ms to seconds). Fixed at compile time so Observe is a
// branchless-ish scan plus two atomic adds — no allocation ever.
var histBounds = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
}

// NumBuckets is the number of histogram buckets including +Inf.
const NumBuckets = len(histBounds) + 1

// Histogram is a fixed-bucket latency histogram. Buckets are
// non-cumulative internally and summed at render time.
type Histogram struct {
	buckets  [NumBuckets]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64
	maxNanos Gauge
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(uint64(d))
	h.maxNanos.SetMax(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// Max returns the largest observation seen.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNanos.Load()) }

// Kind tags a metric family for exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) promType() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance of a family; exactly one of the cell
// pointers is set for static series, val is used for collected ones.
type series struct {
	labels  string // rendered label pairs without braces: `stmt="q1"`
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

type family struct {
	name   string
	help   string
	kind   Kind
	series []series
}

// Registry owns declared metric families and renders them. Families
// and static series are registered up front (registration locks and
// allocates; increments on the returned cells never do). Collectors
// run at render time only.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func(Emitter)
}

// Emitter receives collector samples at render time. Each call emits
// one sample of the named family; families appear in first-emission
// order after the static families. labels is either empty or rendered
// pairs without braces (`slot="3"`).
type Emitter interface {
	Emit(name, help string, kind Kind, labels string, value float64)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) fam(name, help string, kind Kind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	return f
}

// Counter registers (or extends) a counter family and returns the new
// series' cell. labels is empty or rendered pairs without braces.
func (r *Registry) Counter(name, help, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{}
	f := r.fam(name, help, KindCounter)
	f.series = append(f.series, series{labels: labels, counter: c})
	return c
}

// Gauge registers (or extends) a gauge family and returns the cell.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := &Gauge{}
	f := r.fam(name, help, KindGauge)
	f.series = append(f.series, series{labels: labels, gauge: g})
	return g
}

// Histogram registers (or extends) a histogram family and returns the cell.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &Histogram{}
	f := r.fam(name, help, KindHistogram)
	f.series = append(f.series, series{labels: labels, hist: h})
	return h
}

// Collect registers a render-time sampler. fn runs on every scrape,
// off the ingest path; it may take locks and allocate, but must not
// block indefinitely.
func (r *Registry) Collect(fn func(Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// sample is one rendered data point.
type sample struct {
	labels string
	value  float64
	hist   *Histogram // histogram series render expanded
}

type renderFam struct {
	name, help string
	kind       Kind
	samples    []sample
}

type gatherer struct {
	fams   []*renderFam
	byName map[string]*renderFam
}

func (g *gatherer) family(name, help string, kind Kind) *renderFam {
	f := g.byName[name]
	if f == nil {
		f = &renderFam{name: name, help: help, kind: kind}
		g.byName[name] = f
		g.fams = append(g.fams, f)
	}
	return f
}

func (g *gatherer) Emit(name, help string, kind Kind, labels string, value float64) {
	f := g.family(name, help, kind)
	f.samples = append(f.samples, sample{labels: labels, value: value})
}

// gather snapshots static families and runs collectors into one
// ordered render set.
func (r *Registry) gather() *gatherer {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	collectors := make([]func(Emitter), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	g := &gatherer{byName: make(map[string]*renderFam)}
	for _, f := range fams {
		rf := g.family(f.name, f.help, f.kind)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				rf.samples = append(rf.samples, sample{labels: s.labels, value: float64(s.counter.Load())})
			case s.gauge != nil:
				rf.samples = append(rf.samples, sample{labels: s.labels, value: float64(s.gauge.Load())})
			case s.hist != nil:
				rf.samples = append(rf.samples, sample{labels: s.labels, hist: s.hist})
			}
		}
	}
	for _, fn := range collectors {
		fn(g)
	}
	return g
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// WriteProm renders the registry in Prometheus text exposition format
// (version 0.0.4). Histogram sums are emitted in seconds, following
// the Prometheus convention for *_seconds families.
func (r *Registry) WriteProm(w io.Writer) error {
	g := r.gather()
	var b strings.Builder
	for _, f := range g.fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.promType())
		for _, s := range f.samples {
			if s.hist == nil {
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, s.labels), formatValue(s.value))
				continue
			}
			cum := uint64(0)
			for i, bound := range histBounds {
				cum += s.hist.buckets[i].Load()
				le := fmt.Sprintf(`le="%g"`, bound.Seconds())
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_bucket", joinLabels(s.labels, le)), cum)
			}
			cum += s.hist.buckets[NumBuckets-1].Load()
			fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`)), cum)
			fmt.Fprintf(&b, "%s %s\n", seriesName(f.name+"_sum", s.labels), formatValue(s.hist.Sum().Seconds()))
			fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_count", s.labels), s.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders a flat JSON object mapping series names (labels
// included) to values; histograms contribute _count, _sum (seconds),
// and _max_seconds entries. Keys are sorted, so the output is stable.
func (r *Registry) WriteJSON(w io.Writer) error {
	g := r.gather()
	flat := make(map[string]float64)
	for _, f := range g.fams {
		for _, s := range f.samples {
			if s.hist == nil {
				flat[seriesName(f.name, s.labels)] = s.value
				continue
			}
			flat[seriesName(f.name+"_count", s.labels)] = float64(s.hist.Count())
			flat[seriesName(f.name+"_sum", s.labels)] = s.hist.Sum().Seconds()
			flat[seriesName(f.name+"_max_seconds", s.labels)] = s.hist.Max().Seconds()
		}
	}
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%q: %s", k, formatValue(flat[k]))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the Prometheus text view.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

// JSONHandler serves the JSON view.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}
