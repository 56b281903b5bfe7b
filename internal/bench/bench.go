// Package bench is the evaluation harness: it regenerates every figure
// and table of the paper's performance evaluation (§10) at laptop
// scale — the events-per-window sweep for positive patterns (Fig. 14)
// and patterns with negation (Fig. 15), the edge-predicate selectivity
// sweep (Fig. 16), the trend-group sweep (Fig. 17), and the event
// selection semantics table (Table 1) — comparing GRETA against the
// three two-step baselines (SASE, CET, Flink-style flattening).
//
// Absolute numbers differ from the paper's 16-core/128 GB Java testbed;
// the reproduction target is the shape: who wins, growth curves, and
// where engines stop terminating. Two-step engines are bounded by trend
// caps derived from a per-point time budget; a capped run is reported
// as DNF, mirroring the paper's "fails to terminate".
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/cet"
	"github.com/greta-cep/greta/internal/baseline/flat"
	"github.com/greta-cep/greta/internal/baseline/sase"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

// Metric is one measured run.
type Metric struct {
	LatencyMS  float64 // wall-clock of the full run (peak window latency proxy)
	Throughput float64 // events per second
	MemBytes   float64 // peak working-state bytes (structural estimate)
	HeapBytes  float64 // allocation delta observed by the Go runtime
	DNF        bool    // did not finish within caps
	Check      float64 // first aggregate of the first result, for sanity
}

// Point is one sweep point of one engine.
type Point struct {
	X float64
	M Metric
}

// Series is one engine's sweep.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a regenerated evaluation figure: three panels (latency,
// memory, throughput) over a shared X axis.
type Figure struct {
	Title  string
	XLabel string
	Series []Series
}

// EngineKind selects an engine.
type EngineKind int

// Engines under evaluation (paper §10.1 Methodology).
const (
	Greta EngineKind = iota
	GretaExact
	Sase
	Cet
	Flat
)

func (k EngineKind) String() string {
	switch k {
	case Greta:
		return "GRETA"
	case GretaExact:
		return "GRETA(exact)"
	case Sase:
		return "SASE"
	case Cet:
		return "CET"
	case Flat:
		return "Flink"
	}
	return "?"
}

// Caps bounds two-step runs.
type Caps struct {
	MaxTrends  uint64 // SASE / CET node cap
	FlatMaxLen int    // Flink flattening length
}

// stateBytes prices GRETA's structural peak memory by the code's own
// layout: a core.Vertex for each vertex (event pointer, time, payload
// block, presence bits, state) and, for each window payload, the bytes
// def lays one out in (the payload and its slot values).
func stateBytes(st core.Stats, def *aggregate.Def) float64 {
	return float64(st.PeakVertices)*float64(unsafe.Sizeof(core.Vertex{})) +
		float64(st.PeakPayloads)*float64(def.PayloadBytes())
}

// RunEngine executes the query with one engine over evs and measures.
func RunEngine(kind EngineKind, q *query.Query, evs []*event.Event, caps Caps) (Metric, error) {
	var m Metric
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	switch kind {
	case Greta, GretaExact:
		mode := aggregate.ModeNative
		if kind == GretaExact {
			mode = aggregate.ModeExact
		}
		plan, err := core.NewPlan(q, mode)
		if err != nil {
			return m, err
		}
		eng := core.NewEngine(plan)
		eng.Run(event.NewSliceStream(evs))
		m.MemBytes = stateBytes(eng.Stats(), plan.Def())
		if rs := eng.Results(); len(rs) > 0 {
			m.Check = rs[0].Values[0]
		}
	case Sase:
		rs, st, err := sase.Run(q, evs, sase.Options{MaxTrends: caps.MaxTrends})
		if err != nil {
			return m, err
		}
		m.MemBytes = float64(st.StoredEdges)*16 + float64(st.StoredBytes)
		m.DNF = st.Truncated
		if len(rs) > 0 {
			m.Check = rs[0].Values[0]
		}
	case Cet:
		rs, st, err := cet.Run(q, evs, cet.Options{MaxNodes: caps.MaxTrends})
		if err != nil {
			return m, err
		}
		m.MemBytes = float64(st.StoredBytes)
		m.DNF = st.Truncated
		if len(rs) > 0 {
			m.Check = rs[0].Values[0]
		}
	case Flat:
		rs, st, err := flat.Run(q, evs, flat.Options{MaxLen: caps.FlatMaxLen, MaxSequences: caps.MaxTrends})
		if err != nil {
			return m, err
		}
		m.MemBytes = float64(st.StoredBytes)
		m.DNF = st.Truncated
		if len(rs) > 0 {
			m.Check = rs[0].Values[0]
		}
	}
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.HeapBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	m.LatencyMS = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		m.Throughput = float64(len(evs)) / elapsed.Seconds()
	}
	return m, nil
}

// Sweep runs all engines over a parameterized workload.
//
// makeInput returns the query and events for one x value. budget is a
// soft per-point wall-clock limit. When monotone is true, difficulty
// grows with x: once an engine exceeds the budget (or hits its caps) at
// some x, larger x values are reported DNF without running — the
// two-step engines are exponential, and running them to completion at
// every x would take the hours the paper reports. With monotone false
// (the Fig. 17 group sweep, where more groups mean shorter trends)
// every point runs.
func Sweep(engines []EngineKind, xs []float64, makeInput func(x float64) (*query.Query, []*event.Event), caps Caps, budget time.Duration, monotone bool) (Figure, error) {
	var fig Figure
	for _, kind := range engines {
		s := Series{Name: kind.String()}
		blown := false
		for _, x := range xs {
			q, evs := makeInput(x)
			if blown {
				s.Points = append(s.Points, Point{X: x, M: Metric{DNF: true}})
				continue
			}
			m, err := RunEngine(kind, q, evs, caps)
			if err != nil {
				return fig, fmt.Errorf("%s at x=%v: %w", kind, x, err)
			}
			s.Points = append(s.Points, Point{X: x, M: m})
			if monotone && budget > 0 && (time.Duration(m.LatencyMS)*time.Millisecond > budget || m.DNF) {
				blown = true
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Print renders the figure as three aligned text panels.
func Print(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "== %s ==\n", fig.Title)
	panels := []struct {
		name string
		get  func(Metric) float64
		unit string
	}{
		{"Latency", func(m Metric) float64 { return m.LatencyMS }, "ms"},
		{"Memory", func(m Metric) float64 { return m.MemBytes }, "bytes"},
		{"Throughput", func(m Metric) float64 { return m.Throughput }, "events/s"},
	}
	for _, p := range panels {
		fmt.Fprintf(w, "\n-- %s (%s) --\n", p.name, p.unit)
		fmt.Fprintf(w, "%-12s", fig.XLabel)
		for _, s := range fig.Series {
			fmt.Fprintf(w, "%16s", s.Name)
		}
		fmt.Fprintln(w)
		if len(fig.Series) == 0 {
			continue
		}
		for i := range fig.Series[0].Points {
			fmt.Fprintf(w, "%-12s", formatX(fig.Series[0].Points[i].X))
			for _, s := range fig.Series {
				m := s.Points[i].M
				if m.DNF {
					fmt.Fprintf(w, "%16s", "DNF")
				} else {
					fmt.Fprintf(w, "%16s", formatVal(p.get(m)))
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

func formatX(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

func formatVal(v float64) string {
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// CSV renders the figure as comma-separated values for plotting.
func CSV(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "x")
	for _, s := range fig.Series {
		n := strings.ReplaceAll(s.Name, ",", "_")
		fmt.Fprintf(w, ",%s_latency_ms,%s_mem_bytes,%s_throughput", n, n, n)
	}
	fmt.Fprintln(w)
	if len(fig.Series) == 0 {
		return
	}
	for i := range fig.Series[0].Points {
		fmt.Fprintf(w, "%g", fig.Series[0].Points[i].X)
		for _, s := range fig.Series {
			m := s.Points[i].M
			if m.DNF {
				fmt.Fprintf(w, ",,,")
			} else {
				fmt.Fprintf(w, ",%.3f,%.0f,%.0f", m.LatencyMS, m.MemBytes, m.Throughput)
			}
		}
		fmt.Fprintln(w)
	}
}
