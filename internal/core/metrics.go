// Runtime observability: pre-registered atomic cells on the ingest
// path, sampled snapshots and collectors off it.
//
// The hot-path contract mirrors the engine's own 0-alloc discipline
// (TestNoHotPathAllocs runs with the cells armed, as every runtime is):
// every per-event metric update is a plain atomic on a cell that was
// allocated when the runtime was built. Durations (checkpoint writes)
// are measured only at watermark boundaries — the same places the
// engine already pays for snapshot encoding, which the alloc guard's
// measured windows deliberately avoid. Everything derivable from
// existing structures (the watermark, the reorder buffer's maximum and
// depth, engine Stats, topology) is not mirrored into cells at all: a
// render-time collector samples it under rt.mu, so each series has one
// source and the hot path pays nothing for it.
package core

import (
	"fmt"
	"time"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/obs"
)

// rtMetrics are the runtime's hot-path cells, every one registered:
// what the runtime counts and keeps nowhere else. All counters count
// offered events (before engine-level drop accounting), so they are
// meaningful during RunParallel too, when per-engine stats are owned
// by worker goroutines.
type rtMetrics struct {
	events    *obs.Counter // events offered through any ingest path
	drops     *obs.Counter // out-of-order drops (watermark or reorder horizon)
	batches   *obs.Counter // ProcessBatch calls
	batchRows *obs.Counter // rows offered through ProcessBatch

	ckWrites       *obs.Counter   // successful checkpoint writes
	ckFails        *obs.Counter   // failed checkpoint writes
	ckBytes        *obs.Counter   // total snapshot bytes written
	ckLastBytes    *obs.Gauge     // size of the last successful snapshot
	ckLastBoundary *obs.Gauge     // boundary/replay bound of the last successful snapshot
	ckLastUnix     *obs.Gauge     // wall clock (ns) of the last successful snapshot
	ckDur          *obs.Histogram // checkpoint write latency
}

// newRTMetrics registers the runtime's static cells.
func newRTMetrics(reg *obs.Registry) *rtMetrics {
	m := &rtMetrics{
		events:         reg.Counter("greta_events_total", "events offered to the runtime through any ingest path", ""),
		drops:          reg.Counter("greta_events_dropped_total", "events dropped out of order (behind the watermark or reorder horizon)", ""),
		batches:        reg.Counter("greta_batches_total", "columnar batches offered via ProcessBatch", ""),
		batchRows:      reg.Counter("greta_batch_rows_total", "rows offered via ProcessBatch", ""),
		ckWrites:       reg.Counter("greta_checkpoint_writes_total", "successful checkpoint snapshots", ""),
		ckFails:        reg.Counter("greta_checkpoint_failures_total", "failed checkpoint snapshots", ""),
		ckBytes:        reg.Counter("greta_checkpoint_bytes_total", "total checkpoint snapshot bytes written", ""),
		ckLastBytes:    reg.Gauge("greta_checkpoint_last_bytes", "size of the most recent checkpoint snapshot", ""),
		ckLastBoundary: reg.Gauge("greta_checkpoint_last_boundary", "event-time boundary of the most recent checkpoint", ""),
		ckLastUnix:     reg.Gauge("greta_checkpoint_last_unix_nanos", "wall-clock time of the most recent checkpoint (unix ns)", ""),
		ckDur:          reg.Histogram("greta_checkpoint_write_seconds", "checkpoint write latency", ""),
	}
	m.ckLastBoundary.Set(-1)
	return m
}

// MetricsRegistry returns the runtime's obs registry (static cells
// plus the sampled collector) for mounting on an HTTP listener.
// Rendering takes rt.mu — never call it while holding the lock (e.g.
// from a trace hook or checkpoint error callback).
func (rt *Runtime) MetricsRegistry() *obs.Registry { return rt.obsReg }

// CheckpointMetrics is the checkpoint section of a metrics snapshot.
type CheckpointMetrics struct {
	Armed        bool
	Every        event.Time // boundary interval (0 when unarmed)
	NextBoundary event.Time // first event time that triggers the next snapshot
	Writes       uint64
	Failures     uint64
	TotalBytes   uint64
	LastBytes    uint64
	LastBoundary event.Time    // replay bound of the last successful snapshot (-1 if none)
	LastDuration time.Duration // write latency of the last successful snapshot
	Age          time.Duration // wall-clock age of the last successful snapshot (0 if none)
}

// StatementMetrics is one live statement's identity and counters.
type StatementMetrics struct {
	ID     string
	Shared bool // served by a shared graph
	Stats  Stats
}

// MetricsSnapshot is a consistent point-in-time view of the runtime's
// observability counters, taken under the runtime lock. Per-statement
// engine stats are omitted while RunParallel owns the stream (worker
// goroutines own the engines then) and after Close (the statement set
// is torn down); the counters and the frontier remain live in both.
type MetricsSnapshot struct {
	Events    uint64 // events offered through any ingest path
	Dropped   uint64 // out-of-order drops
	Batches   uint64 // ProcessBatch calls
	BatchRows uint64 // rows offered via ProcessBatch

	Watermark    event.Time // largest accepted event time (-1 before the first)
	MaxEventTime event.Time // largest offered event time (-1 before the first)
	WatermarkLag event.Time // MaxEventTime - Watermark (the disorder window in flight)

	ReorderSlack   event.Time // armed slack (0 when off)
	ReorderPending int        // events held in the reorder buffer
	ReorderDropped uint64     // beyond-slack drops counted by the buffer

	Runtime    RuntimeStats
	Statements []StatementMetrics
	Checkpoint CheckpointMetrics
}

// Metrics returns a consistent snapshot of the runtime's counters.
// Safe to call concurrently with ingestion (including RunParallel and
// after Close); see MetricsSnapshot for what each mode omits.
func (rt *Runtime) Metrics() MetricsSnapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.metricsLocked()
}

func (rt *Runtime) metricsLocked() MetricsSnapshot {
	m := rt.met
	snap := MetricsSnapshot{
		Events:       m.events.Load(),
		Dropped:      m.drops.Load(),
		Batches:      m.batches.Load(),
		BatchRows:    m.batchRows.Load(),
		Watermark:    rt.watermark,
		MaxEventTime: rt.watermark,
	}
	// The offered maximum runs ahead of the released frontier only inside
	// the reorder buffer, which keeps it (restored with its snapshot).
	if b := rt.reorder; b != nil {
		snap.MaxEventTime = max(snap.MaxEventTime, b.Max())
		snap.ReorderSlack = b.Slack()
		snap.ReorderPending = b.Pending()
		snap.ReorderDropped = b.Dropped()
	}
	snap.WatermarkLag = snap.MaxEventTime - snap.Watermark
	if ck := rt.ck; ck != nil {
		snap.Checkpoint.Armed = true
		snap.Checkpoint.Every = ck.every
		snap.Checkpoint.NextBoundary = ck.next
		snap.Checkpoint.LastDuration = ck.lastDur
	}
	snap.Checkpoint.Writes = m.ckWrites.Load()
	snap.Checkpoint.Failures = m.ckFails.Load()
	snap.Checkpoint.TotalBytes = m.ckBytes.Load()
	snap.Checkpoint.LastBytes = uint64(m.ckLastBytes.Load())
	snap.Checkpoint.LastBoundary = m.ckLastBoundary.Load()
	if u := m.ckLastUnix.Load(); u > 0 {
		snap.Checkpoint.Age = time.Duration(nowNanos() - u)
	}
	snap.Runtime = rt.statsLocked()
	if !rt.running && !rt.closed {
		snap.Statements = make([]StatementMetrics, 0, len(rt.stmts))
		for _, st := range rt.stmts {
			snap.Statements = append(snap.Statements,
				StatementMetrics{ID: st.id, Shared: st.src.union, Stats: st.Stats()})
		}
	}
	return snap
}

// nowNanos is a test seam for wall-clock reads on the sampling path.
var nowNanos = func() int64 { return time.Now().UnixNano() }

// registerCollector wires the render-time sampler: everything the
// snapshot derives from live structures (frontier and lag, reorder
// depth, topology, per-statement engine stats, checkpoint age) is
// published as series without any hot-path mirroring. Runs under rt.mu
// at scrape time.
func (rt *Runtime) registerCollector() {
	rt.obsReg.Collect(func(e obs.Emitter) {
		snap := rt.Metrics()
		e.Emit("greta_watermark", "largest accepted event time (-1 before the first event)", obs.KindGauge, "", float64(snap.Watermark))
		e.Emit("greta_event_time_max", "largest event time offered (-1 before the first event)", obs.KindGauge, "", float64(snap.MaxEventTime))
		e.Emit("greta_watermark_lag", "event-time distance between the maximum offered and accepted timestamps", obs.KindGauge, "", float64(snap.WatermarkLag))
		e.Emit("greta_reorder_slack", "armed reorder slack (0 when off)", obs.KindGauge, "", float64(snap.ReorderSlack))
		e.Emit("greta_reorder_pending", "events held in the reorder buffer", obs.KindGauge, "", float64(snap.ReorderPending))
		e.Emit("greta_reorder_dropped_total", "beyond-slack drops counted by the reorder buffer", obs.KindCounter, "", float64(snap.ReorderDropped))
		e.Emit("greta_checkpoint_age_seconds", "wall-clock age of the most recent successful checkpoint", obs.KindGauge, "", snap.Checkpoint.Age.Seconds())
		e.Emit("greta_statements", "live registered statements", obs.KindGauge, "", float64(snap.Runtime.Statements))
		e.Emit("greta_route_groups", "distinct partition-attribute routing signatures", obs.KindGauge, "", float64(snap.Runtime.RouteGroups))
		e.Emit("greta_shared_statements", "statements served by shared graphs", obs.KindGauge, "", float64(snap.Runtime.SharedStatements))
		e.Emit("greta_shared_graphs", "distinct shared graphs", obs.KindGauge, "", float64(snap.Runtime.SharedGraphs))
		for i := range snap.Statements {
			sm := &snap.Statements[i]
			l := fmt.Sprintf("stmt=%q", sm.ID)
			st := &sm.Stats
			e.Emit("greta_stmt_events_total", "events seen by the statement's engine", obs.KindCounter, l, float64(st.Events))
			e.Emit("greta_stmt_out_of_order_total", "events the statement's engine dropped as late", obs.KindCounter, l, float64(st.OutOfOrder))
			e.Emit("greta_stmt_inserted_total", "vertices inserted into the statement's graphs", obs.KindCounter, l, float64(st.Inserted))
			e.Emit("greta_stmt_edges_total", "edges traversed by the statement's graphs", obs.KindCounter, l, float64(st.Edges))
			e.Emit("greta_stmt_scan_visits_total", "per-vertex candidate visits (scan path)", obs.KindCounter, l, float64(st.ScanVisits))
			e.Emit("greta_stmt_summary_folds_total", "O(1) summary folds (fast path)", obs.KindCounter, l, float64(st.SummaryFolds))
			e.Emit("greta_stmt_summary_rebuilds_total", "lazy watermark-driven summary rebuilds", obs.KindCounter, l, float64(st.SummaryRebuilds))
			e.Emit("greta_stmt_prefilter_skips_total", "rows skipped by the vectorized batch pre-filter", obs.KindCounter, l, float64(st.PrefilterSkips))
			e.Emit("greta_stmt_peak_vertices", "peak live vertices across the statement's graphs", obs.KindGauge, l, float64(st.PeakVertices))
			e.Emit("greta_stmt_peak_payloads", "peak pooled payloads across the statement's graphs", obs.KindGauge, l, float64(st.PeakPayloads))
			e.Emit("greta_stmt_partitions", "partitions materialized by the statement", obs.KindGauge, l, float64(st.Partitions))
			e.Emit("greta_stmt_results_total", "results emitted to the statement", obs.KindCounter, l, float64(st.Results))
		}
	})
}

// TraceKind labels a lifecycle trace event.
type TraceKind uint8

const (
	// TraceStatementRegister fires after a statement registers.
	TraceStatementRegister TraceKind = iota + 1
	// TraceStatementClose fires after a statement's final flush.
	TraceStatementClose
	// TraceCheckpointBegin fires when a snapshot starts (boundary
	// crossed or CheckpointNow).
	TraceCheckpointBegin
	// TraceCheckpointCommit fires after a successful snapshot write.
	TraceCheckpointCommit
	// TraceCheckpointFail fires after a failed snapshot write.
	TraceCheckpointFail
	// TraceSessionResume fires when a netstream session re-attaches
	// after a connection loss (serving layers).
	TraceSessionResume
	// TraceBarrierEmit fires when a cluster coordinator fans out a
	// window-close barrier (serving layers).
	TraceBarrierEmit
	// TraceShardAdd fires when a cluster shard joins (serving layers).
	TraceShardAdd
	// TraceShardDrain fires when a cluster shard drains its slots away
	// (serving layers).
	TraceShardDrain
)

// String names the kind for log lines.
func (k TraceKind) String() string {
	switch k {
	case TraceStatementRegister:
		return "statement-register"
	case TraceStatementClose:
		return "statement-close"
	case TraceCheckpointBegin:
		return "checkpoint-begin"
	case TraceCheckpointCommit:
		return "checkpoint-commit"
	case TraceCheckpointFail:
		return "checkpoint-fail"
	case TraceSessionResume:
		return "session-resume"
	case TraceBarrierEmit:
		return "barrier-emit"
	case TraceShardAdd:
		return "shard-add"
	case TraceShardDrain:
		return "shard-drain"
	default:
		return fmt.Sprintf("trace-kind-%d", uint8(k))
	}
}

// TraceEvent is one structured lifecycle event. Fields beyond Kind are
// populated where they make sense: Stmt for statement events, Boundary
// Bytes/Dur/Encode for checkpoints, Session for serving-layer session
// events, Shard for cluster membership events. A checkpoint's Dur is
// the whole write, the snapshot's encode on the ingest goroutine
// (Encode) plus the sink's write off it.
type TraceEvent struct {
	Kind      TraceKind
	Stmt      string
	Session   string
	Shard     int
	Boundary  event.Time
	Watermark event.Time
	Bytes     int64
	Dur       time.Duration
	Encode    time.Duration
	Err       error
}

// WithTraceHook installs the lifecycle trace hook. The hook fires on
// the path that caused the event with the runtime lock held — it must
// return quickly and must not call back into the Runtime or its
// statements. Statement registration/close and checkpoint
// begin/commit/fail fire here; serving layers add their own kinds
// through their own hook options.
func WithTraceHook(fn func(TraceEvent)) Option {
	return func(rt *Runtime) { rt.trace = fn }
}

// fireTrace invokes the hook if set; rt.mu held.
func (rt *Runtime) fireTrace(te TraceEvent) {
	if rt.trace != nil {
		rt.trace(te)
	}
}
