package greta

import (
	"net/http"

	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/obs"
)

// Metrics is a consistent point-in-time snapshot of a Runtime's
// observability counters: ingest totals, watermark/lag gauges, reorder
// buffer depth, checkpoint durability state, multi-query topology, and
// per-statement engine statistics. Cell-backed counters (events,
// drops, watermark, checkpoint totals) are updated by lock-free atomics
// on the ingest path and stay live in every mode, including while
// RunParallel owns the stream; per-statement engine stats are omitted
// while workers own the engines and after Close. At end of run the
// snapshot's Runtime and Statements sections equal Stats() and
// Handle.Stats() exactly — the snapshot is a view, not a second set of
// books.
type Metrics = core.MetricsSnapshot

// StatementMetrics is one live statement's identity and counters
// inside a Metrics snapshot.
type StatementMetrics = core.StatementMetrics

// CheckpointMetrics is the durability section of a Metrics snapshot.
type CheckpointMetrics = core.CheckpointMetrics

// TraceKind labels a lifecycle TraceEvent.
type TraceKind = core.TraceKind

// TraceEvent is one structured lifecycle event delivered to the
// WithTraceHook callback. Fields beyond Kind are populated where they
// make sense: Stmt for statement events, Boundary/Bytes/Dur for
// checkpoints, Session for netstream session events, Shard for cluster
// membership events.
type TraceEvent = core.TraceEvent

// Lifecycle trace kinds (see TraceEvent). The runtime itself fires the
// statement and checkpoint kinds; netstream fires TraceSessionResume;
// the cluster coordinator fires the barrier and shard kinds.
const (
	TraceStatementRegister = core.TraceStatementRegister
	TraceStatementClose    = core.TraceStatementClose
	TraceCheckpointBegin   = core.TraceCheckpointBegin
	TraceCheckpointCommit  = core.TraceCheckpointCommit
	TraceCheckpointFail    = core.TraceCheckpointFail
	TraceSessionResume     = core.TraceSessionResume
	TraceBarrierEmit       = core.TraceBarrierEmit
	TraceShardAdd          = core.TraceShardAdd
	TraceShardDrain        = core.TraceShardDrain
)

// WithMetricsAddr serves the runtime's observability surface on addr
// ("host:port"; ":0" picks a free port — read it back from
// MetricsAddr). The listener serves:
//
//	/metrics       Prometheus text exposition (0.0.4)
//	/metrics.json  the same series as flat JSON
//	/debug/pprof/  the standard runtime profiles
//
// The endpoint is live for the Runtime's lifetime and closed by Close.
// NewRuntime (and Restore) panic if addr cannot be bound — a
// misconfigured listen address is a programming error, matching
// WithCheckpoint's invalid-interval contract. Scrapes render outside
// the ingest path; armed metrics keep the per-event path
// allocation-free.
func WithMetricsAddr(addr string) RuntimeOption {
	return func(c *runtimeConfig) { c.metricsAddr = addr }
}

// WithTraceHook installs a structured lifecycle trace hook: statement
// register/close, checkpoint begin/commit/fail (and, via the serving
// layers, session resumes, barrier emits, shard membership). The hook
// fires synchronously on the path that caused the event with the
// runtime lock held — it must return quickly and must not call back
// into the Runtime or its Handles.
func WithTraceHook(fn func(TraceEvent)) RuntimeOption {
	return func(c *runtimeConfig) { c.trace = fn }
}

// WithMetricsDisabled detaches the hot-path metric cells: per-event
// counter and gauge updates are skipped entirely. The snapshot and
// /metrics surfaces keep working from sampled state; cell-backed
// series simply stop moving. This exists to measure the armed cost
// (BenchmarkMetricsOverhead) and for callers who want the last word in
// hot-path hygiene; the armed path is itself allocation-free and
// branch-predictable (a nil check plus a handful of uncontended
// atomics).
func WithMetricsDisabled() RuntimeOption {
	return func(c *runtimeConfig) { c.metricsOff = true }
}

// Metrics returns a consistent snapshot of the runtime's counters.
// Safe to call concurrently with ingestion, including during
// RunParallel and after Close; see Metrics (the type) for what each
// mode omits.
func (rt *Runtime) Metrics() Metrics { return rt.inner.Metrics() }

// MetricsAddr reports the bound address of the WithMetricsAddr
// listener ("" when none is armed). With ":0" this is how the chosen
// port is discovered.
func (rt *Runtime) MetricsAddr() string {
	if rt.metLn == nil {
		return ""
	}
	return rt.metLn.Addr().String()
}

// MetricsHandler returns the runtime's observability HTTP surface
// (/metrics, /metrics.json, /debug/pprof/) for mounting
// on a caller-owned server — the embeddable form of WithMetricsAddr.
// Rendering samples runtime state under its lock; do not call the
// handler from a trace hook or result callback.
func (rt *Runtime) MetricsHandler() http.Handler {
	return obs.NewMux(rt.inner.MetricsRegistry())
}

// SetTraceHook replaces the lifecycle trace hook after construction or
// restore (nil clears it); see WithTraceHook for the contract.
func (rt *Runtime) SetTraceHook(fn func(TraceEvent)) { rt.inner.SetTraceHook(fn) }

// armObs applies the observability options (trace hook, metrics
// disarm, metrics listener) to a built runtime.
func (rt *Runtime) armObs(cfg *runtimeConfig) error {
	if cfg.trace != nil {
		rt.inner.SetTraceHook(cfg.trace)
	}
	if cfg.metricsOff {
		rt.inner.DisableMetrics()
	}
	if cfg.metricsAddr != "" {
		ln, err := obs.Serve(cfg.metricsAddr, rt.inner.MetricsRegistry())
		if err != nil {
			return err
		}
		rt.metLn = ln
	}
	return nil
}
