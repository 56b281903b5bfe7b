package greta

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
)

// The cluster coordinator builds its handles through core.
func init() { core.NewHandle = func(st *core.Stmt) any { return handleOf(st) } }

// Sentinel errors returned by Runtime and Handle operations.
var (
	// ErrClosed reports an operation on a closed Runtime.
	ErrClosed = core.ErrClosed
	// ErrOutOfOrder reports an event older than the runtime watermark.
	// The event was counted and dropped for every registered statement
	// (the paper delegates out-of-order repair upstream, §2; see
	// netstream's reorder slack for a bounded repair buffer).
	ErrOutOfOrder = core.ErrOutOfOrder
	// ErrStatementClosed reports an operation on a closed Handle.
	ErrStatementClosed = core.ErrStatementClosed
	// ErrRunning reports Register/Close attempts while RunParallel owns
	// the runtime.
	ErrRunning = core.ErrRunning
	// ErrUnsupportedOption reports a RegisterOption the host cannot honour
	// (see WithSharing and cluster.WithExactArithmetic).
	ErrUnsupportedOption = errors.New("greta: registration option not supported here")
)

// OrderError is the structured form of an out-of-order drop: the
// offending event's timestamp and the watermark it violated (the
// runtime watermark, or the reorder horizon when WithReorderSlack is
// armed). errors.Is(err, ErrOutOfOrder) matches it; errors.As extracts
// the diagnostics for reporting.
type OrderError = core.OrderError

// Runtime is a long-lived multi-query GRETA host: one shared ingest
// path feeding any number of registered statements. Each event is
// hashed once per distinct partition-attribute signature and fanned
// out to every registered statement's partitions, so N statements over
// the same grouping cost one routing hash per event. Statements can be
// registered and closed at any point mid-stream without restarting the
// stream: a statement registered at watermark T sees only events at or
// after T, and closing one statement does not perturb the others.
//
// Beyond the shared routing hash, the runtime shares whole sub-plans:
// statements whose trend formation coincides — same pattern shape,
// predicates, window, partition-by attributes, and selection semantics;
// only the RETURN aggregates may differ — are served by ONE shared
// GRETA graph (vertices, edges, pane summaries, and pools maintained
// once), with each statement's aggregates extracted from the shared
// per-window payload at window close. Sharing is on by default
// (WithSharing(false) opts a statement out) and engages only between
// statements registered at the same stream position: a statement
// registered mid-stream never inherits a warm graph's history — it
// opens a new shared graph seeded at its registration watermark.
// Stats() reports how far the statement set collapsed.
//
// Process, Register, and Close are safe to call from different
// goroutines (a mutex serializes them). Result callbacks run on the
// ingest path and must not call back into the Runtime or its Handles.
type Runtime struct {
	inner *core.Runtime
	// metLn is the WithMetricsAddr listener (nil when unarmed); Close
	// shuts it down with the runtime.
	metLn net.Listener
}

// NewRuntime builds an empty runtime; register statements with
// Register and feed events with Process or Run. Options configure
// runtime-wide behavior (see WithCheckpoint); NewRuntime panics on an
// invalid option combination (e.g. a non-positive checkpoint
// interval), which is a programming error, not a runtime condition.
func NewRuntime(opts ...RuntimeOption) *Runtime {
	var cfg runtimeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	rt := &Runtime{inner: core.NewRuntime()}
	if cfg.ckDir != "" {
		if err := rt.armCheckpoint(cfg.ckDir, cfg.ckEvery, -1, cfg.ckErr); err != nil {
			panic(err)
		}
	}
	if cfg.slack > 0 {
		if err := rt.inner.SetReorderSlack(cfg.slack); err != nil {
			panic(err)
		}
	}
	if err := rt.armObs(&cfg); err != nil {
		panic(err)
	}
	return rt
}

// RuntimeOption configures a Runtime at construction (NewRuntime) or
// restoration (Restore).
type RuntimeOption func(*runtimeConfig)

// runtimeConfig collects runtime-wide options.
type runtimeConfig struct {
	ckDir       string
	ckEvery     Time
	ckErr       func(error)
	slack       Time
	metricsAddr string
	trace       func(TraceEvent)
	metricsOff  bool
}

// WithReorderSlack arms a bounded reorder buffer in front of the
// engines (the out-of-order handling the paper delegates upstream,
// §2): events may arrive up to slack time units behind the maximum
// timestamp seen and are re-sorted — equal timestamps keep arrival
// order — before application. Later arrivals are dropped with an
// OrderError from Process. Register, Handle.Close, Barrier, and Close
// flush the buffer first (lifecycle operations are barriers), while
// scheduled checkpoints persist the pending events inside the
// snapshot, so a restored runtime rehydrates its disorder window. A
// runtime with slack armed runs RunParallel sequentially. Slack 0 is
// the default direct path.
func WithReorderSlack(slack Time) RuntimeOption {
	return func(c *runtimeConfig) { c.slack = slack }
}

// RegisterOption configures one statement registration, on a Runtime or
// a cluster Coordinator; a host refuses one it cannot honour.
type RegisterOption func(*core.StmtConfig)

// WithID names the statement; results and netstream tags carry it.
// Default ids are "q0", "q1", ... in registration order (skipping any
// the user claimed). Register rejects an id already held by a live
// statement; a closed statement's id is reusable.
func WithID(id string) RegisterOption {
	return func(c *core.StmtConfig) { c.ID = id }
}

// WithSharing controls the statement's participation in the shared
// sub-plan network (default on): statements whose trend formation
// coincides — everything but the RETURN aggregates — are served by one
// shared graph, each receiving its own aggregates at window close.
// Results, stats, and lifecycle are bit-identical either way; sharing
// only collapses the work. Composite (OR/AND) and negation statements
// always run exclusively, and so does every cluster statement: a
// Coordinator refuses WithSharing(true).
func WithSharing(on bool) RegisterOption {
	return func(c *core.StmtConfig) { c.Share = on }
}

// WithoutRetention registers the statement in drop-on-delivery mode:
// emitted results are not retained, bounding memory on unbounded
// streams whose consumers use the OnResult callback or a live Results
// iterator. Stats().Results still counts every emission; Results
// iterators yield only results emitted while they are being consumed
// (no replay).
func WithoutRetention() RegisterOption {
	return func(c *core.StmtConfig) { c.NoRetain = true }
}

// Register attaches a compiled statement to the shared ingest and
// returns its Handle. The statement sees events from the current
// watermark onward; windows that ended before registration are never
// emitted. Register works mid-stream on the sequential path; while
// RunParallel owns the runtime it fails eagerly with ErrRunning —
// before compiling any engine state — rather than racing the workers
// or blocking until the stream ends.
func (rt *Runtime) Register(stmt *Statement, opts ...RegisterOption) (*Handle, error) {
	cfg := core.StmtConfig{Share: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Exact && stmt.plan.Mode != aggregate.ModeExact {
		return nil, fmt.Errorf("%w: exact arithmetic on a natively compiled statement (compile it WithExactArithmetic)", ErrUnsupportedOption)
	}
	st, err := rt.inner.Register(stmt.plan, cfg)
	if err != nil {
		return nil, err
	}
	return &Handle{st: st, stmt: stmt}, nil
}

// Process offers one event to every registered statement. Events must
// arrive in non-decreasing time order: an older event is counted and
// dropped by every statement and ErrOutOfOrder is returned. After
// Close it returns ErrClosed.
func (rt *Runtime) Process(ev *Event) error { return rt.inner.Process(ev) }

// ProcessBatch offers a columnar batch to every registered statement,
// amortizing the per-event ingest overhead: the runtime looks up each
// partition-key run (consecutive rows with equal routing attributes)
// once instead of hashing every event, advances the watermark once at
// the batch tail, and — for eligible statements — pre-filters whole
// predicate columns so rows that cannot match any automaton state skip
// graph insertion entirely. Results, statistics, and checkpoint
// placement are bit-identical to feeding the same rows through Process
// one at a time.
//
// It returns the number of rows accepted. Rows must be sorted by
// non-decreasing time within the batch; an unsorted batch degrades to
// the per-event path (same semantics, no speedup). Without reorder
// slack, a prefix of rows older than the runtime watermark is counted
// and dropped per statement, the rest are applied, and ProcessBatch
// reports only the accepted count — no error, matching a per-event
// feed that skips ErrOutOfOrder drops and continues.
//
// With WithReorderSlack armed the rows enter the reorder buffer one at
// a time, exactly as Process would offer them (same semantics, no
// speedup): rows inside the slack window are buffered — counted as
// accepted, applied when the horizon passes them — and rows already
// behind the horizon are dropped. After Close it returns (0,
// ErrClosed); while RunParallel owns the runtime, (0, ErrRunning).
func (rt *Runtime) ProcessBatch(b *Batch) (int, error) { return rt.inner.ProcessBatch(b) }

// Run consumes the stream until it is exhausted or ctx is cancelled.
// Out-of-order events are counted and dropped; any other error aborts.
// Run does not close the runtime — more statements or streams may
// follow. Call Close to flush open windows at end of life.
func (rt *Runtime) Run(ctx context.Context, s Stream) error { return rt.inner.Run(ctx, s) }

// RunParallel consumes the whole stream with parallel workers shared
// by every registered statement, partitioning by grouping/equivalence
// attributes (paper §7). Results stream out as windows close: the
// coordinator broadcasts a per-window barrier, workers release their
// partial aggregates, and the merged result is emitted once every
// worker has passed the barrier — worker buffers stay bounded by the
// number of open windows. Unpartitioned and composite statements run
// inline: same results, callbacks on the feeding goroutine at each close.
//
// RunParallel must own the runtime from the start (no events processed
// yet); otherwise it falls back to the sequential Run. It drives the
// stream to completion (or ctx cancellation) and closes the runtime.
// Result callbacks may fire from internal goroutines. While it runs,
// Register, Handle.Close, Process, and Checkpoint return ErrRunning
// eagerly instead of racing the workers.
func (rt *Runtime) RunParallel(ctx context.Context, s Stream, workers int) error {
	return rt.inner.RunParallel(ctx, s, workers)
}

// Watermark returns the largest event time the runtime has accepted
// (-1 before the first event). A statement registered now sees events
// from this watermark onward.
func (rt *Runtime) Watermark() Time { return rt.inner.Watermark() }

// Barrier flushes the reorder buffer (WithReorderSlack), applying
// every pending event in order; a no-op without slack. Lifecycle
// operations (Register, Handle.Close, Close) barrier implicitly.
func (rt *Runtime) Barrier() error { return rt.inner.Barrier() }

// ReorderPending returns the number of events currently held in the
// reorder buffer (0 without slack).
func (rt *Runtime) ReorderPending() int { return rt.inner.ReorderPending() }

// SetReorderSlack arms (or, with 0, disarms) the reorder buffer after
// construction — the imperative form of WithReorderSlack for callers
// handed an already-built Runtime. It must run before the first event
// is processed and fails once ingestion has started.
func (rt *Runtime) SetReorderSlack(slack Time) error { return rt.inner.SetReorderSlack(slack) }

// ReorderSlack reports the armed slack (0 when disarmed).
func (rt *Runtime) ReorderSlack() Time { return rt.inner.ReorderSlack() }

// RuntimeStats summarizes the runtime's multi-query topology, live
// statements only: how many are registered, how many distinct routing
// hashes each event costs (back at 0 once the last statement closed),
// and how far sharing collapsed them — SharedStatements statements
// subscribe to SharedGraphs graphs built for more than one subscriber.
type RuntimeStats = core.RuntimeStats

// Stats reports the runtime's current multi-query topology (see
// RuntimeStats). Per-statement runtime statistics live on the Handles.
func (rt *Runtime) Stats() RuntimeStats { return rt.inner.Stats() }

// Close flushes every registered statement — their remaining open
// windows emit through the usual delivery paths — rejects further
// events and registrations, and shuts down the WithMetricsAddr
// listener if one is armed. Idempotent.
func (rt *Runtime) Close() error {
	if rt.metLn != nil {
		// It only serves scrapes: a failed close loses nothing.
		_ = rt.metLn.Close()
	}
	return rt.inner.Close()
}

// Handle is one registered statement's lifecycle and result surface:
// close it to detach the statement mid-stream, consume results with
// the OnResult callback or the streaming Results iterator. It holds no
// results itself: OnResult, Results and Delivered are views of the
// statement's one delivery record, safe while results are delivered. A
// cluster Coordinator returns the same Handle; OnResult, Stats, DOT and
// Close say what differs there.
type Handle struct {
	st   *core.Stmt
	stmt *Statement
}

// handleOf is the Handle of a statement known by its plan alone (restored,
// or registered on a cluster): the plan's canonical text is its Query.
func handleOf(st *core.Stmt) *Handle {
	return &Handle{st: st, stmt: &Statement{query: st.Plan().Query, plan: st.Plan()}}
}

// ID returns the statement's identifier ("q<n>" unless WithID chose
// another).
func (h *Handle) ID() string { return h.st.ID() }

// Query returns the canonical text of the statement's query.
func (h *Handle) Query() string { return h.stmt.Query() }

// OnResult registers a callback invoked for every emitted result, as
// soon as its window closes. The callback runs on the ingest path (an
// internal goroutine under RunParallel, a link reader on a cluster) and
// must not call back into the Runtime, Coordinator or Handle. A result
// goes to the callback installed when it is delivered; nil clears it.
func (h *Handle) OnResult(f func(Result)) { h.st.OnResult(f) }

// Results streams the statement's results as windows close. The
// iterator yields every result emitted so far and then blocks until
// more arrive, returning when the statement (or runtime) is closed —
// consume it from its own goroutine while the stream is being fed, or
// after Close to drain everything. Multiple iterators each see the
// full result sequence: results are retained for the statement's
// lifetime, so close statements you are done with on unbounded streams —
// or register them WithoutRetention, in which case nothing is replayed:
// the iterator receives the results emitted from the moment Results is
// called (the subscription starts at the call, so grab the iterator
// before feeding the events it should observe), the statement holds the
// last few thousand results while an iterator is live and nothing once
// the last one has returned, and a consumer lagging further behind than
// that loses the oldest.
func (h *Handle) Results() iter.Seq[Result] { return h.st.Stream() }

// Delivered snapshots the results delivered so far, in emission order,
// without blocking (Results streams and waits for more). Statements
// registered WithoutRetention return nil — nothing is retained to
// snapshot. netstream uses it to re-deliver a session's retained
// results when a resuming client has fallen behind the replay window.
func (h *Handle) Delivered() []Result { return h.st.Delivered() }

// Stats returns the statement's runtime statistics. Call it between
// Process calls or after Close; it reads live engine state. For a
// statement served by a shared graph, the counters are identical to
// what a private engine would have accumulated. Results counts this
// statement's deliveries, and SharedStatements is how many statements
// the graph served when this one left it (or serves now), itself
// included — 1 for the last to leave, 0 only for a statement whose
// graph never had a second subscriber. On a cluster a partitioned
// statement's slot counters fold in when it closes; until then only
// OutOfOrder and Results move.
func (h *Handle) Stats() Stats { return h.st.Stats() }

// DOT renders the statement's live GRETA graph(s) in Graphviz DOT
// format — one box per vertex labeled "type+time : count" as in the
// paper's figures, with edges between adjacent trend events. Intended
// for debugging and teaching on small streams; call before Close
// expires the graph. On a cluster it renders the coordinator's graph,
// which is empty for a partitioned statement.
func (h *Handle) DOT() string { return h.st.Engine().DOT() }

// Close detaches the statement from the shared ingest mid-stream,
// flushing its open windows (their results are delivered before Close
// returns, and Results iterators then terminate). Other statements are
// not perturbed. Returns ErrStatementClosed if already closed. On a
// cluster the statement first closes on every shard.
func (h *Handle) Close() error { return h.st.Close() }
