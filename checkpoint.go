package greta

import (
	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/core"
)

// ErrNoCheckpoint reports a Restore from a directory holding no valid
// checkpoint file.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// WithCheckpoint arms watermark-aligned durability: before applying
// the first event at or past each multiple of every, the runtime
// advances all statements to that boundary and encodes a snapshot of
// its full recoverable state, then writes it atomically and
// checksummed into dir (temp file + fsync + rename; the two most
// recent generations are kept). The encode runs on the ingest path,
// the write on a goroutine of its own: ingestion continues while it
// runs, and the snapshot is durable by the next boundary, Checkpoint or
// Close, each of which waits for it (one write is in flight at most).
// After a crash, Restore(dir) rebuilds the runtime from the newest
// durable snapshot — the last boundary's or, if its write was still in
// flight, the one before; replaying every event with Time >= the
// returned ReplayFrom reproduces the uninterrupted run bit for bit —
// results, Stats counters, and summary folds. every must be positive
// (NewRuntime panics otherwise); pick a multiple of the statements'
// SLIDE so boundaries fall where pane state is minimal. The steady
// per-event path stays allocation- and syscall-free. A failed write is
// reported to the WithCheckpointErrors callback and does not stop
// ingestion: the previous generation remains valid, so a fault costs
// at most the events since the last durable checkpoint — which the
// feeder was replaying anyway.
func WithCheckpoint(dir string, every Time) RuntimeOption {
	return func(c *runtimeConfig) {
		c.ckDir = dir
		c.ckEvery = every
	}
}

// WithCheckpointErrors routes checkpoint-write failures to f (they are
// otherwise silent: ingestion continues on the previous generation).
// A boundary's failure is reported where its write is waited for — the
// next boundary, Checkpoint or Close — and f runs there, on the ingest
// path with the runtime lock held: it must not call back into the
// Runtime or its Handles.
func WithCheckpointErrors(f func(error)) RuntimeOption {
	return func(c *runtimeConfig) { c.ckErr = f }
}

// SetCheckpointMeta registers an opaque session-meta provider: f runs
// at snapshot-encode time (on the ingest path, runtime lock held — it
// must not call back into the Runtime) and its bytes are embedded in
// the checkpoint header, surfacing again as Restored.Meta. Serving
// layers use it to persist session identity and sequence cursors
// atomically with the engine state they describe (netstream stores the
// session id and last-applied event sequence this way). A snapshot
// that fires inside a ProcessBatch call contains the batch's first
// batchRows rows, those offered before the row being applied, of which
// batchAccepted were accepted and the rest dropped as late; inside
// Process and between calls both are 0. A caller that commits its
// cursors after each call adds them to those cursors. nil clears the
// provider; a restored runtime re-encodes the snapshot's blob until a
// new provider is set.
func (rt *Runtime) SetCheckpointMeta(f func(batchRows, batchAccepted int) []byte) {
	rt.inner.SetCheckpointMeta(f)
}

// checkpointFS is the filesystem checkpoint stores write and read; nil
// is the real one. Tests swap in a fault-injecting one.
var checkpointFS checkpoint.FS

// Checkpoint writes an immediate snapshot (outside the boundary
// schedule) to the directory configured by WithCheckpoint and returns
// once it is durable, after the boundary snapshot still in flight, if
// any; it returns an error if checkpointing is not configured or its
// write fails (a failed boundary write goes to WithCheckpointErrors).
// Unlike scheduled boundary snapshots, replay after restoring a manual
// checkpoint is exact only when event timestamps strictly increase or
// the stream is quiescent at the call; with ties at the current
// watermark, windows already closed for the snapshotted prefix are
// closed again during replay. netstream exposes this as the
// {"cmd":"checkpoint"} command.
func (rt *Runtime) Checkpoint() error { return rt.inner.CheckpointNow() }

// Restored is a runtime rebuilt from a checkpoint: the Runtime itself
// (embedded — feed it directly), one Handle per statement in original
// registration order, and the inclusive replay bound. The recovery
// contract: feed every original event with Time >= ReplayFrom and the
// results, Stats counters, and summary folds match the uninterrupted
// run bit for bit.
//
// Restored handles deliver replayed and future results through the
// usual OnResult/Results surfaces; with retention (composite statements
// included: they emit per window too) the results emitted before the
// checkpoint are available again through Results and Delivered, in the
// order they were emitted. Result callbacks are not persisted:
// re-register them via Handle.OnResult before the replay. What a
// WithoutRetention statement holds for its live iterators is
// intentionally not checkpointed — the mode's contract is bounded
// memory, not durability.
type Restored struct {
	*Runtime
	Handles []*Handle
	// ReplayFrom is the replay bound. With slack armed it covers the
	// disorder window the snapshot rehydrated into the reorder buffer
	// (Metrics().ReorderPending counts it): replayed events that were
	// already pending are deduplicated by event ID, so feeding Time >=
	// ReplayFrom neither loses nor doubles the window — sequence-based
	// replay (netstream sessions) needs no dedup at all.
	ReplayFrom Time
	// Meta is the opaque session-meta blob the snapshot carried
	// (SetCheckpointMeta); nil when none was set.
	Meta []byte
}

// Restore rebuilds a Runtime from the newest valid checkpoint in dir,
// verifying checksums and falling back to the previous generation if
// the newest file is torn or corrupt (ErrNoCheckpoint when none
// survives). The checkpoint schedule resumes at ReplayFrom with the
// interval the snapshot was written under, into the same dir — pass
// WithCheckpoint to override both (a non-positive interval turns it
// off). WithReorderSlack arms a buffer as in NewRuntime, but a snapshot
// written with one brings back its own, slack and pending events.
// Statement ids, options, shared sub-plan topology, partition state and
// watermarks are restored; feeding Time >= ReplayFrom resumes exactly.
func Restore(dir string, opts ...RuntimeOption) (*Restored, error) {
	cfg, copts := newRuntimeConfig(opts)
	body, _, err := (&checkpoint.Store{Dir: dir, FS: checkpointFS}).Load()
	if err != nil {
		return nil, err
	}
	// Interval 0 resumes the snapshot's; a non-positive override stays off.
	switch {
	case cfg.ckDir == "":
		copts = append(copts, core.WithCheckpoint(0, &checkpoint.Store{Dir: dir, FS: checkpointFS}, cfg.ckErr))
	case cfg.ckEvery > 0:
		copts = append(copts, core.WithCheckpoint(cfg.ckEvery, &checkpoint.Store{Dir: cfg.ckDir, FS: checkpointFS}, cfg.ckErr))
	}
	inner, info, err := core.RestoreRuntime(body, copts...)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{inner: inner}

	stmts := inner.Statements()
	handles := make([]*Handle, 0, len(stmts))
	for _, st := range stmts {
		handles = append(handles, handleOf(st))
	}

	if err := rt.serveMetrics(cfg.metricsAddr); err != nil {
		return nil, err
	}
	return &Restored{
		Runtime: rt, Handles: handles, ReplayFrom: info.ReplayFrom,
		Meta: info.Meta,
	}, nil
}
