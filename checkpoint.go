package greta

import (
	"io"

	"github.com/greta-cep/greta/internal/checkpoint"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
)

// ErrNoCheckpoint reports a Restore from a directory holding no valid
// checkpoint file.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// WithCheckpoint arms watermark-aligned durability: before applying
// the first event at or past each multiple of every, the runtime
// advances all statements to that boundary and atomically writes a
// checksummed snapshot of its full recoverable state into dir (temp
// file + fsync + rename; the two most recent generations are kept).
// After a crash, Restore(dir) rebuilds the runtime; replaying every
// event with Time >= the returned ReplayFrom reproduces the
// uninterrupted run bit for bit — results, Stats counters, and summary
// folds. every must be positive (NewRuntime panics otherwise); pick a
// multiple of the statements' SLIDE so boundaries fall where pane
// state is minimal. Snapshot writes happen on the ingest path but
// only at boundaries — the steady per-event path stays allocation-
// and syscall-free. A failed write is reported to the
// WithCheckpointErrors callback and does not stop ingestion: the
// previous generation remains valid, so a fault costs at most the
// events since the last successful checkpoint — which the feeder was
// replaying anyway.
func WithCheckpoint(dir string, every Time) RuntimeOption {
	return func(c *runtimeConfig) {
		c.ckDir = dir
		c.ckEvery = every
	}
}

// WithCheckpointErrors routes checkpoint-write failures to f (they are
// otherwise silent: ingestion continues on the previous generation).
// f runs on the ingest path with the runtime lock held — it must not
// call back into the Runtime or its Handles.
func WithCheckpointErrors(f func(error)) RuntimeOption {
	return func(c *runtimeConfig) { c.ckErr = f }
}

// SetCheckpointMeta registers an opaque session-meta provider: f runs
// at snapshot-encode time (on the ingest path, runtime lock held — it
// must not call back into the Runtime) and its bytes are embedded in
// the checkpoint header, surfacing again as Restored.Meta. Serving
// layers use it to persist session identity and sequence cursors
// atomically with the engine state they describe (netstream stores the
// session id and last-applied event sequence this way). nil clears the
// provider; a restored runtime re-encodes the snapshot's blob until a
// new provider is set.
func (rt *Runtime) SetCheckpointMeta(f func() []byte) { rt.inner.SetCheckpointMeta(f) }

// armCheckpoint wires a generational Store under dir into the core
// checkpoint schedule. from < 0 starts a fresh schedule; a restored
// runtime passes its replay bound so the cadence resumes unchanged.
func (rt *Runtime) armCheckpoint(dir string, every, from Time, onErr func(error)) error {
	store := &checkpoint.Store{Dir: dir}
	save := func(_ event.Time, snapshot func(io.Writer) error) error {
		_, err := store.Write(snapshot)
		return err
	}
	return rt.inner.SetCheckpoint(every, from, save, onErr)
}

// CheckpointArmed reports whether a scheduled checkpoint cadence is
// armed on this runtime (WithCheckpoint, or a Restore that re-armed
// the snapshot's interval). Serving layers use it to decide whether a
// snapshot can fire mid-way through a multi-row ingest frame.
func (rt *Runtime) CheckpointArmed() bool { return rt.inner.CheckpointArmed() }

// Checkpoint writes an immediate snapshot (outside the boundary
// schedule) to the directory configured by WithCheckpoint, returning
// an error if checkpointing is not configured or the write fails.
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
	Handles    []*Handle
	ReplayFrom Time
	// Meta is the opaque session-meta blob the snapshot carried
	// (SetCheckpointMeta); nil when none was set.
	Meta []byte
	// ReorderPending reports how many in-flight events were rehydrated
	// into the reorder buffer (the snapshot's disorder window). With
	// slack armed, the time-based ReplayFrom contract extends to them:
	// replayed events that were already pending are deduplicated by
	// event ID, so feeding Time >= ReplayFrom neither loses nor doubles
	// the window — sequence-based replay (netstream sessions) needs no
	// dedup at all.
	ReorderPending int
}

// Restore rebuilds a Runtime from the newest valid checkpoint in dir,
// verifying checksums and falling back to the previous generation if
// the newest file is torn or corrupt (ErrNoCheckpoint when none
// survives). Checkpointing is re-armed automatically with the interval
// the snapshot was written under, into the same dir — pass
// WithCheckpoint to override either. Statement ids, options, shared
// sub-plan topology, partition state, and watermarks are restored;
// feeding events with Time >= ReplayFrom resumes the run exactly.
func Restore(dir string, opts ...RuntimeOption) (*Restored, error) {
	var cfg runtimeConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	store := &checkpoint.Store{Dir: dir}
	body, _, err := store.Load()
	if err != nil {
		return nil, err
	}
	inner, info, err := core.RestoreRuntime(body)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{inner: inner}

	stmts := inner.Statements()
	handles := make([]*Handle, 0, len(stmts))
	for _, st := range stmts {
		handles = append(handles, handleOf(st))
	}

	ckDir, every := dir, info.Every
	if cfg.ckDir != "" {
		ckDir = cfg.ckDir
		every = cfg.ckEvery
	}
	if every > 0 {
		if err := rt.armCheckpoint(ckDir, every, info.ReplayFrom, cfg.ckErr); err != nil {
			return nil, err
		}
	}
	if err := rt.armObs(&cfg); err != nil {
		return nil, err
	}
	return &Restored{
		Runtime: rt, Handles: handles, ReplayFrom: info.ReplayFrom,
		Meta: info.Meta, ReorderPending: info.ReorderPending,
	}, nil
}
