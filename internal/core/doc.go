// Package core implements the GRETA runtime (paper §4.2, §5.2, §6, §7):
// the GRETA graph that compactly encodes all event trends of a query
// window, dynamic aggregate propagation along its edges, sliding-window
// sharing of sub-graphs, negation through dependent graphs with
// invalidation watermarks, stream partitioning for grouping, and the
// time-driven scheduler for inter-dependent graphs.
//
// What follows are the invariants of the multi-query Runtime and of
// graph sharing. They are statements about this package's code: a change
// that breaks one edits this file.
//
// # One statement shape
//
// A registered statement (Stmt) is a subscriber of a source: its id, the
// plan it registered with, its RETURN slot mapping, and the record of
// what was delivered to it. A source is one hosted graph: it
// owns the engine, the engine's place in the ingest (a member of its
// routeGroup, or rt.direct for a composite plan), the RunParallel
// cursor, and the sharing key and epoch it opened under. There is no
// other kind of statement. A statement registered alone is a source
// with one subscriber whose engine is compiled from the statement's own
// plan; a second statement with the same key registered in the same
// epoch is source.attach — append, recompile against the union
// aggregation definition (unite) — and from then on one bit, source.union,
// is all that tells the two apart: who computes RETURN values (the
// engine, or fanout per subscriber through Stmt.outs), whether
// Stats.SharedStatements is set, and where a checkpoint writes what was
// delivered.
//
//   - One delivery path. Engine.emit hands each closed window of a
//     hosted engine — group, wid, payload; no Result is built — to its
//     sink and nothing else: the engine retains nothing and calls no
//     callback of its own. A source's sink is source.fanout, which builds
//     the Result once and calls Stmt.deliver for each subscriber; a
//     composite engine is the sink of its sub-engines and files their
//     partials straight into its merger. A ShardHost unit is a NoRetain
//     subscriber whose callback ships partials. Nothing but
//     source.setEngine sets a hosted engine's sink (TestStmtCallbackOwner).
//   - One delivery record. Stmt.deliver appends to the only structure
//     that knows what a statement was handed — results base, base+1, … in
//     emission order, the callback slot, the closed flag — behind Stmt.mu,
//     taken once per result; the callback runs outside it. Everything
//     above is a view of it: greta.Handle holds a *Stmt (on a cluster too)
//     and no results, lock or flag of its own, Restore copies nothing, a
//     checkpoint writes the record where an engine's own emissions would
//     go, the netstream session's rebase re-delivers Stmt.Delivered() —
//     all safe while results are being delivered
//     (TestClusterHandleConcurrent). A reader is a sequence cursor
//     (Stmt.Stream): it yields results[pos-base], waits on the cond, and
//     returns once the statement is closed and drained. Cursors index the
//     record, so it is never reordered: whoever wants (group, window) order
//     sorts a copy. A retaining statement's base stays 0 and its
//     cursors replay from 0. A NoRetain statement's record holds nothing —
//     a delivery is base++, no allocation — unless a cursor is live: then
//     the newest tailMax (4096) results at most, a cursor starting at the
//     count when it was opened and skipping past what was dropped, and
//     the last cursor to return takes the tail with it (TestStmtRecord).
//   - One way to end. Stmt.finish: a statement leaving while its source
//     serves others emits its open windows from a peek (the window sweep
//     below; the graph is bit-for-bit undisturbed for the others) and
//     freezes its stats; the last subscriber, or all of them at once under
//     Runtime.Close, retires the source: one destructive flush through
//     the fan-out, the source leaves its route group, an emptied group
//     leaves rt.groups, the key forgets the source. Then closed is set
//     under both rt.mu and Stmt.mu, which wakes the cursors. A cluster
//     statement's Close runs its coordinator's hook (SetCloseHook) first:
//     every slot's release and stats fold, then this local close.
//   - Stats.SharedStatements is the number of statements the graph
//     served when this one left (or serves now), itself included: 2 and
//     then 1 as a two-subscriber union is closed one by one, 0 only for a
//     statement whose source was never a union. RuntimeStats counts live
//     statements only and RouteGroups returns to 0 with the last of
//     them (TestStmtLifecycle holds every hosting shape to the same
//     table).
//
// # Ingest
//
//   - Shared hash per route signature. Sources whose plans share a
//     partition-attribute list (routeGroup) share one FNV-1a hash per
//     event; engines receive it via ProcessRouted and never rehash.
//     Steady-state Process with several statements is 0-alloc
//     (TestNoHotPathAllocs).
//   - Watermark-gated lifecycle. A source opened at watermark T has its
//     engine cursor seeded to T: its statements see only events ≥ T and
//     never a window that closed before (TestRuntimeDifferential,
//     TestRuntimeMidStream*).
//   - Error-returning ingest. A late event is forwarded so every engine
//     counts the drop, and reported as *OrderError (errors.Is
//     ErrOutOfOrder); a closed runtime returns ErrClosed.
//   - One emit path. A window's Result is built in Engine.result and
//     leaves an engine in Engine.emit. SlotMerge — per-window, per-group
//     partials of N slots, emitted once every slot released the window —
//     has three drivers told apart only by the fold function: RunParallel
//     and the cluster coordinator (slots are workers over disjoint
//     partitions, fold is Def.Merge in slot order) and a composite Engine
//     (slots are its branch then product engines, fold is
//     Engine.compose). Every statement delivers in ascending (wid, group)
//     order as windows close.
//   - One window clock. Engine.closeUpTo(t) is the only place either plan
//     kind closes windows: Process and every batch row reach it through
//     admit (a pre-filtered skip span once, at its tail), AdvanceTo is
//     "if t > prevTime, closeUpTo(t)". A simple plan
//     sweeps its partitions; a composite advances its sub-engines to t —
//     they file their closed windows' partials into the merger — and acks
//     the closed windows on every slot, so its merger is empty whenever
//     control returns to the caller, which is why the checkpoint has no
//     merger section.
//   - One window sweep. Engine.sweep is the only routine that walks the
//     partitions to close (closeUpTo), flush (Flush) or peek (a subscriber
//     leaving a shared graph). One pass, partitions in creation order; per
//     partition it samples the footprint into the engine-level peaks
//     (close, flush), folds every pending invalidation (flush), takes
//     graph 0's windows up to the bound through Graph.take — consumed, or
//     for a peek a clone of the incremental final, no window consumed and
//     nothing folded — and advances every graph to t (close). The windows
//     taken are a prefix of the graph's finals, a slice of (wid, final)
//     kept in ascending wid order (an END vertex finds or inserts its
//     windows' entries from the tail; at most ⌈WITHIN/SLIDE⌉ are open), so
//     a time gap costs the windows that hold a final, not one walk per
//     window it spans, and no partition sorts its wids. A window's
//     payloads merge per group in partition order, the first one taken
//     being the merge target and the rest going back to the pool: the
//     order every earlier close merged in, so native float sums keep their
//     bits. Windows go to the sink ascending, groups sorted within each.
//     The scratch — a wid → group → payload map, spare group maps, a wid
//     and a name slice for that last ordering — lives on the Engine and is
//     reused close to close, because a close that built it afresh
//     allocated per window and per group on the path every window takes
//     (TestNoHotPathAllocs/window-close; ROADMAP item 2(a)).
//   - One segment, every processor. A batch segment's route-group sources
//     sweep it on the ProcessBatch caller plus min(GOMAXPROCS, sources) −
//     1 helper goroutines; each claims, dearest first by each source's
//     previous sweep, the sources whose previous sweep ran on its
//     processor, then any left (segFan, TestSegFanClaim), so an engine's
//     memory stays in one processor's cache from segment to segment;
//     below fanMinRows (64) rows there are no helpers and the caller runs
//     the same code alone — no option, no env var. A sweep only reads what
//     engines share: the batch, its rows and columns, their event.Schema
//     (safe for concurrent reads), the plans. Everything it writes is per
//     engine — payload, vertex and node pools, compiled specs with their
//     accessor caches, the partition table and memo, the pre-filter cache,
//     the sweep scratch, Stats — or per source: the sweep's cost and
//     processor, the parked results, a recovered panic. Delivery is
//     deferred to the join: source.fanout builds a window's Result where
//     the window closes but parks it on the source while a segment is in
//     flight, and after the join the caller delivers the parked results in
//     rt.groups / members
//     order, the engine-major order one goroutine delivers in, then runs
//     rt.direct row by row. Stmt.deliver, callbacks and Stream cursors run
//     on the caller only, no delivery order changes, and checkpoints fire
//     between segments (TestBatchFanoutDifferential, with one processor
//     and several). A panic on a helper is recovered with its stack, and
//     the caller writes the stack to stderr and re-raises the panic's own
//     value after the join, so a netstream connection still reports it; a
//     panic in the caller's own sweep unwinds with its own frames once the
//     helpers are joined (TestBatchFanoutHelperPanic). A panic in a
//     callback drops the segment's undelivered results: none is delivered
//     twice or late (TestBatchFanoutCallbackPanic). Process,
//     ShardHost, RunParallel and the cluster never fan out. The fan-out
//     allocates nothing of its own on a steady 1 024-row batch; the Go
//     runtime's goroutine starts and waits come to fewer than one
//     allocation a batch (TestNoHotPathAllocs/batch-fanout).
//   - One partitioned-execution core. RunParallel's workers are
//     in-process ShardHosts, the worker slot a cluster shard session
//     hosts; its parallel units are the sources of partitioned simple
//     plans (a graph runs once per slot, whoever subscribes), everything
//     else runs inline. The feed loop broadcasts a per-unit window
//     barrier before the event that closes the window, workers release
//     and ack, one SlotMerge per unit emits through the source's engine,
//     Stmt.FoldRemoteStats folds the slots' counters. The cluster
//     coordinator drives the same three pieces over TCP, so
//     cluster≡RunParallel holds by construction.
//
// # Sharing
//
//   - Key = trend-formation identity (share.Key): canonical query text
//     without RETURN, arithmetic mode, forced-scan bit. Equal keys imply
//     bit-identical trend sets and traversal stats; only RETURN may
//     diverge. Conservative on purpose: reordered WHERE conjuncts pick
//     another Vertex Tree sort attribute, so they do not share.
//   - Union definition. A union engine is compiled with Plan.Specs nil
//     against one aggregate.Def carrying every subscriber's slots
//     (Def.PlanSpecs deduplicates); slot arithmetic is independent per
//     slot, so each subscriber's values are bit-identical to a private
//     engine's.
//   - Cold attach only. rt.epoch advances once per ingested event
//     (dropped ones included); rt.shared[key] is the source opened last
//     under key, and it takes a subscriber only while rt.epoch is still
//     the epoch it opened in — no event has reached its engine, which is
//     what makes recompiling it legal. A statement registered mid-stream
//     never joins a warm graph (it would inherit history its watermark
//     contract forbids); it opens a new source under the same key, which
//     same-position registrations join. Restored sources are warm.
//   - What does not share (shareKey ""): composite plans, negative
//     sub-patterns (len(Plan.Subs) > 1), StmtConfig.Share off. Forced-scan
//     statements share only with each other.
//   - Checkpoints (format version 3) write a statement outside a union
//     as the record followed by its source's engine, with what was
//     delivered — count and retained results, in emission order — where
//     the engine's emission count and result list go; a union's
//     subscribers carry their own and name the entry whose one engine
//     follows the statements. restoreLocked rebuilds topology by
//     calling subscribe — the routine Register calls — in recorded order.
//     Known defect, older than this layout: a union that shrank while
//     warm keeps the departed subscriber's slots, the snapshot does not
//     say which they were, and a restore lays the survivors' slots out
//     afresh — wrong values when the departed one's came first (ROADMAP
//     open item 1).
//   - Guards: TestSharedStatementsDifferential / MidStream / Parallel /
//     Disqualified, TestRecoveryTopology, TestCheckpointGolden,
//     TestStmtLifecycle, TestStmtLifecycleAttachWindow,
//     TestNoHotPathAllocs/shared-statements, TestSharingEngagement.
package core
