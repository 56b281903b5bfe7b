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
// plan it registered with, its RETURN slot mapping, the results delivered
// to it, their count, its callback. A source is one hosted graph: it
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
//   - One delivery path. Engine.emit hands each result of a hosted
//     engine to its sink and nothing else — the engine retains nothing
//     and calls no callback of its own — the sink is source.fanout, and
//     fanout calls Stmt.deliver (count, retain unless NoRetain, callback)
//     for each subscriber. A ShardHost unit is a NoRetain subscriber
//     whose callback ships partials; a composite engine is the sink of
//     its sub-engines. Nothing but source.setEngine sets a hosted
//     engine's sink (TestStmtCallbackOwner).
//   - One way to end. Stmt.finish: a statement leaving while its source
//     serves others emits its open windows from a peek
//     (Engine.peekFlushInto → Graph.PeekWindow: cloned incremental
//     finals; no FoldAll, no window consumption, no peak sampling — the
//     graph is bit-for-bit undisturbed for the others) and freezes its
//     stats; the last subscriber, or all of them at once under
//     Runtime.Close, retires the source: one destructive flush through
//     the fan-out, the source leaves its route group, an emptied group
//     leaves rt.groups, the key forgets the source.
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
//     Engine.compose). Every entry that moves a composite's clock ends in
//     Engine.release, so its merger is empty whenever control returns to
//     the caller — which is why the checkpoint has no merger section.
//     Every statement delivers in ascending (wid, group) order as windows
//     close; Results() is (group, wid)-sorted once closed.
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
//     delivered in the engine's emission count and result list; a
//     union's subscribers carry their own and name the entry whose one
//     engine follows the statements. restoreLocked rebuilds topology by
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
