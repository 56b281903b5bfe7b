package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// Result is one final aggregate: per group, per window (paper
// Definition 2: "These trends are grouped by the values of G. An
// aggregate is computed per group"; §6: "Final aggregate is computed
// per window").
//
// Group carries the GROUP-BY attribute values. Equivalence attributes
// ([company, sector]) partition trend formation but do not appear in
// the output grouping unless they are also GROUP-BY attributes: Q1
// forms down-trends per company yet reports one count per sector.
type Result struct {
	Group       string
	Wid         int64
	WindowStart event.Time
	WindowEnd   event.Time
	// Values holds one value per RETURN aggregate, in query order.
	Values []float64
	// Payload is the raw final payload (exact values in ModeExact).
	Payload *aggregate.Payload
	// Emitted is the wall-clock emission instant, used by the harness to
	// measure latency.
	Emitted time.Time
}

// Stats aggregates runtime statistics over all partitions and graphs.
// PeakVertices/PeakPayloads are the engine-level concurrent peaks,
// sampled at window boundaries (and at flush): the true maximum of
// simultaneously stored state, not the sum of per-partition peaks that
// occurred at different times. After RunParallel they are the sum of
// the workers' sampled peaks — an upper bound, since workers run
// concurrently but peak at different instants.
type Stats struct {
	Events     uint64
	OutOfOrder uint64 // events dropped for violating time order
	Inserted   uint64
	Edges      uint64 // logical edges, however aggregated
	// ScanVisits / SummaryFolds / SummaryRebuilds split the cost of
	// maintaining Edges into materialized per-vertex visits, O(1)
	// summary folds (each fold covers any number of logical edges), and
	// lazy in-place pane-summary rebuilds after invalidation watermark
	// advances; see GraphStats.
	ScanVisits      uint64
	SummaryFolds    uint64
	SummaryRebuilds uint64
	PeakVertices    uint64
	PeakPayloads    uint64
	// PrefilterSkips counts batch-ingest rows the vectorized predicate
	// pre-filter proved unable to match any state, skipping partition
	// graph insertion entirely (the row is still counted in Events and
	// advances every clock, so results and all other counters are
	// bit-identical to the per-event path). Not serialized in
	// checkpoints: the batch segmentation of a replay may differ from
	// the original run's, and checkpoint bytes must not.
	PrefilterSkips uint64
	Partitions     int
	// Results counts emitted results. It is a counter, not len(results):
	// a statement registered without retention still reports every
	// emission here.
	Results int
	// SharedStatements is the number of statements served by this
	// statement's graph through the shared sub-plan network, including
	// itself; 0 for a statement owning its engine exclusively. Set at
	// the statement level (Stmt.Stats) — engines do not know their
	// subscribers.
	SharedStatements int
}

// partition holds the dependent GRETA graphs of one stream partition
// (one combination of grouping and equivalence attribute values).
type partition struct {
	graphs []*Graph
	// group is the output grouping key (GROUP-BY attributes only).
	group string
	// key is the interned display form of the partition key, built once
	// at creation (debug rendering and deterministic iteration order).
	key string
	// pk holds the typed partition-key values for hash-collision
	// verification: routing is hash-first, so two distinct keys landing
	// on the same 64-bit hash are told apart by comparing against pk.
	pk partKey
}

// partKey is the typed identity of a partition: one entry per
// partitioning attribute, tagged by kind. Numbers compare by bit
// pattern (matching the hash), strings by value.
type partKey struct {
	kinds []uint8 // pkMissing, pkNum, or pkStr per attribute
	nums  []uint64
	strs  []string
}

const (
	pkMissing uint8 = iota
	pkNum
	pkStr
)

// Engine executes a compiled Plan over an in-order event stream
// (the GRETA Runtime, paper Fig. 4).
type Engine struct {
	plan *Plan

	// simple plan state: hash-first partition routing. parts maps the
	// 64-bit partition-key hash to its (almost always singleton)
	// collision chain; partList keeps creation order for iteration.
	parts    map[uint64][]*partition
	partList []*partition
	order    []int // graph processing order: negatives before parents

	// routeAcc reads the partitioning attributes (schema-compiled when
	// events carry schemas); single-owner per engine.
	routeAcc []event.Accessor

	// cspecs holds the per-engine compiled form of each plan sub-spec,
	// shared by that spec's graphs across all partitions.
	cspecs []*compiledSpec

	// prefilters caches the per-schema vectorized predicate pre-filter
	// of the batch ingest path, including its pooled selection bitmaps
	// (one entry per distinct batch schema seen; linear scan — batch
	// sources use a handful of schemas at most). See batch.go.
	prefilters []*batchPrefilter

	// partCache is the batch path's direct-mapped memo in front of the
	// e.parts probe, exploiting partition-key locality within a batch.
	// Partitions are never removed, so entries stay valid for the
	// engine's lifetime; a hit is proven by exact key words or verified
	// value-for-value, so fingerprint collisions fall through to the
	// chain probe. Lazily allocated on the first processSegment; never
	// serialized (pure cache).
	partCache []partCacheEnt

	// routeSlotCaches resolves routeAcc against each batch schema seen
	// (see routeSlotsFor; linear scan like prefilters).
	routeSlotCaches []routeSlotCache

	// composite plan state (disjunction / conjunction, §9)
	branchEngines  []*Engine
	productEngines []*Engine

	partAttrs []string // partition key attributes (group-by + equivalence)

	prevTime event.Time // window-close cursor

	// forceScan disables the summary fast path in all graphs (see
	// SetForceVertexScan).
	forceScan bool

	// noRetain drops emitted results after the OnResult callback instead
	// of collecting them in results — RunParallel workers stream their
	// per-window partials to the merger and must not buffer the whole
	// run (bounded worker buffers).
	noRetain bool

	onResult func(Result)
	results  []Result
	// emitted counts emissions independently of retention (Stats.Results
	// must not collapse to zero when noRetain drops the slice).
	emitted int

	stats Stats
}

// NewEngine builds an engine for plan.
func NewEngine(plan *Plan) *Engine {
	e := &Engine{plan: plan, parts: map[uint64][]*partition{}, prevTime: -1}
	e.partAttrs = append(append([]string{}, plan.GroupBy...), plan.Query.Equivalence...)
	e.routeAcc = make([]event.Accessor, len(e.partAttrs))
	for i, a := range e.partAttrs {
		e.routeAcc[i] = event.NewAccessor(a)
	}
	if !plan.Simple() {
		for _, bp := range plan.Branches {
			e.branchEngines = append(e.branchEngines, NewEngine(bp))
		}
		for _, pp := range plan.Products {
			e.productEngines = append(e.productEngines, NewEngine(pp))
		}
		return e
	}
	// Dependency order: deeper (negative) graphs first. Split appends
	// children after parents, so descending index order processes every
	// negative graph before the graphs that depend on it — the §7
	// stream-transaction ordering guarantee, fixed at plan time.
	for i := len(plan.Subs) - 1; i >= 0; i-- {
		e.order = append(e.order, i)
	}
	// Compile each sub-spec once per engine; partitions share the result.
	e.cspecs = make([]*compiledSpec, len(plan.Subs))
	for i, spec := range plan.Subs {
		e.cspecs[i] = newCompiledSpec(spec, plan.Subs, plan.Sem)
	}
	return e
}

// SetForceVertexScan disables the pane-summary/subtree-fold fast path:
// every candidate predecessor is visited per vertex, as if the trees
// were unaugmented. Results are identical either way (the differential
// tests lock this in); the knob exists for those tests and for
// debugging. Call before the first Process.
func (e *Engine) SetForceVertexScan(on bool) {
	e.forceScan = on
	for _, be := range e.branchEngines {
		be.SetForceVertexScan(on)
	}
	for _, pe := range e.productEngines {
		pe.SetForceVertexScan(on)
	}
}

// OnResult registers a callback invoked for every emitted result (as
// soon as the window closes). Results are also collected for Results().
func (e *Engine) OnResult(f func(Result)) { e.onResult = f }

// attrKey concatenates the named attribute values of an event. Map
// probes come first (legacy rendering, including its NaN form); a
// map-free batch row falls through to its dense schema slots, which
// render identically for every value a batch can represent (AppendEvent
// rejects the NaN/"" collisions), so a partition keyed by a batch row
// interns the same display key a map-carried event would.
func attrKey(ev *event.Event, attrs []string) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		if s, ok := ev.Str[a]; ok {
			b.WriteString(s)
		} else if v, ok := ev.Attrs[a]; ok {
			fmt.Fprintf(&b, "%g", v)
		} else if ev.Sch != nil {
			if si := ev.Sch.StrSlot(a); si >= 0 && si < len(ev.StrV) && ev.StrV[si] != "" {
				b.WriteString(ev.StrV[si])
			} else if ni := ev.Sch.NumSlot(a); ni >= 0 && ni < len(ev.Num) && !math.IsNaN(ev.Num[ni]) {
				fmt.Fprintf(&b, "%g", ev.Num[ni])
			}
		}
	}
	return b.String()
}

// newPartition instantiates the graphs of one partition and wires
// dependencies. The display key and group strings are interned here,
// once per partition — never on the per-event path.
func (e *Engine) newPartition(ev *event.Event) *partition {
	return e.newPartitionFromKey(attrKey(ev, e.partAttrs), e.buildPartKey(ev))
}

// newPartitionFromKey builds a partition from an already-materialized
// key (checkpoint restore rebuilds partitions from serialized keys, no
// event in hand; newPartition derives both from the triggering event).
func (e *Engine) newPartitionFromKey(key string, pk partKey) *partition {
	p := &partition{
		graphs: make([]*Graph, len(e.plan.Subs)),
		group:  groupPrefix(key, len(e.plan.GroupBy), len(e.partAttrs)),
		key:    key,
		pk:     pk,
	}
	for i, spec := range e.plan.Subs {
		p.graphs[i] = newGraph(spec, e.cspecs[i], e.plan.Window, e.plan.Sem)
		p.graphs[i].forceScan = e.forceScan
	}
	for i, spec := range e.plan.Subs {
		for _, dep := range spec.Deps {
			p.graphs[i].addDep(p.graphs[dep], dep)
		}
	}
	return p
}

// groupPrefix returns the prefix of the interned partition key that
// covers its first n of total \x1f-separated segments — the GROUP-BY
// attributes lead the partition-attribute list, so the group string is
// a substring of the key (no extra interning).
func groupPrefix(key string, n, total int) string {
	if n == 0 {
		return ""
	}
	if n >= total {
		return key
	}
	seen := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			seen++
			if seen == n {
				return key[:i]
			}
		}
	}
	return key
}

// routeHash computes the 64-bit partition-routing hash of an event
// directly from its attribute values (FNV-1a over kind-tagged values) —
// no key string is built. Events bound to a schema are read by dense
// slot; schemaless events fall back to map probes.
//
// Partition identity is typed (see partKey): a missing attribute, an
// empty-string value, and a numeric value are three distinct keys.
// This is deliberately stricter than the legacy string rendering,
// which conflated missing with "" and Str "5" with Attrs 5 — those
// degenerate keys no longer share a partition
// (TestTypedPartitionIdentity locks this in).
func (e *Engine) routeHash(ev *event.Event) uint64 {
	return hashRoute(e.routeAcc, ev)
}

// hashRoute is routeHash over an explicit accessor set: the Runtime
// computes it once per distinct partition-attribute signature and
// forwards the hash to every engine sharing that signature.
func hashRoute(acc []event.Accessor, ev *event.Event) uint64 {
	h := uint64(14695981039346656037)
	for i := range acc {
		a := &acc[i]
		if s, ok := a.Str(ev); ok {
			h = hashByte(h, pkStr)
			for j := 0; j < len(s); j++ {
				h = hashByte(h, s[j])
			}
		} else if f, ok := a.Float(ev); ok {
			h = hashByte(h, pkNum)
			h = hashU64(h, math.Float64bits(f))
		} else {
			h = hashByte(h, pkMissing)
		}
	}
	return h
}

// hash recomputes the routing hash of an already-captured partition
// key. It must stay byte-for-byte equivalent to hashRoute so restored
// partitions land in the same chain a live event would probe.
func (pk *partKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i, kind := range pk.kinds {
		switch kind {
		case pkStr:
			h = hashByte(h, pkStr)
			s := pk.strs[i]
			for j := 0; j < len(s); j++ {
				h = hashByte(h, s[j])
			}
		case pkNum:
			h = hashByte(h, pkNum)
			h = hashU64(h, pk.nums[i])
		default:
			h = hashByte(h, pkMissing)
		}
	}
	return h
}

func hashByte(h uint64, b uint8) uint64 {
	h ^= uint64(b)
	h *= 1099511628211
	return h
}

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, uint8(v))
		v >>= 8
	}
	return h
}

// buildPartKey captures the typed partition-key values of ev (partition
// creation only).
func (e *Engine) buildPartKey(ev *event.Event) partKey {
	k := partKey{kinds: make([]uint8, len(e.routeAcc))}
	for i := range e.routeAcc {
		a := &e.routeAcc[i]
		if s, ok := a.Str(ev); ok {
			if k.strs == nil {
				k.strs = make([]string, len(e.routeAcc))
			}
			k.kinds[i], k.strs[i] = pkStr, s
		} else if f, ok := a.Float(ev); ok {
			if k.nums == nil {
				k.nums = make([]uint64, len(e.routeAcc))
			}
			k.kinds[i], k.nums[i] = pkNum, math.Float64bits(f)
		}
	}
	return k
}

// keyMatches verifies that ev carries exactly the partition-key values
// of pk (collision check after the hash lookup). Allocation-free.
func (e *Engine) keyMatches(pk *partKey, ev *event.Event) bool {
	for i := range e.routeAcc {
		a := &e.routeAcc[i]
		if s, ok := a.Str(ev); ok {
			if pk.kinds[i] != pkStr || pk.strs[i] != s {
				return false
			}
		} else if f, ok := a.Float(ev); ok {
			if pk.kinds[i] != pkNum || pk.nums[i] != math.Float64bits(f) {
				return false
			}
		} else if pk.kinds[i] != pkMissing {
			return false
		}
	}
	return true
}

// lookupPartition resolves the partition of ev given its routing hash,
// or nil when it does not exist yet.
func (e *Engine) lookupPartition(h uint64, ev *event.Event) *partition {
	for _, p := range e.parts[h] {
		if e.keyMatches(&p.pk, ev) {
			return p
		}
	}
	return nil
}

// partitionFor returns (creating if needed) the partition of ev.
func (e *Engine) partitionFor(h uint64, ev *event.Event) *partition {
	p := e.lookupPartition(h, ev)
	if p == nil {
		p = e.newPartition(ev)
		e.parts[h] = append(e.parts[h], p)
		e.partList = append(e.partList, p)
	}
	return p
}

// Process offers one event to the engine. Events must arrive in
// non-decreasing time order (paper §2: out-of-order handling is
// delegated to upstream mechanisms); a late event would corrupt
// already-propagated aggregates, so it is counted and dropped.
func (e *Engine) Process(ev *event.Event) {
	if !e.plan.Simple() {
		if ev.Time < e.prevTime {
			e.stats.OutOfOrder++
			return
		}
		e.stats.Events++
		for _, be := range e.branchEngines {
			be.Process(ev)
		}
		for _, pe := range e.productEngines {
			pe.Process(ev)
		}
		e.prevTime = ev.Time
		return
	}
	e.ProcessRouted(ev, e.routeHash(ev))
}

// ProcessRouted is Process with the partition-routing hash already
// computed (RunParallel hashes once to pick a worker and forwards the
// hash with the event, so workers do not recompute it). Only valid for
// simple plans; the hash must equal routeHash(ev).
func (e *Engine) ProcessRouted(ev *event.Event, h uint64) {
	if ev.Time < e.prevTime {
		e.stats.OutOfOrder++
		return
	}
	e.stats.Events++
	e.closeUpTo(ev.Time)
	e.dispatch(ev, h)
}

// dispatch routes one event into its partition's graphs.
func (e *Engine) dispatch(ev *event.Event, h uint64) {
	p := e.partitionFor(h, ev)
	// Dependency-ordered processing: all graphs a graph depends on see
	// the event first (stream-transaction ordering, §7).
	for _, idx := range e.order {
		p.graphs[idx].Process(ev)
	}
}

// closeUpTo closes windows that ended before t, across all partitions,
// merging partition payloads per output group.
func (e *Engine) closeUpTo(t event.Time) {
	if lo, hi, ok := e.plan.Window.ClosedBy(e.prevTime, t); ok {
		// Window boundaries are the natural sampling points for the
		// engine-level memory peak: state is maximal just before expiry.
		e.samplePeaks()
		for wid := lo; wid <= hi; wid++ {
			e.closeWindow(wid)
		}
		// Let idle partitions reclaim expired panes.
		for _, p := range e.partList {
			for _, g := range p.graphs {
				g.Advance(t)
			}
		}
	}
	e.prevTime = t
}

// samplePeaks updates the engine-level concurrent peak of stored
// vertices and payloads. Summing per-graph peaks would overstate the
// true peak (partitions peak at different times), so the engine samples
// the actual concurrent totals at window boundaries.
func (e *Engine) samplePeaks() {
	var verts, pays uint64
	for _, p := range e.partList {
		for _, g := range p.graphs {
			verts += g.stats.Vertices
			pays += g.stats.Payloads
		}
	}
	if verts > e.stats.PeakVertices {
		e.stats.PeakVertices = verts
	}
	if pays > e.stats.PeakPayloads {
		e.stats.PeakPayloads = pays
	}
}

// closeWindow collects window wid from every partition, merges per
// output group, and emits.
func (e *Engine) closeWindow(wid int64) {
	def := e.plan.Def()
	merged := map[string]*aggregate.Payload{}
	for _, p := range e.partList {
		pl := p.graphs[0].CollectWindow(wid)
		if pl == nil {
			continue
		}
		if cur := merged[p.group]; cur == nil {
			// CollectWindow transfers ownership, so the first payload of a
			// group becomes the merge target directly (no clone).
			merged[p.group] = pl
		} else {
			def.Merge(cur, pl)
			p.graphs[0].Release(pl)
		}
	}
	groups := make([]string, 0, len(merged))
	for g := range merged {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		e.emit(g, wid, merged[g])
	}
}

// emit materializes a Result from a final payload.
func (e *Engine) emit(group string, wid int64, payload *aggregate.Payload) {
	def := e.plan.Def()
	r := Result{
		Group:       group,
		Wid:         wid,
		WindowStart: e.plan.Window.Start(wid),
		WindowEnd:   e.plan.Window.End(wid),
		Payload:     payload,
		Emitted:     time.Now(),
	}
	if len(e.plan.Specs) > 0 {
		r.Values = make([]float64, 0, len(e.plan.Specs))
	}
	for _, ss := range e.plan.Specs {
		r.Values = append(r.Values, def.Value(payload, ss.Spec, ss.Slot, ss.Slot2))
	}
	e.emitted++
	if !e.noRetain {
		e.results = append(e.results, r)
	}
	if e.onResult != nil {
		e.onResult(r)
	}
}

// setRetainResults controls whether emitted results are collected for
// Results() in addition to the OnResult callback. RunParallel workers
// disable retention so their buffers stay bounded by the number of
// open windows.
func (e *Engine) setRetainResults(on bool) { e.noRetain = !on }

// setWatermark seeds the engine's time cursor: events strictly older
// than t are dropped as out-of-order, and windows that ended at or
// before t are never emitted. The Runtime calls this when a statement
// registers mid-stream, so the statement sees only events from its
// registration watermark onward.
func (e *Engine) setWatermark(t event.Time) {
	e.prevTime = t
	for _, be := range e.branchEngines {
		be.setWatermark(t)
	}
	for _, pe := range e.productEngines {
		pe.setWatermark(t)
	}
}

// AdvanceTo advances the engine's clock to t without offering an
// event: windows that ended at or before t close and emit. RunParallel
// workers run it on window barriers so partitions that received no
// recent events still release their windows to the streaming merge.
func (e *Engine) AdvanceTo(t event.Time) {
	if t <= e.prevTime {
		return
	}
	if !e.plan.Simple() {
		for _, be := range e.branchEngines {
			be.AdvanceTo(t)
		}
		for _, pe := range e.productEngines {
			pe.AdvanceTo(t)
		}
		e.prevTime = t
		return
	}
	e.closeUpTo(t)
}

// Run consumes an entire stream and flushes.
func (e *Engine) Run(s event.Stream) {
	for ev := s.Next(); ev != nil; ev = s.Next() {
		e.Process(ev)
	}
	e.Flush()
}

// Flush closes all open windows in all partitions.
func (e *Engine) Flush() {
	if !e.plan.Simple() {
		for _, be := range e.branchEngines {
			be.Flush()
		}
		for _, pe := range e.productEngines {
			pe.Flush()
		}
		e.composeResults()
		return
	}
	e.samplePeaks()
	widSet := map[int64]bool{}
	for _, p := range e.partList {
		for _, g := range p.graphs {
			g.FoldAll()
		}
		for _, wid := range p.graphs[0].OpenWids() {
			widSet[wid] = true
		}
	}
	wids := make([]int64, 0, len(widSet))
	for wid := range widSet {
		wids = append(wids, wid)
	}
	slices.Sort(wids)
	for _, wid := range wids {
		e.closeWindow(wid)
	}
	sortResults(e.results)
}

// peekFlushInto visits every open window's final aggregate without
// consuming engine state: window payloads are peeked (cloned) per
// partition, merged per output group exactly as closeWindow would, and
// handed to fan in (wid, group) order. A shared subscriber detaching
// mid-stream flushes through it, so the surviving subscribers see the
// graph — open windows, pane state, watermarks — completely untouched.
// Only valid for simple dependency-free plans (the only ones the
// shared network admits): those have no pending invalidation records
// to fold and no lazy finals to compute, so the peek is exact.
func (e *Engine) peekFlushInto(fan func(group string, wid int64, payload *aggregate.Payload)) {
	if !e.plan.Simple() {
		return
	}
	def := e.plan.Def()
	widSet := map[int64]bool{}
	for _, p := range e.partList {
		for _, wid := range p.graphs[0].OpenWids() {
			widSet[wid] = true
		}
	}
	wids := make([]int64, 0, len(widSet))
	for wid := range widSet {
		wids = append(wids, wid)
	}
	slices.Sort(wids)
	for _, wid := range wids {
		merged := map[string]*aggregate.Payload{}
		for _, p := range e.partList {
			pl := p.graphs[0].PeekWindow(wid)
			if pl == nil {
				continue
			}
			if cur := merged[p.group]; cur == nil {
				merged[p.group] = pl
			} else {
				def.Merge(cur, pl)
			}
		}
		groups := make([]string, 0, len(merged))
		for g := range merged {
			groups = append(groups, g)
		}
		slices.Sort(groups)
		for _, g := range groups {
			fan(g, wid, merged[g])
		}
	}
}

// Results returns all emitted results sorted by (group, wid).
func (e *Engine) Results() []Result {
	return e.results
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(a.Group, b.Group); c != 0 {
			return c
		}
		return cmp.Compare(a.Wid, b.Wid)
	})
}

// Stats returns accumulated runtime statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	if !e.plan.Simple() {
		for _, be := range e.branchEngines {
			bs := be.Stats()
			s.Inserted += bs.Inserted
			s.Edges += bs.Edges
			s.ScanVisits += bs.ScanVisits
			s.SummaryFolds += bs.SummaryFolds
			s.SummaryRebuilds += bs.SummaryRebuilds
			s.PeakVertices += bs.PeakVertices
			s.PeakPayloads += bs.PeakPayloads
			s.Partitions += bs.Partitions
		}
		for _, pe := range e.productEngines {
			ps := pe.Stats()
			s.Inserted += ps.Inserted
			s.Edges += ps.Edges
			s.ScanVisits += ps.ScanVisits
			s.SummaryFolds += ps.SummaryFolds
			s.SummaryRebuilds += ps.SummaryRebuilds
			s.PeakVertices += ps.PeakVertices
			s.PeakPayloads += ps.PeakPayloads
		}
		s.Results = e.emitted
		return s
	}
	// Live partitions plus any folded in from worker slots
	// (Stmt.FoldRemoteStats) — each partition lives on exactly one
	// slot, so the sum is the true total.
	s.Partitions = e.stats.Partitions + len(e.partList)
	// Engine-level peaks are sampled at window boundaries (samplePeaks);
	// fold in the current totals so an engine that never closed a window
	// still reports its live state.
	var verts, pays uint64
	for _, p := range e.partList {
		for _, g := range p.graphs {
			gs := g.Stats()
			s.Inserted += gs.Inserted
			s.Edges += gs.Edges
			s.ScanVisits += gs.ScanVisits
			s.SummaryFolds += gs.SummaryFolds
			s.SummaryRebuilds += gs.SummaryRebuilds
			verts += gs.Vertices
			pays += gs.Payloads
		}
	}
	if verts > s.PeakVertices {
		s.PeakVertices = verts
	}
	if pays > s.PeakPayloads {
		s.PeakPayloads = pays
	}
	s.Results = e.emitted
	return s
}
