package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// RunParallel consumes the stream with parallel workers shared by
// every registered statement (paper §7, "Parallel Processing"):
// partitions are hashed onto workers, so each sub-stream is processed
// independently. Results stream out as windows close: the feed files a
// per-window barrier per statement, each worker releases the window's
// partials and acknowledges, and the merged result is emitted once
// every worker has passed the barrier, so nothing buffers more than the
// open windows.
//
// RunParallel drives the whole stream and closes the runtime at the
// end. It must own the runtime from the start: if events were already
// processed, or no statement is partitioned, or workers <= 1, or
// reorder slack or checkpointing is armed, it falls back to the
// sequential Run followed by Close. Statements cannot be
// registered or closed while it runs. A partitioned statement's
// callbacks run on the workers, one at a time under the run's merge
// lock, as the cluster coordinator's run under its own; every other
// statement's run on the caller. The feed publishes its watermark to
// Watermark and Metrics each time it sends chunks, so a concurrent
// reader sees it live to within one chunk.
func (rt *Runtime) RunParallel(ctx context.Context, s event.Stream, workers int) error {
	rt.mu.Lock()
	if err := rt.usable(); err != nil {
		rt.mu.Unlock()
		return err
	}
	// Snapshot the parallel units: the sources of simple partitioned
	// plans (a graph runs once, whoever subscribes to it). Everything
	// else (composite plans, ungrouped queries) is processed inline on
	// the caller, exactly as sequentially.
	var par, inline []*source
	var groups []*routeGroup
	for _, g := range rt.groups {
		if len(g.acc) == 0 {
			inline = append(inline, g.members...)
			continue
		}
		groups = append(groups, g)
		par = append(par, g.members...)
	}
	inline = append(inline, rt.direct...)
	// A runtime with reorder slack armed runs sequentially: the
	// buffer's release order is defined over one arrival sequence. So
	// does a checkpointed one: its boundaries snapshot the engines the
	// sequential path feeds.
	if workers <= 1 || len(par) == 0 || rt.watermark >= 0 || rt.reorder != nil || rt.ck != nil {
		rt.mu.Unlock()
		if err := rt.Run(ctx, s); err != nil {
			_ = rt.Close()
			return err
		}
		return rt.Close()
	}
	rt.running = true
	rt.mu.Unlock()
	err := rt.runParallel(ctx, s, workers, par, inline, groups)
	rt.mu.Lock()
	rt.running = false
	rt.mu.Unlock()
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	return err
}

// parChunkOps is how many ops a feed→worker chunk holds before it goes
// out, parChanDepth how many chunks a worker's channel buffers (how far
// a worker may lag the feed). A barrier sends every worker's chunk
// whatever its size, so chunks fill only on streams dense between
// barriers. On BenchmarkParallelPartitions (two barriers in 30 000
// events; 2 vCPUs Intel Xeon, workers 2, 4 and 8) no shape of 64 or
// 256 ops × 4, 8 or 32 chunks read apart from another beyond the
// run-to-run spread, nor 256 × 8 from one event a message in 24
// alternating pairs; 1 024 ops read lower.
const (
	parChunkOps  = 256
	parChanDepth = 8
)

// parOp is one op of a chunk: an event and how many of the chunk's
// (route group, hash) pairs, in order, are its — or, when ev is nil, a
// window barrier for unit si at t, closing its windows up to hi.
type parOp struct {
	ev    *event.Event
	pairs int
	si    int
	t     event.Time
	hi    int64
}

// parChunk is one feed→worker message: ops in feed order, the pairs of
// its events in two columns — the form ShardHost.Apply takes.
type parChunk struct {
	ops []parOp
	gis []int
	hs  []uint64
}

// runParallel runs the parallel units on in-process ShardHosts, one
// private engine per unit and slot. Workers merge where they release:
// partials and acks file straight into the unit's SlotMerge under one
// lock for the run, and the merge emits on the worker that completes a
// window, as the cluster coordinator's does under its own lock.
func (rt *Runtime) runParallel(ctx context.Context, s event.Stream, workers int,
	par, inline []*source, groups []*routeGroup) error {
	var mu sync.Mutex
	merges := make([]*SlotMerge, len(par))
	for si, src := range par {
		merges[si] = NewSlotMerge(src.eng, workers, nil)
	}
	ack := func(w, si int, hi int64) {
		mu.Lock()
		merges[si].Ack(w, hi)
		mu.Unlock()
	}
	partial := func(w, si int, r Result) {
		mu.Lock()
		merges[si].Add(w, r.Group, r.Wid, r.Payload)
		mu.Unlock()
	}
	hosts := make([]*ShardHost, workers)
	chans := make([]chan *parChunk, workers)
	for w := range hosts {
		hosts[w] = NewShardHost(w, partial)
		for si, src := range par {
			if err := hosts[w].RegisterPlan(si, slices.Index(groups, src.grp), src.eng.plan, src.subs[0].id, src.force); err != nil {
				return err
			}
		}
		chans[w] = make(chan *parChunk, parChanDepth)
	}
	chunks := &sync.Pool{New: func() any { return new(parChunk) }}
	var aborted bool // written before the channels close, read after
	var wg sync.WaitGroup
	for w, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chans[w] {
				p := 0
				for _, op := range c.ops {
					if op.ev == nil {
						h.Barrier(op.si, op.t)
						ack(w, op.si, op.hi)
						continue
					}
					h.Apply(op.ev, c.gis[p:p+op.pairs], c.hs[p:p+op.pairs])
					p += op.pairs
				}
				clear(c.ops) // drop the event pointers
				c.ops, c.gis, c.hs = c.ops[:0], c.gis[:0], c.hs[:0]
				chunks.Put(c)
			}
			if aborted {
				return
			}
			// End of stream: release every open window, then a final ack.
			for si := range par {
				h.FlushUnit(si)
				ack(w, si, math.MaxInt64)
			}
		}()
	}

	err := rt.feedWorkers(ctx, s, par, inline, groups, chans, chunks)
	aborted = err != nil
	for _, c := range chans {
		close(c)
	}
	wg.Wait()

	// Fold worker stats into the sources' engines; the sum of sampled
	// worker peaks is an upper bound on the concurrent peak (see
	// FoldRemoteStats).
	for si, src := range par {
		for _, h := range hosts {
			ws, _ := h.UnitStats(si)
			src.subs[0].FoldRemoteStats(ws)
		}
	}
	return err
}

// feedWorkers drives the stream on the caller. Per event it files a
// window barrier into every worker's chunk for each unit whose windows
// the event closes, runs the inline sources, and appends the event with
// its (route group, hash) pairs to the chunks of the workers owning
// them. A chunk goes out full, at end of stream, and — every worker's
// at once — after a barrier, so no window's merge waits on a later event.
// The feed owns the stream with rt.mu free; each send stores its
// watermark into rt.watermark under the lock, and so does the end.
func (rt *Runtime) feedWorkers(ctx context.Context, s event.Stream, par, inline []*source,
	groups []*routeGroup, chans []chan *parChunk, chunks *sync.Pool) error {
	done := ctx.Done()
	var watermark event.Time = -1
	publish := func() {
		rt.mu.Lock()
		rt.watermark = watermark
		rt.mu.Unlock()
	}
	cur := make([]*parChunk, len(chans)) // per worker: the chunk under construction
	send := func(w int) {
		chans[w] <- cur[w]
		cur[w] = chunks.Get().(*parChunk)
		publish()
	}
	for w := range cur {
		cur[w] = chunks.Get().(*parChunk)
	}
	var ooo uint64
	defer func() {
		publish()
		// Out-of-order drops were counted at the coordinator (events are
		// not forwarded); charge them to every engine's stats, as the
		// sequential path does.
		for _, src := range slices.Concat(par, inline) {
			src.subs[0].AddOutOfOrder(ooo)
		}
	}()
	for ev := s.Next(); ev != nil; ev = s.Next() {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		rt.met.events.Inc()
		if ev.Time < watermark {
			ooo++
			rt.met.drops.Inc()
			continue
		}
		// Window barriers precede the event that closes the window, so
		// every worker releases wid before any post-window event.
		barrier := false
		for si, src := range par {
			if _, hi, ok := src.eng.plan.Window.ClosedBy(watermark, ev.Time); ok {
				for _, c := range cur {
					c.ops = append(c.ops, parOp{si: si, t: ev.Time, hi: hi})
				}
				barrier = true
			}
		}
		if barrier {
			for w := range cur {
				send(w)
			}
		}
		watermark = ev.Time
		// Inline sources run on the caller, preserving sequential
		// semantics for unpartitioned and composite plans.
		for _, src := range inline {
			src.eng.Process(ev)
		}
		// One hash per group; one op per event in each targeted chunk.
		for gi, g := range groups {
			h := HashRoute(g.acc, ev)
			c := cur[h%uint64(len(cur))]
			if n := len(c.ops); n == 0 || c.ops[n-1].ev != ev {
				c.ops = append(c.ops, parOp{ev: ev})
			}
			c.ops[len(c.ops)-1].pairs++
			c.gis = append(c.gis, gi)
			c.hs = append(c.hs, h)
		}
		for w, c := range cur {
			if len(c.ops) >= parChunkOps {
				send(w)
			}
		}
	}
	for w, c := range cur {
		chans[w] <- c
	}
	return nil
}

// SlotMerge is the barrier merger: it holds the per-window, per-group
// partial payloads of N slots and every slot's release frontier, and
// emits a window — through the engine it merges for — once every slot
// has released it. Windows leave in ascending wid order, groups sorted
// by name, each group's partials folded by the merger's fold function —
// by default Def.Merge in slot-index order, so float aggregates are
// bit-identical however the slots are scheduled or placed. It has three
// drivers: RunParallel's workers and the cluster coordinator, each
// under its own lock (slots are workers holding disjoint partitions of
// one plan), and a composite Engine (slots are its branch and product
// engines, folded by Engine.compose). Not safe for concurrent use.
type SlotMerge struct {
	eng      *Engine
	fold     func(parts []*aggregate.Payload) *aggregate.Payload // nil result: nothing to emit
	pending  map[int64]map[string][]*aggregate.Payload           // wid → group → per-slot partial
	released []int64                                             // per slot: highest released wid
}

// NewSlotMerge builds the merger emitting through eng over the given
// slot count; a nil fold merges the slots' partials with eng's Def.Merge.
func NewSlotMerge(eng *Engine, slots int, fold func([]*aggregate.Payload) *aggregate.Payload) *SlotMerge {
	if fold == nil {
		fold = eng.mergeSlots
	}
	m := &SlotMerge{eng: eng, fold: fold, pending: map[int64]map[string][]*aggregate.Payload{}, released: make([]int64, slots)}
	for w := range m.released {
		m.released[w] = math.MinInt64
	}
	return m
}

// mergeSlots is the default fold: the first partial present is the base
// the others merge into, in slot order.
func (e *Engine) mergeSlots(parts []*aggregate.Payload) *aggregate.Payload {
	def := e.plan.Def()
	var merged *aggregate.Payload
	for _, pl := range parts {
		switch {
		case pl == nil:
		case merged == nil:
			merged = pl
		default:
			def.Merge(merged, pl)
		}
	}
	return merged
}

// Add files one slot's partial for (wid, group). Slots outside the
// merger's range are ignored.
func (m *SlotMerge) Add(slot int, group string, wid int64, p *aggregate.Payload) {
	if slot < 0 || slot >= len(m.released) {
		return
	}
	groups := m.pending[wid]
	if groups == nil {
		groups = map[string][]*aggregate.Payload{}
		m.pending[wid] = groups
	}
	parts := groups[group]
	if parts == nil {
		parts = make([]*aggregate.Payload, len(m.released))
		groups[group] = parts
	}
	parts[slot] = p
}

// Ack records that slot has released every window up to hi
// (math.MaxInt64 after its final flush) and emits each pending window
// now released by all slots. Stale, duplicate, and out-of-range acks
// are ignored.
func (m *SlotMerge) Ack(slot int, hi int64) {
	if slot < 0 || slot >= len(m.released) || hi <= m.released[slot] {
		return
	}
	m.released[slot] = hi
	frontier := slices.Min(m.released)
	var ready []int64
	for wid := range m.pending {
		if wid <= frontier {
			ready = append(ready, wid)
		}
	}
	slices.Sort(ready)
	for _, wid := range ready {
		groups := m.pending[wid]
		delete(m.pending, wid)
		names := make([]string, 0, len(groups))
		for g := range groups {
			names = append(names, g)
		}
		slices.Sort(names)
		for _, g := range names {
			if merged := m.fold(groups[g]); merged != nil {
				m.eng.emit(g, wid, merged)
			}
		}
	}
}

// Pending returns the number of windows holding unmerged partials.
func (m *SlotMerge) Pending() int { return len(m.pending) }

// Done reports whether every slot sent its final ack and nothing is
// left to merge.
func (m *SlotMerge) Done() bool {
	return len(m.pending) == 0 && slices.Min(m.released) == math.MaxInt64
}
