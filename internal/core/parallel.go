package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/event"
)

// RunParallel consumes the stream with parallel workers shared by
// every registered statement (paper §7, "Parallel Processing"):
// partitions are hashed onto workers, so each sub-stream is processed
// independently. Results stream out as windows close — the coordinator
// broadcasts a per-window barrier per statement, each worker releases
// the window (emitting its partial aggregates) and acknowledges, and
// the merger emits the merged result once every worker has passed the
// barrier. Worker result buffers are therefore bounded by the number
// of concurrently open windows, not the stream length.
//
// RunParallel drives the whole stream and closes the runtime at the
// end (all statements flush). It must own the runtime from the start:
// if events were already processed sequentially, or no statement is
// partitioned, or workers <= 1, it falls back to the sequential Run
// followed by Close. Statements cannot be registered or closed while
// it runs. Result callbacks fire from internal goroutines.
func (rt *Runtime) RunParallel(ctx context.Context, s event.Stream, workers int) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	// Snapshot the parallel units: the sources of simple partitioned
	// plans (a graph runs once, whoever subscribes to it). Everything
	// else (composite plans, ungrouped queries) is processed inline on
	// the coordinator, exactly as sequentially.
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
	// buffer's release order is defined over one arrival sequence.
	if workers <= 1 || len(par) == 0 || rt.watermark >= 0 || rt.reorder != nil {
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

// pairInline is how many (route group, hash) pairs ride inside a
// parMsg; a worker owning more of one event's route groups gets them in
// a pooled pairSpill. Two keeps the message (and the 1024-deep worker
// channels) small: an event's groups spread over the workers, so even
// a four-signature fleet mostly sends one or two pairs per message.
const pairInline = 2

// parMsg is one coordinator→worker message: a routed event carrying
// exactly the (route group, hash) pairs this worker owns — the form
// ShardHost.Apply takes — or, when ev is nil, a per-statement window
// barrier.
type parMsg struct {
	ev    *event.Event
	n     int // event: pair count
	gis   [pairInline]int
	hs    [pairInline]uint64
	spill *pairSpill // event: all n pairs, when n > pairInline
	si    int        // barrier: unit index
	t     event.Time
	hi    int64 // barrier: highest window id closed by t
}

// pairSpill holds one message's pairs past the inline capacity. The
// feed loop fills it from the pool, the one worker the message targets
// applies it and puts it back — no per-event allocation once the pool
// has warmed up.
type pairSpill struct {
	gis []int
	hs  []uint64
}

// add appends one pair to the message under construction.
func (m *parMsg) add(gi int, h uint64, spills *sync.Pool) {
	switch {
	case m.n < pairInline:
		m.gis[m.n], m.hs[m.n] = gi, h
	case m.n == pairInline:
		m.spill = spills.Get().(*pairSpill)
		m.spill.gis = append(append(m.spill.gis[:0], m.gis[:]...), gi)
		m.spill.hs = append(append(m.spill.hs[:0], m.hs[:]...), h)
	default:
		m.spill.gis = append(m.spill.gis, gi)
		m.spill.hs = append(m.spill.hs, h)
	}
	m.n++
}

// mergeMsg is one worker→merger message: a per-window partial result,
// or a barrier acknowledgement ("this worker has released every window
// of unit si up to hi").
type mergeMsg struct {
	w   int
	si  int
	r   Result
	ack bool
	hi  int64
}

// parallelDebug captures streaming-merge instrumentation for tests.
type parallelDebug struct {
	// maxPending is the largest number of simultaneously pending
	// (unmerged) windows across all statements — the merge buffer bound.
	maxPending int
	// workerRetained sums the results worker units retain at flush; the
	// streaming merge keeps it at zero (workers do not buffer).
	workerRetained int
}

func (rt *Runtime) runParallel(ctx context.Context, s event.Stream, workers int,
	par, inline []*source, groups []*routeGroup) error {
	// Workers are in-process ShardHosts — the same worker slots a cluster
	// shard session hosts — each owning a private engine per unit, named
	// after the source's first subscriber. Buffers this deep let a worker
	// lag a few windows behind the feed loop without stalling it.
	mergeCh := make(chan mergeMsg, 1024)
	partial := func(w, si int, r Result) { mergeCh <- mergeMsg{w: w, si: si, r: r} }
	hosts := make([]*ShardHost, workers)
	chans := make([]chan parMsg, workers)
	for w := range hosts {
		hosts[w] = NewShardHost(w, partial)
		for si, src := range par {
			if err := hosts[w].RegisterPlan(si, slices.Index(groups, src.grp), src.eng.plan, src.subs[0].id, src.force); err != nil {
				return err
			}
		}
		chans[w] = make(chan parMsg, 1024)
	}
	spills := &sync.Pool{New: func() any { return new(pairSpill) }}
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range chans[w] {
				switch {
				case m.ev == nil:
					h.Barrier(m.si, m.t)
					mergeCh <- mergeMsg{w: w, si: m.si, ack: true, hi: m.hi}
				case m.spill != nil:
					h.Apply(m.ev, m.spill.gis, m.spill.hs)
					spills.Put(m.spill)
				default:
					h.Apply(m.ev, m.gis[:m.n], m.hs[:m.n])
				}
			}
			if abort.Load() {
				return
			}
			// End of stream: release every open window, then a final ack.
			for si := range par {
				h.FlushUnit(si)
				mergeCh <- mergeMsg{w: w, si: si, ack: true, hi: math.MaxInt64}
			}
		}()
	}

	// The merger: one SlotMerge per unit, fed in channel order.
	mergerDone := make(chan struct{})
	var debug parallelDebug
	go func() {
		defer close(mergerDone)
		merges := make([]*SlotMerge, len(par))
		for si, src := range par {
			merges[si] = NewSlotMerge(src.eng, workers, nil)
		}
		pending := 0
		for m := range mergeCh {
			sm := merges[m.si]
			pending -= sm.Pending()
			if !m.ack {
				sm.Add(m.w, m.r.Group, m.r.Wid, m.r.Payload)
			} else if !abort.Load() {
				sm.Ack(m.w, m.hi)
			}
			pending += sm.Pending()
			debug.maxPending = max(debug.maxPending, pending)
		}
	}()

	err := feedWorkers(ctx, s, workers, par, inline, groups, chans, spills, &abort, rt.met)

	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	close(mergeCh)
	<-mergerDone

	// Fold worker stats into the sources' engines; the sum of sampled
	// worker peaks is an upper bound on the concurrent peak (see
	// FoldRemoteStats).
	for si, src := range par {
		for _, h := range hosts {
			ws, _ := h.UnitStats(si)
			src.subs[0].FoldRemoteStats(ws)
			debug.workerRetained += len(h.units[si].results)
		}
	}
	rt.parDebug = &debug
	return err
}

// feedWorkers drives the stream: per event it computes one routing
// hash per distinct partition-attribute signature, broadcasts window
// barriers for statements whose windows the event closes, and sends
// the event — once, with that worker's (group, hash) pairs — to each
// worker owning a targeted partition.
func feedWorkers(ctx context.Context, s event.Stream, workers int,
	par, inline []*source, groups []*routeGroup, chans []chan parMsg,
	spills *sync.Pool, abort *atomic.Bool, met *rtMetrics) error {
	done := ctx.Done()
	msgs := make([]parMsg, workers) // per-worker message under construction
	touched := make([]int, 0, workers)
	var watermark event.Time = -1
	var ooo uint64
	defer func() {
		// Out-of-order drops were counted at the coordinator (events are
		// not forwarded); charge them to every engine's stats, as the
		// sequential path does.
		for _, src := range slices.Concat(par, inline) {
			src.eng.stats.OutOfOrder += ooo
		}
	}()
	for ev := s.Next(); ev != nil; ev = s.Next() {
		if done != nil {
			select {
			case <-done:
				abort.Store(true)
				return ctx.Err()
			default:
			}
		}
		// Live gauges: the feed goroutine owns the stream while rt.mu is
		// free, so the cells (not rt.watermark) are what a concurrent
		// scrape observes mid-run. Atomics only — the feed loop shares
		// the hot path's 0-alloc discipline.
		if met != nil {
			met.events.Inc()
			met.maxSeen.SetMax(ev.Time)
		}
		if ev.Time < watermark {
			ooo++
			if met != nil {
				met.drops.Inc()
			}
			continue
		}
		watermark = ev.Time
		if met != nil {
			met.watermark.Set(ev.Time)
		}
		// Window barriers precede the event that closes the window, so
		// every worker releases wid before any post-window event.
		for si, src := range par {
			if _, hi, ok := src.eng.plan.Window.ClosedBy(src.parPrev, ev.Time); ok {
				for w := 0; w < workers; w++ {
					chans[w] <- parMsg{si: si, t: ev.Time, hi: hi}
				}
			}
			src.parPrev = ev.Time
		}
		// Inline sources run on the coordinator, preserving sequential
		// semantics for unpartitioned and composite plans.
		for _, src := range inline {
			src.eng.Process(ev)
		}
		// One hash per group, one message per distinct target worker.
		touched = touched[:0]
		for gi, g := range groups {
			h := HashRoute(g.acc, ev)
			w := int(h % uint64(workers))
			if msgs[w].n == 0 {
				touched = append(touched, w)
			}
			msgs[w].add(gi, h, spills)
		}
		for _, w := range touched {
			msgs[w].ev = ev
			chans[w] <- msgs[w]
			msgs[w] = parMsg{}
		}
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
// drivers: RunParallel's merger goroutine and the cluster coordinator
// (slots are workers holding disjoint partitions of one plan), and a
// composite Engine (slots are its branch and product engines, folded by
// Engine.compose). Not safe for concurrent use.
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
