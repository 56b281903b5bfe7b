package main

import (
	"encoding/json"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
	"github.com/greta-cep/greta/internal/reorder"
	"github.com/greta-cep/greta/netstream"
)

// compileReps repeats the one-shot compile steps; their medians are
// reported.
const compileReps = 21

// isolatedLayers times layers the workload reaches only through others by
// replaying the workload's own input through their exported functions:
// parse, plan and register per statement; schema bind, route hash, reorder
// offer and the wire codec per event; and, for the two networked
// workloads, the same stream through the bare engine (two ShardHosts, and
// a single-threaded Runtime) to price the wire. measured is the
// workload's own ns per event.
func isolatedLayers(w *workload, p *lapPlan, measured float64) (metrics, error) {
	m := metrics{}
	var parse, plan, register []float64
	var acc []event.Accessor
	for rep := 0; rep < compileReps; rep++ {
		rt := greta.NewRuntime()
		crt := core.NewRuntime()
		var ps, pl, rg float64
		for si := range w.queries {
			src := w.query(si)
			t0 := now()
			q, err := query.Parse(src)
			t1 := now()
			if err != nil {
				return nil, err
			}
			cp, err := core.NewPlan(q, aggregate.ModeNative)
			t2 := now()
			if err != nil {
				return nil, err
			}
			stmt, err := greta.Compile(src)
			if err != nil {
				return nil, err
			}
			t3 := now()
			_, err = rt.Register(stmt, greta.WithoutRetention())
			t4 := now()
			if err != nil {
				return nil, err
			}
			ps, pl, rg = ps+float64(t1-t0), pl+float64(t2-t1), rg+float64(t4-t3)
			if si == 0 && rep == 0 {
				st, err := crt.Register(cp, core.StmtConfig{})
				if err != nil {
					return nil, err
				}
				acc = st.RouteAccessors()
			}
		}
		n := float64(len(w.queries))
		parse, plan, register = append(parse, ps/n), append(plan, pl/n), append(register, rg/n)
		if err := rt.Close(); err != nil {
			return nil, err
		}
		if rep > 0 {
			_ = crt.Close()
		}
	}
	m["query.parse_us_per_stmt"] = median(parse) / 1e3
	m["core.plan_us_per_stmt"] = median(plan) / 1e3
	m["greta.register_us_per_stmt"] = median(register) / 1e3

	n := float64(len(p.raw))
	t0 := now()
	for i, ev := range p.raw {
		c := *ev
		p.sch[i].Bind(&c)
	}
	m["event.bind_ns_per_event"] = float64(now()-t0) / n

	var slot [shards]float64
	t0 = now()
	for _, ev := range p.evs {
		slot[core.HashRoute(acc, ev)%shards]++
	}
	m["core.route_hash_ns_per_event"] = float64(now()-t0) / float64(len(p.evs))
	m["cluster.slot_skew"] = max(slot[0], slot[1]) / (float64(len(p.evs)) / shards)

	buf := reorder.New(max(w.slack, 1), func(*event.Event) {})
	p.stamp(0)
	t0 = now()
	for _, ev := range p.evs {
		buf.Push(ev)
	}
	m["reorder.offer_ns_per_event"] = float64(now()-t0) / float64(len(p.evs))
	m["reorder.displaced_share"] = float64(p.late) / float64(len(p.evs))

	lines := make([][]byte, len(p.raw))
	t0 = now()
	for i, ev := range p.raw {
		b, err := json.Marshal(netstream.WireEvent{Seq: ev.ID, Type: string(ev.Type), Time: ev.Time, Attrs: ev.Attrs, Str: ev.Str})
		if err != nil {
			return nil, err
		}
		lines[i] = b
	}
	m["netstream.event_encode_ns_per_event"] = float64(now()-t0) / n
	t0 = now()
	for _, b := range lines {
		var we netstream.WireEvent
		if err := json.Unmarshal(b, &we); err != nil {
			return nil, err
		}
	}
	m["netstream.event_decode_ns_per_event"] = float64(now()-t0) / n

	if w.keeps || len(w.queries) != 1 {
		return m, nil // the in-process workloads are their own baseline
	}
	// The bare engine under the same stream, second lap timed.
	rt := greta.NewRuntime()
	if _, err := rt.Register(greta.MustCompile(w.query(0)), greta.WithoutRetention()); err != nil {
		return nil, err
	}
	for k := 0; k < 2; k++ {
		evs := p.released(k)
		t0 = now()
		for _, ev := range evs {
			if err := rt.Process(ev); err != nil {
				return nil, err
			}
		}
		m["core.inproc_ns_per_event"] = float64(now()-t0) / float64(len(evs))
	}
	if err := rt.Close(); err != nil {
		return nil, err
	}
	m["cluster.wire_tax_ratio"] = ratio(measured, m["core.inproc_ns_per_event"])

	var hosts [shards]*core.ShardHost
	for i := range hosts {
		hosts[i] = core.NewShardHost(i, func(int, int, core.Result) {})
		if err := hosts[i].Register(0, 0, w.query(0), "q0", false, false); err != nil {
			return nil, err
		}
	}
	gis, hs := []int{0}, []uint64{0}
	closed := int64(-1)
	for k := 0; k < 2; k++ {
		evs := p.released(k)
		t0 = now()
		for _, ev := range evs {
			// The coordinator's part: a barrier ahead of the event whose
			// time closes a window.
			if hi := floorDiv(ev.Time-w.win.Within, w.win.Slide); hi > closed {
				closed = hi
				for _, h := range hosts {
					h.Barrier(0, ev.Time)
				}
			}
			hs[0] = core.HashRoute(acc, ev)
			hosts[hs[0]%shards].Apply(ev, gis, hs)
		}
		m["core.shard_apply_ns_per_event"] = float64(now()-t0) / float64(len(evs))
	}
	for _, h := range hosts {
		h.Discard()
	}
	return m, nil
}
