package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/gen"
	"github.com/greta-cep/greta/internal/window"
)

// workload is one set of inputs and the entry point they are driven
// through. Every statement of a workload shares one WITHIN/SLIDE, so the
// harness knows from an event's timestamp alone which call closes which
// window.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why     string
	queries []string // without WITHIN/SLIDE; win is appended
	win     window.Spec
	// rate is events per stream tick and ticks the length of a lap in
	// stream time: a lap is rate*ticks events. ticks is a multiple of
	// SLIDE and at least WITHIN, so every lap closes ticks/SLIDE windows
	// and no window spans more than two laps.
	rate  int
	ticks int64
	// gen produces n events at rate events per tick, times 0..n/rate-1.
	gen func(n, rate int, seed int64) []*event.Event
	// maps keeps the attribute maps on the lap's events (entry points that
	// read them: Batch.AppendEvent, Client.Send); otherwise events carry
	// only their dense schema slots, as Batch rows do.
	maps bool
	// keeps marks an entry point that holds on to the events it is handed
	// (Runtime.Process): each lap then gets freshly allocated events.
	keeps bool
	// slack is the server's reorder slack and displaced the share of
	// events that arrive late by less than it (net_durable only).
	slack     int64
	displaced float64
	// tol is the relative tolerance on result values; 0 is bit-for-bit.
	tol float64
	// thinKeep, thinType and thinEvery cut the lap down to a sub-stream
	// small enough for the brute-force enumerator: the events of the kept
	// partitions, and of their thinType events one in thinEvery.
	thinKeep  func(ev *event.Event) bool
	thinType  event.Type
	thinEvery int
	open      func(w *workload, env *runEnv) (driver, error)
}

func (w *workload) query(i int) string {
	return fmt.Sprintf("%s WITHIN %d SLIDE %d", w.queries[i], w.win.Within, w.win.Slide)
}

const hadoopQ2 = `RETURN mapper, SUM(M.cpu)
	PATTERN SEQ(Start S, Measurement M+, End E)
	WHERE [job, mapper] AND M.load < NEXT(M).load
	GROUP-BY mapper`

// genHadoop generates the cluster-monitoring stream; endProb is the chance
// that a running (job, mapper) episode ends at its next event.
func genHadoop(endProb float64) func(n, rate int, seed int64) []*event.Event {
	return func(n, rate int, seed int64) []*event.Event {
		cfg := gen.DefaultCluster(n)
		cfg.Rate, cfg.Seed, cfg.StartEndProb = rate, seed, endProb
		return gen.Cluster(cfg)
	}
}

func keepHadoop(ev *event.Event) bool {
	j, m := ev.Str["job"], ev.Str["mapper"]
	return (j == "job00" || j == "job01") && (m == "m00" || m == "m01")
}

var workloads = []*workload{
	{
		name: "stock_fold_event",
		why:  "per-event Runtime.Process over 50 large stock partitions: graph insert and summary folds do the work, the wire none",
		queries: []string{
			`RETURN sector, COUNT(*) PATTERN Stock S+
				WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector`,
			`RETURN sector, COUNT(*) PATTERN SEQ(NOT Halt H, Stock S+)
				WHERE [company, sector] AND S.price > NEXT(S).price GROUP-BY sector`,
		},
		win:  window.Spec{Within: 240, Slide: 60},
		rate: 50, ticks: 2400,
		gen: func(n, rate int, seed int64) []*event.Event {
			cfg := gen.DefaultStock(n)
			cfg.Companies, cfg.Sectors, cfg.Rate, cfg.Seed = 50, 2, rate, seed
			cfg.StartPrice = 10000 // keeps the down-biased walk clear of the price floor
			cfg.HaltProb = 0.002
			return gen.Stock(cfg)
		},
		thinKeep: func(ev *event.Event) bool {
			c := ev.Str["company"]
			return c == "co00" || c == "co01"
		},
		keeps:     true,
		thinType:  "Stock",
		thinEvery: 24,
		open:      openInproc,
	},
	{
		name: "lr_multi_batch",
		why:  "ProcessBatch in 1024-row blocks over 1500 small Linear Road partitions: columnar routing, scans and one shared graph",
		queries: []string{
			`RETURN COUNT(*) PATTERN Position P+ WHERE [vehicle, segment] AND P.sel <= P.gate`,
			`RETURN COUNT(*) PATTERN Position P+ WHERE [vehicle, segment] AND P.sel <= NEXT(P).gate
				SEMANTICS skip-till-next-match`,
			`RETURN segment, COUNT(*) PATTERN Position P+
				WHERE [vehicle, segment] AND P.speed > NEXT(P).speed GROUP-BY segment`,
			`RETURN segment, AVG(P.speed) PATTERN Position P+
				WHERE [vehicle, segment] AND P.speed > NEXT(P).speed GROUP-BY segment`,
		},
		win:  window.Spec{Within: 8, Slide: 2},
		rate: 1250, ticks: 80,
		gen: func(n, rate int, seed int64) []*event.Event {
			cfg := gen.DefaultLinearRoad(n)
			cfg.Vehicles, cfg.StartRate, cfg.EndRate, cfg.Seed = 500, rate, rate, seed
			cfg.AccidentProb = 0 // one event type: every batch is a full 1024 rows
			return gen.LinearRoad(cfg)
		},
		maps: true,
		// AVG(P.speed) sums fractions: the summary folds and the reference's
		// per-vertex scan associate them differently, a few ulps apart.
		tol: 1e-12,
		thinKeep: func(ev *event.Event) bool {
			v := ev.Str["vehicle"]
			return v == "v000" || v == "v001" || v == "v002"
		},
		thinType:  "Position",
		thinEvery: 1,
		open:      openInproc,
	},
	{
		name:    "net_durable",
		why:     "netstream client to server over loopback, resumable session, reorder slack and checkpoints armed: codec, session and durability do the work",
		queries: []string{hadoopQ2},
		win:     window.Spec{Within: 20, Slide: 10},
		rate:    100, ticks: 300,
		// A key sees one event a tick here: episodes must be short for
		// whole Start..End trends to fit the 20-tick window.
		gen:       genHadoop(0.15),
		maps:      true,
		slack:     2,
		displaced: 0.03,
		thinKeep:  keepHadoop,
		thinType:  "Measurement",
		thinEvery: 2,
		open:      openNet,
	},
	{
		name:    "cluster_2shard",
		why:     "coordinator to two shard servers over loopback: hashing, batch-frame encode, barrier round trips and slot-order merge do the work",
		queries: []string{hadoopQ2},
		win:     window.Spec{Within: 20, Slide: 10},
		rate:    300, ticks: 400,
		gen:       genHadoop(0.02), // Table 2's episodes, as BenchmarkCluster has them
		tol:       1e-9,
		thinKeep:  keepHadoop,
		thinType:  "Measurement",
		thinEvery: 6,
		open:      openCluster,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// closing marks the event of a lap whose arrival closes windows: the
// template-relative ids (lo, hi] end at or before its (slack-adjusted)
// timestamp and were open before it.
type closing struct {
	idx    int
	lo, hi int64
}

// lapPlan is the seeded input of a run: one lap of events that is
// replayed, shifted in time and event id, for every lap. Replaying one
// lap makes every window id w carry the results of w-period, so the
// reference computed over the first lap checks all of them.
type lapPlan struct {
	w      *workload
	evs    []*event.Event // arrival order, template times 1..ticks
	times  []int64        // template timestamps of evs
	closes []closing
	period int64 // window ids per lap
	late   int   // events that arrive behind a later timestamp
	// thin is the enumerator's sub-stream of the template, maps kept.
	thin []*event.Event
	// raw is a sample of the template as a producer holds it before
	// ingest: attribute maps only, no schema bound.
	raw []*event.Event
	sch []*event.Schema // the schema each raw event binds to
}

// closesBefore counts the lap's closing events before event i.
func (p *lapPlan) closesBefore(i int) int {
	n, _ := slices.BinarySearchFunc(p.closes, i, func(c closing, i int) int { return cmp.Compare(c.idx, i) })
	return n
}

// coldEvents is how much of the first lap a set-up feeds: up to and
// including the event that closes the first window, by which every layer
// on the workload's path has run once (partitions made, pools charged, a
// window closed and its results delivered).
func (p *lapPlan) coldEvents() int {
	for _, c := range p.closes {
		if c.hi >= 0 {
			return c.idx + 1
		}
	}
	return len(p.evs)
}

// closeAt reports whether event i of a lap is its ci-th closing event.
func (p *lapPlan) closeAt(ci, i int) bool { return ci < len(p.closes) && p.closes[ci].idx == i }

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// rawSample is how many events the isolated layer replays run over.
const rawSample = 20000

// buildLapPlan generates the template lap from the seed; scale thins the
// event rate (not the stream time, so the window schedule stays the same).
func buildLapPlan(w *workload, seed int64, scale float64) *lapPlan {
	rate := int(math.Round(float64(w.rate) * scale))
	if rate < 1 {
		rate = 1
	}
	evs := w.gen(rate*int(w.ticks), rate, seed)
	intern := map[string]string{}
	in := func(s string) string {
		if v, ok := intern[s]; ok {
			return v
		}
		intern[s] = s
		return s
	}
	p := &lapPlan{w: w, period: w.ticks / w.win.Slide}
	kept, every := 0, max(1, int(math.Round(float64(w.thinEvery)*scale)))
	for i, ev := range evs {
		ev.Time++
		ev.ID = uint64(i + 1)
		if w.thinKeep(ev) {
			if ev.Type != w.thinType || kept%every == 0 {
				c := *ev
				p.thin = append(p.thin, &c)
			}
			if ev.Type == w.thinType {
				kept++
			}
		}
		if i < rawSample {
			p.raw = append(p.raw, &event.Event{ID: ev.ID, Type: ev.Type, Time: ev.Time, Attrs: ev.Attrs, Str: ev.Str})
			p.sch = append(p.sch, ev.Sch)
		}
		for j, s := range ev.StrV {
			ev.StrV[j] = in(s)
		}
		if w.maps {
			for k, s := range ev.Str {
				ev.Str[k] = in(s)
			}
		} else {
			ev.Attrs, ev.Str = nil, nil
		}
	}
	if w.displaced > 0 {
		evs, p.late = displace(evs, w.displaced, w.slack, w.ticks, seed)
	}
	p.evs = evs
	p.times = make([]int64, len(evs))
	seen, prevHi := int64(0), floorDiv(-w.slack-w.win.Within, w.win.Slide)
	for i, ev := range evs {
		p.times[i] = ev.Time
		if ev.Time > seen {
			seen = ev.Time
		}
		if hi := floorDiv(seen-w.slack-w.win.Within, w.win.Slide); hi > prevHi {
			p.closes = append(p.closes, closing{idx: i, lo: prevHi, hi: hi})
			prevHi = hi
		}
	}
	return p
}

// displace moves a share of the events later in arrival order by less
// than slack ticks: a displaced event of tick t arrives just before the
// first event of tick t+d, 1 <= d <= slack, when the largest timestamp
// seen is at most t+slack-1 and the reorder buffer still accepts it.
func displace(evs []*event.Event, share float64, slack, ticks int64, seed int64) ([]*event.Event, int) {
	rng := newRand(seed ^ 0x5eed)
	// Bucket by the tick an event arrives in front of, late arrivals of a
	// tick first; reading the buckets back is a stable sort.
	byTick := make([][2][]*event.Event, ticks+1)
	late := 0
	for _, ev := range evs {
		at, k := ev.Time, 1
		if rng.Float64() < share {
			if d := 1 + rng.Int63n(slack); ev.Time+d <= ticks {
				at, k = ev.Time+d, 0
				late++
			}
		}
		byTick[at][k] = append(byTick[at][k], ev)
	}
	out := evs[:0]
	for _, b := range byTick {
		out = append(append(out, b[0]...), b[1]...)
	}
	for i, ev := range out {
		ev.ID = uint64(i + 1)
	}
	return out, late
}

// stamp shifts the template's events to lap k in place. Safe for entry
// points that copy what they are handed (AppendEvent, Send, the cluster
// coordinator); Process keeps the pointer and needs fresh.
func (p *lapPlan) stamp(k int) []*event.Event {
	for i, ev := range p.evs {
		ev.Time, ev.ID = p.at(k, i)
	}
	return p.evs
}

// at is the timestamp and id of the template's i-th event in lap k.
func (p *lapPlan) at(k, i int) (int64, uint64) {
	return p.times[i] + int64(k)*p.w.ticks, uint64(i+1) + uint64(k)*uint64(len(p.evs))
}

// fresh allocates lap k's events one by one, so that an engine holding on
// to a few of them pins those few and not a whole block, and returns them
// in out (a nil out is allocated). Only the first n are made.
func (p *lapPlan) fresh(k int, out []*event.Event, n int) []*event.Event {
	if out == nil {
		out = make([]*event.Event, len(p.evs))
	}
	for i, ev := range p.evs[:n] {
		c := *ev
		c.Time, c.ID = p.at(k, i)
		out[i] = &c
	}
	return out
}

// released returns lap k in the order a reorder buffer releases it: by
// time, arrival order among equal timestamps. Without displaced events
// that is the arrival order.
func (p *lapPlan) released(k int) []*event.Event {
	evs := p.fresh(k, nil, len(p.evs))
	if p.late == 0 {
		return evs
	}
	byTick := make([][]*event.Event, p.w.ticks+1)
	base := int64(k) * p.w.ticks
	for _, ev := range evs {
		byTick[ev.Time-base] = append(byTick[ev.Time-base], ev)
	}
	out := evs[:0]
	for _, b := range byTick {
		out = append(out, b...)
	}
	return out
}
