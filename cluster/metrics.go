// Cluster observability: the coordinator's view of the topology —
// barrier round trips, per-slot ack-frontier lag, frame encode cost
// and volume, link resumes, handoffs. Cells are pre-registered atomic
// counters (the same obs discipline as the runtime's); everything
// positional (lag per slot, watermarks) is sampled by a render-time
// collector under co.mu.
package cluster

import (
	"net/http"
	"strconv"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/obs"
)

// coMetrics are the coordinator's hot cells.
type coMetrics struct {
	events     *obs.Counter // events offered to Process
	drops      *obs.Counter // out-of-order drops
	frames     *obs.Counter // sequenced frames sent across all links
	frameBytes *obs.Counter // bytes written to shard links: each frame once, as encoded (a resume's handshake and replay are not recounted)
	barriers   *obs.Counter // barrier fan-outs
	resumes    *obs.Counter // successful link reattaches
	handoffs   *obs.Counter // completed drains

	encDur     *obs.Histogram // per-frame send: encode, resend-ring copy and socket write
	barRTT     *obs.Histogram // barrier fan-out → all-slots-acked round trip
	handoffDur *obs.Histogram // Drain duration (handoff + adopt)
}

// barKey identifies one in-flight barrier: unit index + window id.
type barKey struct {
	si int
	hi int64
}

// barWait tracks one barrier's outstanding slot acks.
type barWait struct {
	t0   time.Time
	seen []bool
	left int
}

// barPendMax bounds the in-flight barrier tracking map; barriers
// beyond it (a badly stalled slot) go unmeasured rather than leaking.
const barPendMax = 4096

func newCoMetrics(reg *obs.Registry) *coMetrics {
	return &coMetrics{
		events:     reg.Counter("greta_cluster_events_total", "events offered to the coordinator", ""),
		drops:      reg.Counter("greta_cluster_events_dropped_total", "events dropped out of order by the coordinator", ""),
		frames:     reg.Counter("greta_cluster_frames_total", "sequenced frames sent to shard links", ""),
		frameBytes: reg.Counter("greta_cluster_frame_bytes_total", "bytes written to shard links", ""),
		barriers:   reg.Counter("greta_cluster_barriers_total", "window-close barrier fan-outs", ""),
		resumes:    reg.Counter("greta_cluster_link_resumes_total", "successful shard-link session resumes", ""),
		handoffs:   reg.Counter("greta_cluster_handoffs_total", "completed slot drains (handoff + adopt)", ""),
		encDur:     reg.Histogram("greta_cluster_frame_encode_seconds", "per-frame send latency: encode, resend-ring copy and socket write", ""),
		barRTT:     reg.Histogram("greta_cluster_barrier_rtt_seconds", "barrier fan-out to all-slots-acknowledged round trip", ""),
		handoffDur: reg.Histogram("greta_cluster_handoff_seconds", "drain duration (handoff request through adopt ack)", ""),
	}
}

// trackBarrierLocked records a barrier fan-out for RTT measurement.
// co.mu held.
func (co *Coordinator) trackBarrierLocked(si int, hi int64) {
	co.met.barriers.Inc()
	if len(co.barPend) >= barPendMax {
		return
	}
	if co.barPend == nil {
		co.barPend = map[barKey]*barWait{}
	}
	co.barPend[barKey{si, hi}] = &barWait{t0: time.Now(), seen: make([]bool, co.n0), left: co.n0}
}

// ackBarrierLocked credits slot w's acknowledgement to every in-flight
// barrier of unit si at or below hi, observing the round trip when the
// last slot lands. co.mu held.
func (co *Coordinator) ackBarrierLocked(si int, w int, hi int64) {
	for k, bw := range co.barPend {
		if k.si != si || k.hi > hi || bw.seen[w] {
			continue
		}
		bw.seen[w] = true
		if bw.left--; bw.left == 0 {
			co.met.barRTT.Observe(time.Since(bw.t0))
			delete(co.barPend, k)
		}
	}
}

// Metrics is a consistent snapshot of the coordinator's observability
// counters, taken under its lock.
type Metrics struct {
	Shards int // shard links (drained included)
	Slots  int // worker-slot modulus N0

	Watermark    greta.Time // global event-time frontier (-1 before the first event)
	LowWatermark greta.Time // smallest barrier time every slot acknowledged (-1 before the first)
	// SlotAckLag is each worker slot's ack-frontier lag: Watermark minus
	// the slot's newest acknowledged barrier time (0 when fully caught
	// up or before any events).
	SlotAckLag []int64

	Events     uint64 // events offered to Process
	Dropped    uint64 // out-of-order drops
	Frames     uint64 // sequenced frames sent across all links
	FrameBytes uint64 // bytes written to shard links
	Barriers   uint64 // barrier fan-outs

	// Barrier round trips, and frame sends: EncodeTotal sums what
	// greta_cluster_frame_encode_seconds observes, each frame's whole
	// send — encode, resend-ring copy and socket write.
	BarrierRTTCount uint64        // barriers with all slot acks measured
	BarrierRTTTotal time.Duration // summed fan-out→all-acked round trips
	BarrierRTTMax   time.Duration
	EncodeTotal     time.Duration // summed per-frame encode latency

	Resumes  uint64 // successful link reattaches
	Handoffs uint64 // completed drains
	// LastHandoff is the most recent Drain's duration (0 if none).
	LastHandoff time.Duration

	Warnings int // non-fatal shard diagnostics collected
}

// Metrics returns a consistent snapshot of the coordinator's counters.
// Safe to call concurrently with ingestion.
func (co *Coordinator) Metrics() Metrics {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.metricsLocked()
}

func (co *Coordinator) metricsLocked() Metrics {
	m := Metrics{
		Shards: len(co.links), Slots: co.n0,
		Watermark: co.wm, LowWatermark: -1,
		SlotAckLag:      make([]int64, co.n0),
		Events:          co.met.events.Load(),
		Dropped:         co.met.drops.Load(),
		Frames:          co.met.frames.Load(),
		FrameBytes:      co.met.frameBytes.Load(),
		Barriers:        co.met.barriers.Load(),
		BarrierRTTCount: co.met.barRTT.Count(),
		BarrierRTTTotal: co.met.barRTT.Sum(),
		BarrierRTTMax:   co.met.barRTT.Max(),
		EncodeTotal:     co.met.encDur.Sum(),
		Resumes:         co.met.resumes.Load(),
		Handoffs:        co.met.handoffs.Load(),
		LastHandoff:     co.lastHandoff,
		Warnings:        len(co.warnings),
	}
	low := int64(0)
	for i, t := range co.slotAck {
		if i == 0 || t < low {
			low = t
		}
		if lag := co.wm - t; lag > 0 && co.wm >= 0 {
			m.SlotAckLag[i] = lag
		}
	}
	if co.n0 > 0 {
		m.LowWatermark = low
	}
	return m
}

// registerCollector publishes the positional series (watermarks,
// per-slot lag, topology) sampled under co.mu at scrape time.
func (co *Coordinator) registerCollector() {
	co.reg.Collect(func(e obs.Emitter) {
		m := co.Metrics()
		e.Emit("greta_cluster_shards", "shard links (drained included)", obs.KindGauge, "", float64(m.Shards))
		e.Emit("greta_cluster_slots", "worker-slot modulus N0", obs.KindGauge, "", float64(m.Slots))
		e.Emit("greta_cluster_watermark", "global event-time frontier (-1 before the first event)", obs.KindGauge, "", float64(m.Watermark))
		e.Emit("greta_cluster_low_watermark", "smallest barrier time every slot acknowledged", obs.KindGauge, "", float64(m.LowWatermark))
		e.Emit("greta_cluster_handoff_last_seconds", "duration of the most recent drain", obs.KindGauge, "", m.LastHandoff.Seconds())
		e.Emit("greta_cluster_warnings", "non-fatal shard diagnostics collected", obs.KindGauge, "", float64(m.Warnings))
		for w, lag := range m.SlotAckLag {
			e.Emit("greta_cluster_slot_ack_lag", "worker slot ack-frontier lag behind the global watermark", obs.KindGauge,
				`slot="`+strconv.Itoa(w)+`"`, float64(lag))
		}
	})
}

// MetricsAddr reports the bound address of the Config.MetricsAddr
// listener ("" when none is armed).
func (co *Coordinator) MetricsAddr() string {
	if co.metLn == nil {
		return ""
	}
	return co.metLn.Addr().String()
}

// MetricsHandler returns the coordinator's observability HTTP surface
// (/metrics, /metrics.json, /debug/pprof/) for mounting
// on a caller-owned server — the embeddable form of Config.MetricsAddr.
func (co *Coordinator) MetricsHandler() http.Handler { return obs.NewMux(co.reg) }

// fireTrace invokes the configured trace hook; co.mu held.
func (co *Coordinator) fireTrace(te greta.TraceEvent) {
	if co.trace != nil {
		co.trace(te)
	}
}
