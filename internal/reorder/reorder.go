// Package reorder implements bounded out-of-order event handling: a
// slack-based reorder buffer in the spirit of the out-of-order stream
// processing literature the paper delegates to (§2, citing Li et al.
// and Liu et al.): "we assume that events arrive in-order by time
// stamps. Otherwise, an existing approach to handle out-of-order events
// can be employed."
//
// The buffer holds events until the observed maximum timestamp exceeds
// their timestamp by at least the configured slack, then releases them
// in (time, arrival) order — the arrival tiebreak makes the drain order
// of equal-timestamp events deterministic. Events arriving more than
// slack behind the maximum observed timestamp (the horizon) are
// reported as dropped. Both decisions are pure functions of the arrival
// prefix — never of drain timing — so a buffer rebuilt from a Snapshot
// accepts, drops, and releases exactly as the original would have.
//
// Push is the only way in and the out callback the only way out: the
// release rule exists here once, and a runtime with slack armed offers
// the rows of a columnar batch to Push one at a time.
package reorder

import (
	"sort"

	"github.com/greta-cep/greta/internal/event"
)

// Buffer is a slack-based reorderer. The zero value is unusable; use
// New or Restore.
type Buffer struct {
	slack    event.Time
	h        []entry // binary min-heap on (time, arrival)
	arr      uint64  // monotone arrival counter (equal-time tiebreak)
	maxSeen  event.Time
	released event.Time
	dropped  uint64
	out      func(*event.Event)
}

// entry is one buffered event stamped with its arrival order.
type entry struct {
	ev  *event.Event
	arr uint64
}

// New returns a buffer that delays events by up to slack time units and
// delivers them in order to out.
func New(slack event.Time, out func(*event.Event)) *Buffer {
	return &Buffer{slack: slack, maxSeen: -1, released: -1, out: out}
}

// Push offers an event in arrival order. Events whose timestamp is
// already behind the horizon (maxSeen - slack) are dropped, counted in
// Dropped(), and reported with a false return; everything else is
// buffered and released once safe. The drop check uses the horizon, not
// the released watermark, so acceptance depends only on what has
// arrived — a restored buffer mid-drain decides identically.
func (b *Buffer) Push(e *event.Event) bool {
	if e.Time < b.maxSeen-b.slack {
		b.dropped++
		return false
	}
	b.push(entry{ev: e, arr: b.arr})
	b.arr++
	if e.Time > b.maxSeen {
		b.maxSeen = e.Time
	}
	b.drain(b.maxSeen - b.slack)
	return true
}

// drain releases all buffered events with time <= horizon.
func (b *Buffer) drain(horizon event.Time) {
	for len(b.h) > 0 && b.h[0].ev.Time <= horizon {
		e := b.pop()
		if e.Time > b.released {
			b.released = e.Time
		}
		b.out(e)
	}
}

// Flush releases every buffered event in order; call at end of stream
// or as a lifecycle barrier.
func (b *Buffer) Flush() {
	b.drain(1<<62 - 1)
}

// Settle releases any buffered events already at or below the horizon.
// A live buffer is always settled (Push drains as it goes); a restored
// one may hold the release that was in flight when its snapshot was
// written, which must apply before any further arrival is considered.
func (b *Buffer) Settle() {
	b.drain(b.maxSeen - b.slack)
}

// Pending returns the number of buffered events.
func (b *Buffer) Pending() int { return len(b.h) }

// Dropped returns the number of events that arrived too late (beyond
// the slack) and were discarded.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Horizon returns the drop threshold: events with Time < Horizon() are
// rejected. It only advances as larger timestamps arrive.
func (b *Buffer) Horizon() event.Time { return b.maxSeen - b.slack }

// Slack returns the configured slack.
func (b *Buffer) Slack() event.Time { return b.slack }

// Snapshot captures the buffer's recoverable state: configuration,
// watermarks, drop count, and the pending events in release order
// (time, then arrival). Restore on the snapshot yields a buffer that
// behaves identically on any arrival suffix, and whose own Snapshot
// re-encodes byte-for-byte (pending order is canonical).
type Snapshot struct {
	Slack    event.Time
	MaxSeen  event.Time
	Released event.Time
	Dropped  uint64
	Pending  []*event.Event
}

// Snapshot captures the buffer state; the buffer is not perturbed.
func (b *Buffer) Snapshot() *Snapshot {
	s := &Snapshot{Slack: b.slack, MaxSeen: b.maxSeen, Released: b.released, Dropped: b.dropped}
	if len(b.h) == 0 {
		return s
	}
	ents := append([]entry(nil), b.h...)
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].ev.Time != ents[j].ev.Time {
			return ents[i].ev.Time < ents[j].ev.Time
		}
		return ents[i].arr < ents[j].arr
	})
	s.Pending = make([]*event.Event, len(ents))
	for i, e := range ents {
		s.Pending[i] = e.ev
	}
	return s
}

// Restore rebuilds a buffer from a snapshot, delivering to out. The
// pending events keep their snapshot (release) order as the arrival
// order, so equal-timestamp ties drain exactly as they would have.
func Restore(s *Snapshot, out func(*event.Event)) *Buffer {
	b := &Buffer{slack: s.Slack, maxSeen: s.MaxSeen, released: s.Released, dropped: s.Dropped, out: out}
	for _, ev := range s.Pending {
		b.push(entry{ev: ev, arr: b.arr})
		b.arr++
	}
	return b
}

// push/pop implement the heap inline (container/heap would box each
// entry into an interface, allocating on the steady ingest path).

func (b *Buffer) less(i, j int) bool {
	if b.h[i].ev.Time != b.h[j].ev.Time {
		return b.h[i].ev.Time < b.h[j].ev.Time
	}
	return b.h[i].arr < b.h[j].arr
}

func (b *Buffer) push(e entry) {
	b.h = append(b.h, e)
	i := len(b.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !b.less(i, p) {
			break
		}
		b.h[i], b.h[p] = b.h[p], b.h[i]
		i = p
	}
}

func (b *Buffer) pop() *event.Event {
	top := b.h[0].ev
	n := len(b.h) - 1
	b.h[0] = b.h[n]
	b.h[n] = entry{}
	b.h = b.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && b.less(l, s) {
			s = l
		}
		if r < n && b.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		b.h[i], b.h[s] = b.h[s], b.h[i]
		i = s
	}
	return top
}
