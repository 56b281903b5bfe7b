package aggregate

import (
	"math"

	"github.com/greta-cep/greta/internal/event"
)

// Pool recycles Payloads (and their Slots backing arrays) of one Def.
// The graph runtime creates one payload per vertex per window; without
// recycling, every event allocates. Panes return their payloads here
// when they expire, so the steady-state per-event path reuses instead
// of allocating. A Pool is single-owner state (one per graph): it must
// not be shared between goroutines.
type Pool struct {
	def  *Def
	free []*Payload
}

// NewPool returns an empty pool producing payloads for def.
func NewPool(def *Def) *Pool { return &Pool{def: def} }

// Init prepares a zero-value Pool (for embedding without a separate
// allocation).
func (p *Pool) Init(def *Def) { p.def = def }

// Get returns a zeroed payload, recycling a free one when available.
func (p *Pool) Get() *Payload {
	if n := len(p.free); n > 0 {
		pl := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.def.Reset(pl)
		return pl
	}
	return p.def.New()
}

// Put returns a payload to the pool. nil is ignored. The caller must
// not retain references to pl.
func (p *Pool) Put(pl *Payload) {
	if pl != nil {
		p.free = append(p.free, pl)
	}
}

// Len reports the number of pooled payloads (for tests and stats).
func (p *Pool) Len() int { return len(p.free) }

// Reset reinitializes p to the zero state of the definition, reusing
// the Slots array and any exact-mode big numbers in place. The payload
// must have been produced by d.New (slot layout matches d.Slots).
func (d *Def) Reset(p *Payload) {
	p.Count = 0
	p.MaxStart = NoStart
	for i, s := range d.Slots {
		sv := &p.Slots[i]
		sv.N = 0
		switch s.Kind {
		case SlotMin:
			sv.F = math.Inf(1)
		case SlotMax:
			sv.F = math.Inf(-1)
		default:
			sv.F = 0
		}
		if d.Mode == ModeExact {
			switch s.Kind {
			case SlotCountE:
				sv.X.SetInt64(0)
			case SlotSum:
				sv.XF.SetInt64(0)
			}
		}
	}
	if d.Mode == ModeExact {
		p.XCount.SetInt64(0)
	}
}

// NewAccessors returns one attribute accessor per slot of the
// definition, for use with OnEventAcc. Accessors cache schema slots and
// are not safe for concurrent use: allocate one set per graph.
func (d *Def) NewAccessors() []event.Accessor {
	if len(d.Slots) == 0 {
		return nil
	}
	acc := make([]event.Accessor, len(d.Slots))
	for i, s := range d.Slots {
		acc[i] = event.NewAccessor(s.Attr)
	}
	return acc
}

// OnEventAcc applies the self-contribution of the new event e to each
// slot whose Type matches (Theorem 9.1):
// countE += count; sum += attr*count; min/max fold in attr.
// Must be called after all AddPred calls and after OnStart, because the
// self terms use the event's final trend count. Slot attributes are read
// through the accessors returned by NewAccessors.
func (d *Def) OnEventAcc(dst *Payload, e *event.Event, acc []event.Accessor) {
	for i, s := range d.Slots {
		if s.Type != e.Type {
			continue
		}
		attr, ok := 0.0, true
		if s.Kind != SlotCountE {
			attr, ok = acc[i].Float(e)
		}
		if !ok {
			continue
		}
		d.applySelf(dst, i, s.Kind, attr)
	}
}
