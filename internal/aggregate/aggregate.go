// Package aggregate implements the intermediate and final aggregates of
// GRETA (paper Theorem 4.3 for COUNT(*) and Theorem 9.1 for COUNT(E),
// MIN, MAX, SUM, AVG). Each graph vertex carries one Payload per window
// it falls into; payloads of predecessor events are folded into the new
// event's payload during graph construction, and END-event payloads are
// folded into final per-window results.
//
// Two arithmetic modes are provided. ModeNative uses uint64 counters
// with silent wrap-around and float64 sums — the number of trends is
// Θ(2ⁿ) in the number of events, so exact machine-word counting is
// impossible at realistic window sizes; wrap-around matches the cost
// model of the paper's Java implementation (long arithmetic). ModeExact
// uses math/big integers/floats and is used by correctness tests that
// compare GRETA against a brute-force trend enumerator.
package aggregate

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"github.com/greta-cep/greta/internal/event"
)

// Mode selects the arithmetic implementation.
type Mode uint8

// Arithmetic modes.
const (
	ModeNative Mode = iota
	ModeExact
)

func (m Mode) String() string {
	if m == ModeExact {
		return "exact"
	}
	return "native"
}

// SlotKind identifies a per-type aggregate maintained alongside the
// trend count.
type SlotKind uint8

// Slot kinds per Theorem 9.1.
const (
	SlotCountE SlotKind = iota // number of occurrences of events of Type in all trends
	SlotSum                    // Σ attr over occurrences
	SlotMin                    // min attr over occurrences
	SlotMax                    // max attr over occurrences
)

func (k SlotKind) String() string {
	switch k {
	case SlotCountE:
		return "COUNT"
	case SlotSum:
		return "SUM"
	case SlotMin:
		return "MIN"
	case SlotMax:
		return "MAX"
	}
	return "?"
}

// Slot declares one attribute aggregate: Kind over Attr of events of
// Type. SlotCountE ignores Attr.
type Slot struct {
	Kind SlotKind
	Type event.Type
	Attr string
}

// Def is the aggregation definition shared by all payloads of a graph:
// the arithmetic mode, the attribute slots, and whether trend start
// times are tracked (needed by negative sub-pattern graphs to compute
// invalidation watermarks, paper Definition 5).
type Def struct {
	Mode       Mode
	Slots      []Slot
	TrackStart bool
}

// AddSlot registers a slot, deduplicating, and returns its index.
func (d *Def) AddSlot(s Slot) int {
	for i, x := range d.Slots {
		if x == s {
			return i
		}
	}
	d.Slots = append(d.Slots, s)
	return len(d.Slots) - 1
}

// NoStart is the MaxStart value of a payload with no trends.
const NoStart = math.MinInt64

// SlotVal is the runtime value of one slot. CountE uses N (native) or X
// (exact); Sum uses F (native) or XF (exact); Min/Max always use F.
type SlotVal struct {
	N  uint64
	F  float64
	X  *big.Int
	XF *big.Float
}

// Payload carries the intermediate aggregates of one vertex in one
// window: the trend count (Theorem 4.3), the attribute slots
// (Theorem 9.1), and the latest trend start time (negation support).
type Payload struct {
	Count    uint64
	XCount   *big.Int
	MaxStart int64
	Slots    []SlotVal
}

// New returns a zero payload for the definition.
func (d *Def) New() *Payload {
	p := &Payload{}
	if len(d.Slots) > 0 {
		p.Slots = make([]SlotVal, len(d.Slots))
	}
	d.prepare(p)
	return p
}

// NewBlock returns k zero payloads of the definition as values in one
// slice — a graph vertex's per-window block — their Slots cut from one
// backing array.
func (d *Def) NewBlock(k int) []Payload {
	b := make([]Payload, k)
	n := len(d.Slots)
	var slots []SlotVal
	if n > 0 {
		slots = make([]SlotVal, k*n)
	}
	for i := range b {
		if n > 0 {
			b[i].Slots = slots[i*n : (i+1)*n : (i+1)*n]
		}
		d.prepare(&b[i])
	}
	return b
}

// Presence marks the entries of a payload block that hold a payload: bit
// i%64 of word i/64 stands for entry i. Word 0 — all a block of up to 64
// entries has — is held in the value itself, so a graph vertex carries it
// on its own cache line; the words after it, made for wider blocks only,
// sit behind more (a pointer, not a slice, keeps a Presence at 16 bytes
// and a vertex in one 64-byte size class). The value of an entry whose
// bit is clear means nothing.
type Presence struct {
	w0   uint64
	more *[]uint64
}

// NewPresence returns a clear Presence for a block of k entries.
func NewPresence(k int) Presence {
	var p Presence
	if k > 64 {
		more := make([]uint64, (k-1)/64)
		p.more = &more
	}
	return p
}

// word returns the word holding entry i's bit.
func (p *Presence) word(i int) *uint64 {
	if i < 64 {
		return &p.w0
	}
	return &(*p.more)[i/64-1]
}

// Has reports whether entry i holds a payload.
func (p *Presence) Has(i int) bool { return *p.word(i)&(1<<(uint(i)&63)) != 0 }

// Set marks entry i as holding a payload.
func (p *Presence) Set(i int) { *p.word(i) |= 1 << (uint(i) & 63) }

// Unset marks entry i as holding none.
func (p *Presence) Unset(i int) { *p.word(i) &^= 1 << (uint(i) & 63) }

// Count returns the number of entries holding a payload.
func (p *Presence) Count() int {
	n := bits.OnesCount64(p.w0)
	if p.more != nil {
		for _, w := range *p.more {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Clear marks every entry as holding none.
func (p *Presence) Clear() {
	p.w0 = 0
	if p.more != nil {
		clear(*p.more)
	}
}

// prepare makes p, whose Slots already have the definition's length, a
// zero payload: min/max at their identities, exact-mode numbers
// allocated.
func (d *Def) prepare(p *Payload) {
	p.MaxStart = NoStart
	for i, s := range d.Slots {
		switch s.Kind {
		case SlotMin:
			p.Slots[i].F = math.Inf(1)
		case SlotMax:
			p.Slots[i].F = math.Inf(-1)
		}
	}
	if d.Mode == ModeExact {
		p.XCount = new(big.Int)
		for i, s := range d.Slots {
			switch s.Kind {
			case SlotCountE:
				p.Slots[i].X = new(big.Int)
			case SlotSum:
				p.Slots[i].XF = new(big.Float).SetPrec(sumPrec)
			}
		}
	}
}

// sumPrec is the mantissa precision of exact-mode sums. 256 bits keep
// test streams exact while bounding memory.
const sumPrec = 256

// AddPred folds a predecessor payload into dst:
// dst.count += p.count, dst.countE += p.countE, dst.sum += p.sum,
// dst.min = min(dst.min, p.min), dst.max = max(dst.max, p.max)
// (the Σ / min / max terms of Theorems 4.3 and 9.1).
func (d *Def) AddPred(dst, p *Payload) {
	dst.Count += p.Count
	if d.Mode == ModeExact {
		dst.XCount.Add(dst.XCount, p.XCount)
	}
	if p.MaxStart > dst.MaxStart {
		dst.MaxStart = p.MaxStart
	}
	for i, s := range d.Slots {
		dv, pv := &dst.Slots[i], &p.Slots[i]
		switch s.Kind {
		case SlotCountE:
			dv.N += pv.N
			if d.Mode == ModeExact {
				dv.X.Add(dv.X, pv.X)
			}
		case SlotSum:
			dv.F += pv.F
			if d.Mode == ModeExact {
				dv.XF.Add(dv.XF, pv.XF)
			}
		case SlotMin:
			if pv.F < dv.F {
				dv.F = pv.F
			}
		case SlotMax:
			if pv.F > dv.F {
				dv.F = pv.F
			}
		}
	}
}

// OnStart accounts for the event starting a new trend: count += 1
// (Theorem 4.3) and MaxStart tracking.
func (d *Def) OnStart(dst *Payload, t event.Time) {
	dst.Count++
	if d.Mode == ModeExact {
		dst.XCount.Add(dst.XCount, bigOne)
	}
	if d.TrackStart && int64(t) > dst.MaxStart {
		dst.MaxStart = int64(t)
	}
}

var bigOne = big.NewInt(1)

// applySelf folds the self-contribution of one event into slot i.
func (d *Def) applySelf(dst *Payload, i int, kind SlotKind, attr float64) {
	dv := &dst.Slots[i]
	switch kind {
	case SlotCountE:
		dv.N += dst.Count
		if d.Mode == ModeExact {
			dv.X.Add(dv.X, dst.XCount)
		}
	case SlotSum:
		dv.F += attr * float64(dst.Count)
		if d.Mode == ModeExact {
			t := new(big.Float).SetPrec(sumPrec).SetInt(dst.XCount)
			t.Mul(t, big.NewFloat(attr))
			dv.XF.Add(dv.XF, t)
		}
	case SlotMin:
		if attr < dv.F {
			dv.F = attr
		}
	case SlotMax:
		if attr > dv.F {
			dv.F = attr
		}
	}
}

// Merge folds src into dst; it is the final-aggregate combination over
// END events (identical arithmetic to AddPred).
func (d *Def) Merge(dst, src *Payload) { d.AddPred(dst, src) }

// AddSigned folds src into dst with a sign, used by the
// inclusion–exclusion composition of disjunction counts (paper §9):
// additive fields (count, countE, sum) are added or subtracted;
// min/max, which are monotone over trend sets, fold only on positive
// terms (MIN over a union is the MIN over the covering branches).
func (d *Def) AddSigned(dst, src *Payload, sign int) {
	if src == nil {
		return
	}
	if sign >= 0 {
		d.AddPred(dst, src)
		return
	}
	dst.Count -= src.Count
	if d.Mode == ModeExact {
		dst.XCount.Sub(dst.XCount, src.XCount)
	}
	for i, s := range d.Slots {
		dv, sv := &dst.Slots[i], &src.Slots[i]
		switch s.Kind {
		case SlotCountE:
			dv.N -= sv.N
			if d.Mode == ModeExact {
				dv.X.Sub(dv.X, sv.X)
			}
		case SlotSum:
			dv.F -= sv.F
			if d.Mode == ModeExact {
				dv.XF.Sub(dv.XF, sv.XF)
			}
		}
	}
}

// Clone returns a deep copy of p.
func (d *Def) Clone(p *Payload) *Payload {
	c := &Payload{Count: p.Count, MaxStart: p.MaxStart}
	if p.Slots != nil {
		c.Slots = make([]SlotVal, len(p.Slots))
		copy(c.Slots, p.Slots)
	}
	if d.Mode == ModeExact {
		c.XCount = new(big.Int).Set(p.XCount)
		for i, s := range d.Slots {
			switch s.Kind {
			case SlotCountE:
				c.Slots[i].X = new(big.Int).Set(p.Slots[i].X)
			case SlotSum:
				c.Slots[i].XF = new(big.Float).SetPrec(sumPrec).Set(p.Slots[i].XF)
			}
		}
	}
	return c
}

// Zero reports whether the payload carries no trends.
func (p *Payload) Zero() bool {
	if p == nil {
		return true
	}
	if p.XCount != nil {
		return p.XCount.Sign() == 0
	}
	return p.Count == 0
}

// Spec is a RETURN-clause aggregate request.
type Spec struct {
	Kind SpecKind
	Type event.Type // target event type for COUNT(E)/MIN/MAX/SUM/AVG
	Attr string
}

// SpecKind enumerates RETURN aggregates (paper Definition 2).
type SpecKind uint8

// RETURN aggregate kinds.
const (
	CountStar SpecKind = iota
	CountType
	Min
	Max
	Sum
	Avg
)

func (k SpecKind) String() string {
	switch k {
	case CountStar:
		return "COUNT(*)"
	case CountType:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	}
	return "?"
}

func (s Spec) String() string {
	switch s.Kind {
	case CountStar:
		return "COUNT(*)"
	case CountType:
		return fmt.Sprintf("COUNT(%s)", s.Type)
	case Avg:
		return fmt.Sprintf("AVG(%s.%s)", s.Type, s.Attr)
	default:
		return fmt.Sprintf("%s(%s.%s)", s.Kind, s.Type, s.Attr)
	}
}

// Plan registers the slots spec needs on d and returns the slot indices
// (primary, secondary). AVG uses two slots (sum, countE); COUNT(*) uses
// none (-1, -1).
func (d *Def) Plan(spec Spec) (int, int) {
	switch spec.Kind {
	case CountStar:
		return -1, -1
	case CountType:
		return d.AddSlot(Slot{SlotCountE, spec.Type, ""}), -1
	case Min:
		return d.AddSlot(Slot{SlotMin, spec.Type, spec.Attr}), -1
	case Max:
		return d.AddSlot(Slot{SlotMax, spec.Type, spec.Attr}), -1
	case Sum:
		return d.AddSlot(Slot{SlotSum, spec.Type, spec.Attr}), -1
	case Avg:
		return d.AddSlot(Slot{SlotSum, spec.Type, spec.Attr}),
			d.AddSlot(Slot{SlotCountE, spec.Type, ""})
	}
	return -1, -1
}

// SpecSlot links a RETURN aggregate to its payload slots (Slot2 carries
// AVG's count slot).
type SpecSlot struct {
	Spec  Spec
	Slot  int
	Slot2 int
}

// PlanSpecs plans a RETURN clause into d and returns its slot mapping.
// AddSlot deduplicates, so the statements of a shared graph, planned
// into one union definition, reuse each other's slots. Must run before
// an engine is compiled against d: compiled specs snapshot the layout.
func (d *Def) PlanSpecs(specs []Spec) []SpecSlot {
	var out []SpecSlot
	for _, sp := range specs {
		s1, s2 := d.Plan(sp)
		out = append(out, SpecSlot{sp, s1, s2})
	}
	return out
}

// Values extracts a RETURN clause's final values from a result payload
// through its slot mapping. Slot arithmetic is independent per slot, so
// a subscriber reading a union payload gets bit-identical values to a
// private engine carrying only its own slots.
func (d *Def) Values(p *Payload, slots []SpecSlot) []float64 {
	if len(slots) == 0 {
		return nil
	}
	vals := make([]float64, len(slots))
	for i, ss := range slots {
		vals[i] = d.Value(p, ss.Spec, ss.Slot, ss.Slot2)
	}
	return vals
}

// Value extracts the final value of spec from a result payload given
// the slot indices returned by Plan. Exact-mode counts that exceed
// float64 range saturate; use ExactValue for full precision.
func (d *Def) Value(p *Payload, spec Spec, slot, slot2 int) float64 {
	if p == nil {
		p = d.New()
	}
	switch spec.Kind {
	case CountStar:
		if d.Mode == ModeExact {
			f, _ := new(big.Float).SetInt(p.XCount).Float64()
			return f
		}
		return float64(p.Count)
	case CountType:
		if d.Mode == ModeExact {
			f, _ := new(big.Float).SetInt(p.Slots[slot].X).Float64()
			return f
		}
		return float64(p.Slots[slot].N)
	case Min, Max:
		return p.Slots[slot].F
	case Sum:
		if d.Mode == ModeExact {
			f, _ := p.Slots[slot].XF.Float64()
			return f
		}
		return p.Slots[slot].F
	case Avg:
		sum := d.Value(p, Spec{Kind: Sum, Type: spec.Type, Attr: spec.Attr}, slot, -1)
		cnt := d.Value(p, Spec{Kind: CountType, Type: spec.Type}, slot2, -1)
		if cnt == 0 {
			return math.NaN()
		}
		return sum / cnt
	}
	return math.NaN()
}

// ExactCount returns the exact trend count of p in ModeExact, or the
// native count promoted to big.Int otherwise.
func (d *Def) ExactCount(p *Payload) *big.Int {
	if p == nil {
		return new(big.Int)
	}
	if d.Mode == ModeExact {
		return new(big.Int).Set(p.XCount)
	}
	return new(big.Int).SetUint64(p.Count)
}

// ExactSlotInt returns the exact integer value of a CountE slot.
func (d *Def) ExactSlotInt(p *Payload, slot int) *big.Int {
	if p == nil {
		return new(big.Int)
	}
	if d.Mode == ModeExact {
		return new(big.Int).Set(p.Slots[slot].X)
	}
	return new(big.Int).SetUint64(p.Slots[slot].N)
}
