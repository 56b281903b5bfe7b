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
//
// A Payload is 24 bytes in every definition: the native trend count, the
// latest trend start and a pointer to its slot values. The Def fixes how
// many values that array holds (Def.Width): one per attribute slot and,
// in ModeExact, one more after them whose X is the exact trend count. A
// slot value is laid out by the mode. In ModeNative it is one 8-byte
// word (SlotVal): a COUNT(E) slot's count or a SUM, MIN or MAX slot's
// float64 bits, so a payload's values are one pointer-free array the
// collector does not scan. In ModeExact each is 24 bytes: the same word
// and, beside it, the X and XF big numbers. A slotless native payload
// has no array at all, so a vertex's block of K windows is one 24·K-byte
// object, and a Width-slot native block adds one K·Width·8-byte one.
// Only the Def knows the stride between slot values and reads them
// (Def.Val for the word, Def.Exact for the big numbers), so code outside
// this package that encodes or merges payloads takes the payload's Def
// along.
package aggregate

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"unsafe"

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

// SlotVal is the native value of one slot, one word: a COUNT(E) slot's
// count (N) or the float64 bits of a SUM, MIN or MAX slot (F).
type SlotVal uint64

// N reads v as a COUNT(E) slot's count.
func (v SlotVal) N() uint64 { return uint64(v) }

// F reads v as a SUM, MIN or MAX slot's value.
func (v SlotVal) F() float64 { return math.Float64frombits(uint64(v)) }

// SetN stores a COUNT(E) slot's count in v.
func (v *SlotVal) SetN(n uint64) { *v = SlotVal(n) }

// SetF stores a SUM, MIN or MAX slot's value in v.
func (v *SlotVal) SetF(f float64) { *v = SlotVal(math.Float64bits(f)) }

// exactVal is one slot value of a ModeExact payload: the native word,
// which Def.Val reaches at the element's start, and beside it the exact
// number — X of a COUNT(E) slot or of the trailing exact trend count, XF
// of a SUM slot.
type exactVal struct {
	_  SlotVal
	x  *big.Int
	xf *big.Float
}

// Payload carries the intermediate aggregates of one vertex in one
// window: the trend count (Theorem 4.3), the latest trend start time
// (negation support) and the attribute slots (Theorem 9.1). It is three
// words: the slot values sit in an array of the Def's Width, which vals
// points at, so a payload reads and writes them only through its Def.
type Payload struct {
	Count    uint64
	MaxStart int64
	vals     unsafe.Pointer // *SlotVal, or *exactVal in ModeExact
}

// Width returns the number of slot values a payload of d holds: one per
// slot and, in ModeExact, the exact trend count after them.
func (d *Def) Width() int {
	if d.Mode == ModeExact {
		return len(d.Slots) + 1
	}
	return len(d.Slots)
}

// stride returns the bytes from one of a payload's slot values to the
// next.
func (d *Def) stride() uintptr {
	if d.Mode == ModeExact {
		return unsafe.Sizeof(exactVal{})
	}
	return unsafe.Sizeof(SlotVal(0))
}

// PayloadBytes returns the bytes a payload of d lays out: the Payload
// itself and its slot values. It counts no big number of ModeExact.
func (d *Def) PayloadBytes() int {
	return int(unsafe.Sizeof(Payload{}) + uintptr(d.Width())*d.stride())
}

// Val returns slot i's value in p, indexed as d.Slots.
func (d *Def) Val(p *Payload, i int) *SlotVal {
	_ = d.Slots[i] // past the slots lies another payload's value
	return (*SlotVal)(unsafe.Add(p.vals, uintptr(i)*d.stride()))
}

// Exact returns slot i's exact numbers in p: X of a COUNT(E) slot, XF of
// a SUM slot, and at i = len(d.Slots) the exact trend count in X. Both
// are nil in ModeNative and where the kind has none.
func (d *Def) Exact(p *Payload, i int) (*big.Int, *big.Float) {
	if d.Mode != ModeExact {
		return nil, nil
	}
	e := &d.exact(p)[i]
	return e.x, e.xf
}

// words returns the slot values of p, a ModeNative payload.
func (d *Def) words(p *Payload) []SlotVal { return unsafe.Slice((*SlotVal)(p.vals), len(d.Slots)) }

// exact returns the slot values of p, a ModeExact payload, the exact
// trend count last.
func (d *Def) exact(p *Payload) []exactVal {
	return unsafe.Slice((*exactVal)(p.vals), d.Width())
}

// xcount returns p's exact trend count; d is in ModeExact.
func (d *Def) xcount(p *Payload) *big.Int { return d.exact(p)[len(d.Slots)].x }

// newVals returns fresh zero storage for n payloads' slot values, nil
// when d has none.
func (d *Def) newVals(n int) unsafe.Pointer {
	switch w := d.Width(); {
	case w == 0 || n == 0:
		return nil
	case d.Mode == ModeExact:
		return unsafe.Pointer(&make([]exactVal, n*w)[0])
	default:
		return unsafe.Pointer(&make([]SlotVal, n*w)[0])
	}
}

// New returns a zero payload for the definition.
func (d *Def) New() *Payload {
	p := &Payload{vals: d.newVals(1)}
	d.prepare(p)
	return p
}

// NewBlock returns k zero payloads of the definition as values in one
// slice — a graph vertex's per-window block, 24 bytes a window — their
// slot values cut from one backing array: in ModeNative a pointer-free
// one of 8 bytes a slot value.
func (d *Def) NewBlock(k int) []Payload {
	b := make([]Payload, k)
	vals := d.newVals(k)
	step := uintptr(d.Width()) * d.stride()
	for i := range b {
		if vals != nil {
			b[i].vals = unsafe.Add(vals, uintptr(i)*step)
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

// prepare makes p, whose slot values are fresh, a zero payload: min/max
// at their identities, exact-mode numbers allocated.
func (d *Def) prepare(p *Payload) {
	p.MaxStart = NoStart
	for i, s := range d.Slots {
		*d.Val(p, i) = identity(s.Kind)
	}
	if d.Mode == ModeExact {
		xs := d.exact(p)
		xs[len(d.Slots)].x = new(big.Int)
		for i, s := range d.Slots {
			switch s.Kind {
			case SlotCountE:
				xs[i].x = new(big.Int)
			case SlotSum:
				xs[i].xf = new(big.Float).SetPrec(sumPrec)
			}
		}
	}
}

// identity returns the value of a slot of kind k over no trends: +Inf
// for MIN, -Inf for MAX, zero otherwise.
func identity(k SlotKind) SlotVal {
	var v SlotVal
	switch k {
	case SlotMin:
		v.SetF(math.Inf(1))
	case SlotMax:
		v.SetF(math.Inf(-1))
	}
	return v
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
	if p.MaxStart > dst.MaxStart {
		dst.MaxStart = p.MaxStart
	}
	if dst.vals == nil { // a slotless native payload: nothing more to fold
		return
	}
	if d.Mode == ModeExact {
		for i, s := range d.Slots {
			fold(s.Kind, d.Val(dst, i), *d.Val(p, i))
		}
		d.foldExact(dst, p, (*big.Int).Add, (*big.Float).Add)
		return
	}
	dw, pw := d.words(dst), d.words(p)
	for i, s := range d.Slots {
		fold(s.Kind, &dw[i], pw[i])
	}
}

// fold folds v into dv, a slot value of kind k. It is small enough to
// inline into AddPred's loop.
func fold(k SlotKind, dv *SlotVal, v SlotVal) {
	switch lo, hi := v.F(), dv.F(); k {
	case SlotCountE:
		*dv += v
	case SlotSum:
		dv.SetF(hi + lo)
	case SlotMax:
		lo, hi = hi, lo
		fallthrough
	case SlotMin:
		if lo < hi {
			*dv = v
		}
	}
}

// foldExact applies addX to the exact trend counts and COUNT(E) numbers
// of dst and src, and addXF to their SUM numbers; d is in ModeExact.
func (d *Def) foldExact(dst, src *Payload, addX func(z, x, y *big.Int) *big.Int, addXF func(z, x, y *big.Float) *big.Float) {
	dx, sx := d.exact(dst), d.exact(src)
	for i := range dx {
		if dx[i].x != nil {
			addX(dx[i].x, dx[i].x, sx[i].x)
		}
		if dx[i].xf != nil {
			addXF(dx[i].xf, dx[i].xf, sx[i].xf)
		}
	}
}

// OnStart accounts for the event starting a new trend: count += 1
// (Theorem 4.3) and MaxStart tracking.
func (d *Def) OnStart(dst *Payload, t event.Time) {
	dst.Count++
	if d.Mode == ModeExact {
		x := d.xcount(dst)
		x.Add(x, bigOne)
	}
	if d.TrackStart && int64(t) > dst.MaxStart {
		dst.MaxStart = int64(t)
	}
}

var bigOne = big.NewInt(1)

// applySelf folds the self-contribution of one event into slot i.
func (d *Def) applySelf(dst *Payload, i int, kind SlotKind, attr float64) {
	dv := d.Val(dst, i)
	switch kind {
	case SlotCountE:
		*dv += SlotVal(dst.Count)
		if d.Mode == ModeExact {
			x := d.exact(dst)[i].x
			x.Add(x, d.xcount(dst))
		}
	case SlotSum:
		dv.SetF(dv.F() + attr*float64(dst.Count))
		if d.Mode == ModeExact {
			t := new(big.Float).SetPrec(sumPrec).SetInt(d.xcount(dst))
			t.Mul(t, big.NewFloat(attr))
			xf := d.exact(dst)[i].xf
			xf.Add(xf, t)
		}
	case SlotMin:
		if attr < dv.F() {
			dv.SetF(attr)
		}
	case SlotMax:
		if attr > dv.F() {
			dv.SetF(attr)
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
	for i, s := range d.Slots {
		dv, sv := d.Val(dst, i), *d.Val(src, i)
		switch s.Kind {
		case SlotCountE:
			*dv -= sv
		case SlotSum:
			dv.SetF(dv.F() - sv.F())
		}
	}
	if d.Mode == ModeExact {
		d.foldExact(dst, src, (*big.Int).Sub, (*big.Float).Sub)
	}
}

// Clone returns a deep copy of p.
func (d *Def) Clone(p *Payload) *Payload {
	c := d.New()
	c.Count, c.MaxStart = p.Count, p.MaxStart
	for i := range d.Slots {
		*d.Val(c, i) = *d.Val(p, i)
	}
	if d.Mode == ModeExact {
		d.foldExact(c, p, func(z, _, y *big.Int) *big.Int { return z.Set(y) },
			func(z, _, y *big.Float) *big.Float { return z.Set(y) })
	}
	return c
}

// Zero reports whether the payload carries no trends; a nil payload
// carries none.
func (d *Def) Zero(p *Payload) bool {
	if p == nil {
		return true
	}
	if d.Mode == ModeExact {
		return d.xcount(p).Sign() == 0
	}
	return p.Count == 0
}

// SetCount sets p's trend count to x, the exact count in ModeExact and
// its low 64 bits in the native count.
func (d *Def) SetCount(p *Payload, x *big.Int) {
	p.Count = x.Uint64()
	if d.Mode == ModeExact {
		d.xcount(p).Set(x)
	}
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
			f, _ := new(big.Float).SetInt(d.xcount(p)).Float64()
			return f
		}
		return float64(p.Count)
	case CountType:
		if x, _ := d.Exact(p, slot); x != nil {
			f, _ := new(big.Float).SetInt(x).Float64()
			return f
		}
		return float64(d.Val(p, slot).N())
	case Min, Max:
		return d.Val(p, slot).F()
	case Sum:
		if _, xf := d.Exact(p, slot); xf != nil {
			f, _ := xf.Float64()
			return f
		}
		return d.Val(p, slot).F()
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
		return new(big.Int).Set(d.xcount(p))
	}
	return new(big.Int).SetUint64(p.Count)
}

// ExactSlotInt returns the exact integer value of a CountE slot.
func (d *Def) ExactSlotInt(p *Payload, slot int) *big.Int {
	if p == nil {
		return new(big.Int)
	}
	if x, _ := d.Exact(p, slot); x != nil {
		return new(big.Int).Set(x)
	}
	return new(big.Int).SetUint64(d.Val(p, slot).N())
}
