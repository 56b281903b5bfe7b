package event

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Batch is a columnar block of schema-bound events of one type: dense
// per-attribute values laid out in schema slot order, materialized as
// Event rows whose Num/StrV slices alias the batch's backing arrays.
// Appending never probes attribute maps — a batch row carries nil
// Attrs/Str maps, so its dense slots fully determine every attribute
// read (NaN marks an absent numeric value, "" an absent string, the
// same markers Schema.Bind writes).
//
// That absence convention is the batch contract: a batch cannot
// represent a *present* NaN attribute (it reads as absent) or a
// present empty-string attribute (it reads as missing for partition
// identity). Sources with such values must fall back to the per-event
// path for those events.
//
// A batch handed to Runtime.ProcessBatch transfers ownership of its
// rows to the runtime: graphs retain pointers into the batch's Event
// array, so the caller must not Reset or reuse the batch while any
// window that saw its rows is still open. Ingest loops that recycle
// batches should allocate a fresh one per ProcessBatch call or rotate
// through enough batches to outlive the window span.
type Batch struct {
	sch *Schema
	// evs is the materialized row storage; rows aliases it as the
	// *Event view the engines consume.
	evs  []Event
	rows []*Event
	// num and strv are the dense backing arrays, row-major with strides
	// len(sch.Numeric) and len(sch.Strings): row i's numeric slots are
	// num[i*nw : (i+1)*nw]. Row-major keeps each Event's Num/StrV a
	// contiguous sub-slice while column access stays a strided walk.
	num  []float64
	strv []string
	n    int
}

// NewBatch returns an empty batch bound to sch with capacity for n
// rows. The schema must not be nil; its Type stamps every row.
func NewBatch(sch *Schema, n int) *Batch {
	if sch == nil {
		panic("event: NewBatch requires a schema")
	}
	b := &Batch{sch: sch}
	b.grow(n)
	return b
}

func (b *Batch) grow(n int) {
	if n <= cap(b.evs) {
		return
	}
	nw, sw := len(b.sch.Numeric), len(b.sch.Strings)
	evs := make([]Event, n)
	rows := make([]*Event, n)
	num := make([]float64, n*nw)
	strv := make([]string, n*sw)
	copy(evs, b.evs[:b.n])
	copy(num, b.num[:b.n*nw])
	copy(strv, b.strv[:b.n*sw])
	b.evs, b.rows, b.num, b.strv = evs, rows, num, strv
	// Re-slice moved rows onto the new backing arrays.
	for i := 0; i < b.n; i++ {
		b.wire(i)
	}
}

// wire points row i's Event at its dense sub-slices.
func (b *Batch) wire(i int) {
	nw, sw := len(b.sch.Numeric), len(b.sch.Strings)
	ev := &b.evs[i]
	ev.Sch = b.sch
	if nw > 0 {
		ev.Num = b.num[i*nw : (i+1)*nw : (i+1)*nw]
	}
	if sw > 0 {
		ev.StrV = b.strv[i*sw : (i+1)*sw : (i+1)*sw]
	}
	b.rows[i] = ev
}

// Append adds one row. num and strs are in schema slot order
// (Schema.Numeric / Schema.Strings); nil or short slices leave the
// remaining slots absent (NaN / ""). The row's ID must follow the
// stream's sequence-number discipline and its Time the batch's
// non-decreasing order for the fast ingest path to accept it.
func (b *Batch) Append(id uint64, t Time, num []float64, strs []string) {
	i := b.n
	b.grow(growCap(i + 1))
	b.n = i + 1
	nw, sw := len(b.sch.Numeric), len(b.sch.Strings)
	ev := &b.evs[i]
	*ev = Event{ID: id, Type: b.sch.Type, Time: t}
	b.wire(i)
	for j := 0; j < nw; j++ {
		if j < len(num) {
			ev.Num[j] = num[j]
		} else {
			ev.Num[j] = math.NaN()
		}
	}
	for j := 0; j < sw; j++ {
		if j < len(strs) {
			ev.StrV[j] = strs[j]
		} else {
			ev.StrV[j] = ""
		}
	}
}

// growCap doubles capacity with a small floor, amortizing Append.
func growCap(need int) int {
	c := 16
	for c < need {
		c *= 2
	}
	return c
}

// AppendEvent copies a map-carried event of the batch's type into the
// next row, binding it to the batch schema. It returns an error when
// the event cannot round-trip through the dense representation: a type
// mismatch, an attribute the schema does not list, a NaN numeric
// value, or an empty-string value (the latter two collide with the
// absence markers). Callers route such events through the per-event
// path instead.
func (b *Batch) AppendEvent(ev *Event) error {
	if ev.Type != b.sch.Type {
		return fmt.Errorf("event: batch type %q cannot hold %q", b.sch.Type, ev.Type)
	}
	for a, v := range ev.Attrs {
		if b.sch.NumSlot(a) < 0 || math.IsNaN(v) {
			return b.refusal(ev)
		}
	}
	for a, v := range ev.Str {
		if b.sch.StrSlot(a) < 0 || v == "" {
			return b.refusal(ev)
		}
	}
	i := b.n
	b.Append(ev.ID, ev.Time, nil, nil)
	row := &b.evs[i]
	for j, a := range b.sch.Numeric {
		if v, ok := ev.Attrs[a]; ok {
			row.Num[j] = v
		}
	}
	for j, a := range b.sch.Strings {
		row.StrV[j] = ev.Str[a]
	}
	return nil
}

// refusal says why AppendEvent refuses ev, naming the first offending
// attribute in name order, numeric ones first: with several, the error
// does not follow map order.
func (b *Batch) refusal(ev *Event) error {
	for _, a := range slices.Sorted(maps.Keys(ev.Attrs)) {
		if b.sch.NumSlot(a) < 0 {
			return fmt.Errorf("event: attribute %q not in batch schema", a)
		}
		if math.IsNaN(ev.Attrs[a]) {
			return fmt.Errorf("event: NaN value for %q collides with the absence marker", a)
		}
	}
	for _, a := range slices.Sorted(maps.Keys(ev.Str)) {
		if b.sch.StrSlot(a) < 0 {
			return fmt.Errorf("event: string attribute %q not in batch schema", a)
		}
		if ev.Str[a] == "" {
			return fmt.Errorf("event: empty string for %q collides with the absence marker", a)
		}
	}
	return nil
}

// Schema returns the schema every row is bound to.
func (b *Batch) Schema() *Schema { return b.sch }

// Type returns the event type of every row.
func (b *Batch) Type() Type { return b.sch.Type }

// Len returns the number of rows.
func (b *Batch) Len() int { return b.n }

// Rows returns the materialized row view, one *Event per appended row,
// aliasing the batch's dense storage.
func (b *Batch) Rows() []*Event { return b.rows[:b.n] }

// Row returns row i.
func (b *Batch) Row(i int) *Event { return b.rows[i] }

// NumColumn returns a strided accessor for the numeric attribute in
// slot s: the value of row i is col[i*stride + s]. It returns the
// backing array and stride rather than copying a column out.
func (b *Batch) NumColumn() (col []float64, stride int) {
	return b.num, len(b.sch.Numeric)
}

// Reset empties the batch for reuse. Only safe once no engine retains
// the previous rows (see the ownership note on Batch).
func (b *Batch) Reset() { b.n = 0 }
