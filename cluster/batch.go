package cluster

import (
	"slices"
	"strconv"
	"strings"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/netstream"
)

// pair is one routed (route group, partition hash) target for an
// event.
type pair struct {
	gi int
	h  uint64
}

// rowShape is a batch frame's column layout: an event type plus its
// sorted numeric and string attribute names. Events of the same shape
// ride the same frame.
type rowShape struct {
	typ  string
	key  string
	nums []string
	strs []string
}

// schView caches the shape and slot permutation of one schema, so
// schema-bound events convert to shape order without re-sorting.
type schView struct {
	shape  *rowShape
	numIdx []int // shape.nums[i] == Sch.Numeric[numIdx[i]]
	strIdx []int
}

// row is one event converted to shape-ordered column values.
type row struct {
	shape *rowShape
	t     int64
	num   []float64
	strs  []string
}

func shapeKey(typ string, nums, strs []string) string {
	return typ + "\x00" + strings.Join(nums, "\x01") + "\x00" + strings.Join(strs, "\x01")
}

// rowOf converts ev into shape-ordered column values, caching shapes
// per schema pointer (schema-bound events) and per key (map events).
// co.mu held.
func (co *Coordinator) rowOf(ev *greta.Event) *row {
	if ev.Sch != nil {
		v := co.schShapes[ev.Sch]
		if v == nil {
			nums := slices.Clone(ev.Sch.Numeric)
			slices.Sort(nums)
			strs := slices.Clone(ev.Sch.Strings)
			slices.Sort(strs)
			v = &schView{
				shape:  &rowShape{typ: string(ev.Sch.Type), key: shapeKey(string(ev.Sch.Type), nums, strs), nums: nums, strs: strs},
				numIdx: make([]int, len(nums)),
				strIdx: make([]int, len(strs)),
			}
			for i, a := range nums {
				v.numIdx[i] = slices.Index(ev.Sch.Numeric, a)
			}
			for i, a := range strs {
				v.strIdx[i] = slices.Index(ev.Sch.Strings, a)
			}
			co.schShapes[ev.Sch] = v
		}
		r := &row{shape: v.shape, t: ev.Time,
			num: make([]float64, len(v.numIdx)), strs: make([]string, len(v.strIdx))}
		for i, j := range v.numIdx {
			r.num[i] = ev.Num[j]
		}
		for i, j := range v.strIdx {
			r.strs[i] = ev.StrV[j]
		}
		return r
	}
	nums := make([]string, 0, len(ev.Attrs))
	for a := range ev.Attrs {
		nums = append(nums, a)
	}
	slices.Sort(nums)
	strs := make([]string, 0, len(ev.Str))
	for a := range ev.Str {
		strs = append(strs, a)
	}
	slices.Sort(strs)
	key := shapeKey(string(ev.Type), nums, strs)
	shape := co.mapShapes[key]
	if shape == nil {
		shape = &rowShape{typ: string(ev.Type), key: key, nums: nums, strs: strs}
		co.mapShapes[key] = shape
	}
	r := &row{shape: shape, t: ev.Time,
		num: make([]float64, len(shape.nums)), strs: make([]string, len(shape.strs))}
	for i, a := range shape.nums {
		r.num[i] = ev.Attrs[a]
	}
	for i, a := range shape.strs {
		r.strs[i] = ev.Str[a]
	}
	return r
}

// batchBuf accumulates one link's pending columnar frame. Route info
// stays in the compact single-group form (frame-level GI, one hash per
// row) until a row with a different group — or several — promotes the
// frame to per-row group lists.
type batchBuf struct {
	shape *rowShape
	times []int64
	cols  [][]float64
	scols [][]string

	single bool
	gi     int
	rh     []string
	rgs    [][]int
	rhs    [][]string
}

// add appends one routed row. A shape change flushes the pending
// frame first; the caller flushes on the row cap. co.mu held.
func (b *batchBuf) add(l *link, r *row, pairs []pair) {
	if len(b.times) > 0 && b.shape.key != r.shape.key {
		b.flush(l)
	}
	if len(b.times) == 0 {
		if b.shape == nil || b.shape.key != r.shape.key {
			b.shape = r.shape
			b.cols = make([][]float64, len(r.shape.nums))
			b.scols = make([][]string, len(r.shape.strs))
		}
		b.single = true
		b.gi = -1
	}
	b.times = append(b.times, r.t)
	for i, v := range r.num {
		b.cols[i] = append(b.cols[i], v)
	}
	for i, v := range r.strs {
		b.scols[i] = append(b.scols[i], v)
	}
	if b.single && len(pairs) == 1 && (b.gi < 0 || b.gi == pairs[0].gi) {
		b.gi = pairs[0].gi
		b.rh = append(b.rh, strconv.FormatUint(pairs[0].h, 16))
		return
	}
	if b.single {
		b.promote()
	}
	rg := make([]int, len(pairs))
	rh := make([]string, len(pairs))
	for i, p := range pairs {
		rg[i] = p.gi
		rh[i] = strconv.FormatUint(p.h, 16)
	}
	b.rgs = append(b.rgs, rg)
	b.rhs = append(b.rhs, rh)
}

// promote rewrites the single-group route info into per-row lists
// (called before appending the row that broke the single form).
func (b *batchBuf) promote() {
	b.single = false
	b.rgs = make([][]int, len(b.rh))
	b.rhs = make([][]string, len(b.rh))
	for i, hx := range b.rh {
		b.rgs[i] = []int{b.gi}
		b.rhs[i] = []string{hx}
	}
	b.rh = nil
}

// flush sends the pending frame, if any, and empties the buffer. The
// resend ring retains the frame's encoded bytes, not its slices, so the
// columns are reused by the next frame of the same shape. co.mu held.
func (b *batchBuf) flush(l *link) {
	n := len(b.times)
	if n == 0 {
		return
	}
	we := netstream.WireEvent{Cmd: "batch", Type: b.shape.typ, Times: b.times}
	if len(b.cols) > 0 {
		we.Cols = make(map[string][]float64, len(b.cols))
		for i, a := range b.shape.nums {
			we.Cols[a] = b.cols[i]
		}
	}
	if len(b.scols) > 0 {
		we.SCols = make(map[string][]string, len(b.scols))
		for i, a := range b.shape.strs {
			we.SCols[a] = b.scols[i]
		}
	}
	if b.single {
		we.GI = b.gi
		we.RH = b.rh
	} else {
		we.RGs = b.rgs
		we.RHs = b.rhs
	}
	l.send(we)
	b.times = b.times[:0]
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	for i := range b.scols {
		b.scols[i] = b.scols[i][:0]
	}
	b.rh, b.rgs, b.rhs = b.rh[:0], nil, nil
}
