package cluster

import (
	"encoding/binary"
	"slices"
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/netstream"
)

// pair is one routed (route group, partition hash) target for an
// event.
type pair struct {
	gi int
	h  uint64
}

// rowShape is a batch frame's column layout: an event type plus the
// sorted names of the numeric and string attributes a row has. Events
// of the same shape ride the same frame; shapes are cached by name set
// (Coordinator.mapShapes), so one shape is one pointer.
type rowShape struct {
	typ  string
	nums []string
	strs []string
}

// shapeOf returns ev's shape — its type and the attributes it has; a
// slot Schema.Bind left absent (NaN, "") is not one of them, exactly as
// an attribute missing from a map-carried event's maps is not.
// Schema-bound events with every slot filled, the common kind, find it
// by schema pointer; for the rest the cache's lookup key is built in
// scratch from the sorted names, length-prefixed so no two shapes share
// one. co.mu held.
func (co *Coordinator) shapeOf(ev *greta.Event) *rowShape {
	sch, typ := ev.Sch, ev.Type
	full := sch != nil && len(ev.Num) == len(sch.Numeric) && len(ev.StrV) == len(sch.Strings) &&
		!slices.ContainsFunc(ev.Num, func(v float64) bool { return v != v }) && !slices.Contains(ev.StrV, "")
	if full {
		if shape := co.schShapes[sch]; shape != nil {
			return shape
		}
	}
	nums, strs := co.names[0][:0], co.names[1][:0]
	if sch == nil {
		for a := range ev.Attrs {
			nums = append(nums, a)
		}
		for a := range ev.Str {
			strs = append(strs, a)
		}
	} else {
		// A marked slot is absent unless the maps, the source of truth the
		// slots cache, hold the marker as a value.
		typ = sch.Type
		for j, a := range sch.Numeric {
			if _, ok := ev.Attrs[a]; ok || (j < len(ev.Num) && ev.Num[j] == ev.Num[j]) {
				nums = append(nums, a)
			}
		}
		for j, a := range sch.Strings {
			if _, ok := ev.Str[a]; ok || (j < len(ev.StrV) && ev.StrV[j] != "") {
				strs = append(strs, a)
			}
		}
	}
	slices.Sort(nums)
	slices.Sort(strs)
	co.names = [2][]string{nums, strs}

	key := binary.AppendUvarint(co.shapeKey[:0], uint64(len(typ)))
	key = append(key, typ...)
	key = binary.AppendUvarint(key, uint64(len(nums)))
	for _, names := range co.names {
		for _, a := range names {
			key = binary.AppendUvarint(key, uint64(len(a)))
			key = append(key, a...)
		}
	}
	co.shapeKey = key
	shape := co.mapShapes[string(key)]
	if shape == nil {
		shape = &rowShape{typ: string(typ), nums: slices.Clone(nums), strs: slices.Clone(strs)}
		co.mapShapes[string(key)] = shape
	}
	if full {
		co.schShapes[sch] = shape
	}
	return shape
}

// numAttr and strAttr read an attribute the shape says ev has: the
// schema slot when it holds a value, else the map.
func numAttr(ev *greta.Event, a string) float64 {
	if ev.Sch != nil {
		if j := ev.Sch.NumSlot(a); j >= 0 && j < len(ev.Num) && ev.Num[j] == ev.Num[j] {
			return ev.Num[j]
		}
	}
	return ev.Attrs[a]
}

func strAttr(ev *greta.Event, a string) string {
	if ev.Sch != nil {
		if j := ev.Sch.StrSlot(a); j >= 0 && j < len(ev.StrV) && ev.StrV[j] != "" {
			return ev.StrV[j]
		}
	}
	return ev.Str[a]
}

// batchBuf accumulates one link's pending columnar frame, in the form
// the link's client encodes from; every slice is reused from frame to
// frame (cols and scols keep the columns a narrower shape leaves idle).
type batchBuf struct {
	shape *rowShape
	f     netstream.BatchFrame
	cols  [][]float64
	scols [][]string
}

// add appends one routed row. A shape change flushes the pending
// frame first; the caller flushes on the row cap. co.mu held.
func (b *batchBuf) add(l *link, shape *rowShape, ev *greta.Event, pairs []pair) {
	f := &b.f
	if len(f.Times) > 0 && b.shape != shape {
		b.flush(l)
	}
	if len(f.Times) == 0 {
		b.shape, f.Type, f.Nums, f.Strs = shape, shape.typ, shape.nums, shape.strs
		for len(b.cols) < len(shape.nums) {
			b.cols = append(b.cols, nil)
		}
		for len(b.scols) < len(shape.strs) {
			b.scols = append(b.scols, nil)
		}
		f.Cols, f.SCols = b.cols[:len(shape.nums)], b.scols[:len(shape.strs)]
	}
	f.Times = append(f.Times, ev.Time)
	for i, a := range shape.nums {
		f.Cols[i] = append(f.Cols[i], numAttr(ev, a))
	}
	for i, a := range shape.strs {
		f.SCols[i] = append(f.SCols[i], strAttr(ev, a))
	}
	for _, p := range pairs {
		f.RGs, f.RHs = append(f.RGs, p.gi), append(f.RHs, p.h)
	}
	f.RowEnd = append(f.RowEnd, len(f.RGs))
}

// flush sends the pending frame, if any, and empties the buffer. The
// resend ring retains the frame's encoded bytes, not its slices. A
// frame that cannot be encoded (a NaN or infinite attribute) has no
// replay, so it fails the cluster. co.mu held.
func (b *batchBuf) flush(l *link) {
	f := &b.f
	if len(f.Times) == 0 {
		return
	}
	t0 := time.Now()
	n, err := l.c.SendBatchFrame(f)
	l.sent("batch", t0, n, err)
	f.Times, f.RowEnd, f.RGs, f.RHs = f.Times[:0], f.RowEnd[:0], f.RGs[:0], f.RHs[:0]
	for i := range f.Cols {
		f.Cols[i] = f.Cols[i][:0]
	}
	for i := range f.SCols {
		f.SCols[i] = f.SCols[i][:0]
	}
}
