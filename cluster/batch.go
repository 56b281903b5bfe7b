package cluster

import (
	"time"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/netstream"
)

// batchRows caps the rows buffered per link before a frame is flushed.
// Barriers, registrations, and lifecycle commands always flush first —
// frames never straddle them.
const batchRows = 512

// pair is one routed (route group, partition hash) target for an
// event.
type pair struct {
	gi int
	h  uint64
}

// batchBuf accumulates one link's pending columnar frame, in the form
// the link's client encodes from; every slice is reused from frame to
// frame (cols and scols keep the columns a narrower shape leaves idle).
// A frame's column layout is its rows' shape (event.ShapeCache): events
// of one shape ride one frame, their values read through the shape's
// accessors.
type batchBuf struct {
	shape *event.Schema
	nacc  []event.Accessor
	sacc  []event.Accessor
	f     netstream.BatchFrame
	cols  [][]float64
	scols [][]string
}

// add appends one routed row. A shape change flushes the pending
// frame first; the caller flushes on the row cap. co.mu held.
func (b *batchBuf) add(l *link, shape *event.Schema, ev *greta.Event, pairs []pair) {
	f := &b.f
	if b.shape != shape {
		b.flush(l)
		b.shape, f.Type, f.Nums, f.Strs = shape, string(shape.Type), shape.Numeric, shape.Strings
		b.nacc, b.sacc = b.nacc[:0], b.sacc[:0]
		for _, a := range shape.Numeric {
			b.nacc = append(b.nacc, event.NewAccessor(a))
		}
		for _, a := range shape.Strings {
			b.sacc = append(b.sacc, event.NewAccessor(a))
		}
		for len(b.cols) < len(b.nacc) {
			b.cols = append(b.cols, nil)
		}
		for len(b.scols) < len(b.sacc) {
			b.scols = append(b.scols, nil)
		}
		f.Cols, f.SCols = b.cols[:len(b.nacc)], b.scols[:len(b.sacc)]
	}
	f.Times = append(f.Times, ev.Time)
	for i := range b.nacc {
		v, _ := b.nacc[i].Float(ev)
		f.Cols[i] = append(f.Cols[i], v)
	}
	for i := range b.sacc {
		v, _ := b.sacc[i].Str(ev)
		f.SCols[i] = append(f.SCols[i], v)
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
