// Package event defines the GRETA data model: typed events with
// application timestamps and attribute maps, arriving on an in-order
// stream (paper §2).
//
// Time is a linearly ordered set of points. The paper models T ⊆ Q+; we
// use int64 ticks (the unit is left to the application: seconds in the
// paper's workloads). Events must arrive in non-decreasing timestamp
// order; out-of-order handling is delegated to upstream mechanisms as in
// the paper.
package event

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Time is an application timestamp (a point in the paper's linearly
// ordered time domain T).
type Time = int64

// Type identifies an event type E. A type is described by a Schema.
type Type string

// Event is a single stream message: something of interest that happened
// in the real world at Time, of a given Type, carrying named attributes.
//
// ID is a per-stream sequence number assigned by the source; it breaks
// ties between events that share a timestamp and serves as a stable
// identity for graph vertices.
type Event struct {
	ID    uint64
	Type  Type
	Time  Time
	Attrs map[string]float64
	// Str holds string-valued attributes (e.g. company, sector) used by
	// equivalence predicates and grouping. Numeric attributes live in
	// Attrs so predicate evaluation stays allocation-free.
	Str map[string]string

	// Sch, Num, and StrV are the schema-compiled dense representation:
	// when Sch is non-nil, Num is aligned with Sch.Numeric (NaN marks an
	// absent value) and StrV with Sch.Strings ("" marks an absent value).
	// The runtime reads attributes through these arrays by precompiled
	// slot index instead of probing the maps, keeping the per-event hot
	// path free of hashing. Populate them once at ingest with
	// Schema.Bind; events without a schema fall back to the maps.
	Sch  *Schema
	Num  []float64
	StrV []string
}

// Attr returns the numeric attribute named name and whether it exists.
func (e *Event) Attr(name string) (float64, bool) {
	a := NewAccessor(name)
	return a.Float(e)
}

// StrAttr returns the string attribute named name and whether it exists.
func (e *Event) StrAttr(name string) (string, bool) {
	a := NewAccessor(name)
	return a.Str(e)
}

// String renders the event as "a1", "b7" style when the type is a single
// letter (as in the paper's figures), otherwise "Type@time#id".
func (e *Event) String() string {
	t := string(e.Type)
	if len(t) == 1 {
		return fmt.Sprintf("%s%d", strings.ToLower(t), e.Time)
	}
	return fmt.Sprintf("%s@%d#%d", t, e.Time, e.ID)
}

// Schema describes the attributes of an event type. Generators attach
// schemas so tooling can introspect workloads, and the runtime compiles
// attribute access against them: events bound to a schema (Schema.Bind)
// carry dense slot arrays that replace map probes on the hot path.
type Schema struct {
	Type    Type
	Numeric []string
	Strings []string
}

// NumSlot returns the dense slot index of a numeric attribute, or -1.
// Attribute counts are small, so a linear scan beats a map and needs no
// precomputed state (keeping Schema values safe for concurrent reads).
func (s *Schema) NumSlot(name string) int {
	for i, n := range s.Numeric {
		if n == name {
			return i
		}
	}
	return -1
}

// StrSlot returns the dense slot index of a string attribute, or -1.
func (s *Schema) StrSlot(name string) int {
	for i, n := range s.Strings {
		if n == name {
			return i
		}
	}
	return -1
}

// Bind attaches the schema to e and populates its dense slot arrays
// from the attribute maps. Absent numeric attributes read as NaN,
// absent strings as "". Call once per event at ingest; concurrent
// consumers may then read the arrays freely.
func (s *Schema) Bind(e *Event) {
	e.Sch = s
	if len(s.Numeric) > 0 {
		if cap(e.Num) >= len(s.Numeric) {
			e.Num = e.Num[:len(s.Numeric)]
		} else {
			e.Num = make([]float64, len(s.Numeric))
		}
		for i, n := range s.Numeric {
			if v, ok := e.Attrs[n]; ok {
				e.Num[i] = v
			} else {
				e.Num[i] = math.NaN()
			}
		}
	}
	if len(s.Strings) > 0 {
		if cap(e.StrV) >= len(s.Strings) {
			e.StrV = e.StrV[:len(s.Strings)]
		} else {
			e.StrV = make([]string, len(s.Strings))
		}
		for i, n := range s.Strings {
			e.StrV[i] = e.Str[n]
		}
	}
}

// BindAll binds each event whose type has a schema in schemas; events
// of other types are left schemaless (the runtime falls back to map
// access for them).
func BindAll(evs []*Event, schemas []*Schema) {
	for _, ev := range evs {
		for _, s := range schemas {
			if s.Type == ev.Type {
				s.Bind(ev)
				break
			}
		}
	}
}

// Stream is a finite, in-order sequence of events. The runtime consumes
// streams through iteration so that channel-fed, generator-fed, and
// slice-backed streams share one interface.
type Stream interface {
	// Next returns the next event, or nil when the stream is exhausted.
	Next() *Event
}

// SliceStream adapts a []*Event to Stream.
type SliceStream struct {
	events []*Event
	pos    int
}

// NewSliceStream returns a Stream over evs. It does not copy evs.
func NewSliceStream(evs []*Event) *SliceStream {
	return &SliceStream{events: evs}
}

// Next implements Stream.
func (s *SliceStream) Next() *Event {
	if s.pos >= len(s.events) {
		return nil
	}
	e := s.events[s.pos]
	s.pos++
	return e
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of events in the stream.
func (s *SliceStream) Len() int { return len(s.events) }

// FuncStream adapts a generator function to Stream: each Next calls f,
// and the stream ends when f returns nil. Useful for synthetic and
// unbounded sources.
type FuncStream func() *Event

// Next implements Stream.
func (f FuncStream) Next() *Event { return f() }

// ChanStream adapts a receive channel to Stream, enabling live ingestion
// from concurrent producers.
type ChanStream struct {
	C <-chan *Event
}

// Next implements Stream. It blocks until an event is available and
// returns nil once the channel is closed.
func (s *ChanStream) Next() *Event {
	e, ok := <-s.C
	if !ok {
		return nil
	}
	return e
}

// Collect drains a stream into a slice.
func Collect(s Stream) []*Event {
	var out []*Event
	for e := s.Next(); e != nil; e = s.Next() {
		out = append(out, e)
	}
	return out
}

// Sorted reports whether evs is in non-decreasing time order with
// strictly increasing IDs among equal timestamps.
func Sorted(evs []*Event) bool {
	return slices.IsSortedFunc(evs, func(a, b *Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Validate checks in-order arrival (paper §2 assumes in-order streams)
// and returns a descriptive error on the first violation.
func Validate(evs []*Event) error {
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			return fmt.Errorf("event: out-of-order timestamp at index %d: %d after %d",
				i, evs[i].Time, evs[i-1].Time)
		}
	}
	return nil
}

// Builder constructs in-order test and example streams with automatic
// IDs. The zero value is ready to use.
type Builder struct {
	evs    []*Event
	nextID uint64
}

// Add appends an event of the given type and time with optional numeric
// attributes supplied as alternating name, value pairs.
func (b *Builder) Add(typ Type, t Time, attrs map[string]float64) *Builder {
	b.nextID++
	b.evs = append(b.evs, &Event{ID: b.nextID, Type: typ, Time: t, Attrs: attrs})
	return b
}

// AddStr appends an event carrying both numeric and string attributes.
func (b *Builder) AddStr(typ Type, t Time, attrs map[string]float64, strs map[string]string) *Builder {
	b.nextID++
	b.evs = append(b.evs, &Event{ID: b.nextID, Type: typ, Time: t, Attrs: attrs, Str: strs})
	return b
}

// Events returns the accumulated events. The builder remains usable.
func (b *Builder) Events() []*Event { return b.evs }

// Stream returns a SliceStream over the accumulated events.
func (b *Builder) Stream() *SliceStream { return NewSliceStream(b.evs) }
