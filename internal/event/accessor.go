package event

import "math"

// Accessor reads one named attribute of events, resolving the dense
// schema slot once per schema and reusing it for every subsequent event
// of that schema. Steady-state reads are two array indexings — no map
// probe, no allocation. The dense arrays are a cache over the
// attribute maps, which stay the source of truth: attributes the
// schema does not list, and slot values marking absence (NaN / ""),
// fall back to the maps, so an Accessor is always correct to use —
// including on events bound to a partial schema.
//
// The slot cache is mutated on schema change, so an Accessor must not
// be shared between goroutines; the runtime keeps one set per graph.
type Accessor struct {
	attr string
	sch  *Schema // schema the cached slots were resolved against
	num  int
	str  int
}

// NewAccessor returns an accessor for the named attribute.
func NewAccessor(attr string) Accessor {
	return Accessor{attr: attr, num: -1, str: -1}
}

// Attr returns the attribute name the accessor reads.
func (a *Accessor) Attr() string { return a.attr }

// resolve points the slot cache at e's schema. Returns false when the
// event is schemaless and the maps must be used.
func (a *Accessor) resolve(e *Event) bool {
	if e.Sch == nil {
		return false
	}
	if e.Sch != a.sch {
		a.sch = e.Sch
		a.num = e.Sch.NumSlot(a.attr)
		a.str = e.Sch.StrSlot(a.attr)
	}
	return true
}

// Float returns the numeric value of the attribute and whether it is
// present. A NaN dense slot marks absence at Bind; both that case and
// attributes outside the schema re-check the map, so a stored NaN or a
// partial schema read the same as the schemaless fallback.
func (a *Accessor) Float(e *Event) (float64, bool) {
	if a.resolve(e) && a.num >= 0 && a.num < len(e.Num) {
		if v := e.Num[a.num]; !math.IsNaN(v) {
			return v, true
		}
	}
	v, ok := e.Attrs[a.attr]
	return v, ok
}

// Str is Float for a string attribute: an empty dense slot marks
// absence, and the map is re-checked as there.
func (a *Accessor) Str(e *Event) (string, bool) {
	if a.resolve(e) && a.str >= 0 && a.str < len(e.StrV) {
		if s := e.StrV[a.str]; s != "" {
			return s, true
		}
	}
	s, ok := e.Str[a.attr]
	return s, ok
}
