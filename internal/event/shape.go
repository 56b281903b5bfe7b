package event

import (
	"encoding/binary"
	"math"
	"slices"
)

// AttrNames returns the sorted names of the numeric and string
// attributes e has, in the capacity of nums and strs, whichever way e
// carries them: maps only, maps plus the slots Schema.Bind caches, or a
// map-free Batch row. It is Accessor's rule read the other way: a name
// is present when the maps hold it or a slot holds a value for it (not
// the NaN / "" marker). Batch frames and checkpoints both ask here.
func (e *Event) AttrNames(nums, strs []string) ([]string, []string) {
	nums, strs = nums[:0], strs[:0]
	for a := range e.Attrs {
		nums = append(nums, a)
	}
	for a := range e.Str {
		strs = append(strs, a)
	}
	if e.Sch != nil {
		for j, a := range e.Sch.Numeric {
			if j < len(e.Num) && !math.IsNaN(e.Num[j]) {
				nums = append(nums, a)
			}
		}
		for j, a := range e.Sch.Strings {
			if j < len(e.StrV) && e.StrV[j] != "" {
				strs = append(strs, a)
			}
		}
	}
	slices.Sort(nums)
	slices.Sort(strs)
	return slices.Compact(nums), slices.Compact(strs)
}

// MaxShapes bounds a ShapeCache: the shapes it keeps and, separately,
// the schema pointers it memoizes.
const MaxShapes = 4096

// ShapeCache interns shapes — a type plus attribute names — as schemas,
// one pointer each, so consumers that cache per schema identity (batch
// frames, the columnar pre-filter) see repeated input of one shape as
// one schema. Past MaxShapes a new shape still gets a correct schema,
// built for the caller alone and counted. The zero value is ready; a
// cache is not safe for concurrent use.
type ShapeCache struct {
	byKey      map[string]*Schema
	bySch      map[*Schema]*Schema // full events' schema → shape
	uncached   uint64
	key        []byte
	nums, strs []string
}

// Len returns the number of shapes held, Uncached the lookups whose
// answer could not be kept (a shape or memo entry past MaxShapes).
func (c *ShapeCache) Len() int         { return len(c.byKey) }
func (c *ShapeCache) Uncached() uint64 { return c.uncached }

// keep is the one way into either map, and so the bound on both.
func keep[K comparable](c *ShapeCache, m *map[K]*Schema, k K, sch *Schema) {
	if len(*m) >= MaxShapes {
		c.uncached++
		return
	}
	if *m == nil {
		*m = map[K]*Schema{}
	}
	(*m)[k] = sch
}

// Of returns ev's shape, names sorted. An event with a value in every
// slot of its schema, the common kind, finds it by schema pointer — if
// its maps are no larger than the schema: Bind leaves the attributes a
// schema omits in the maps, and those are part of the shape.
func (c *ShapeCache) Of(ev *Event) *Schema {
	sch := ev.Sch
	full := sch != nil && len(ev.Num) == len(sch.Numeric) && len(ev.StrV) == len(sch.Strings) &&
		len(ev.Attrs) <= len(sch.Numeric) && len(ev.Str) <= len(sch.Strings) &&
		!slices.ContainsFunc(ev.Num, math.IsNaN) && !slices.Contains(ev.StrV, "")
	if shape := c.bySch[sch]; full && shape != nil {
		return shape
	}
	c.nums, c.strs = ev.AttrNames(c.nums, c.strs)
	shape := InternShape(c, string(ev.Type), c.nums, c.strs)
	if full {
		keep(c, &c.bySch, sch, shape)
	}
	return shape
}

// InternShape returns c's schema for a type and attribute names in the
// order given. The lookup key is built in scratch, length-prefixed so no
// two shapes share one; a hit makes no string from a network buffer's spans.
func InternShape[S ~string | ~[]byte](c *ShapeCache, typ S, nums, strs []S) *Schema {
	key := binary.AppendUvarint(c.key[:0], uint64(len(typ)))
	key = append(key, typ...)
	key = binary.AppendUvarint(key, uint64(len(nums)))
	for _, names := range [2][]S{nums, strs} {
		for _, a := range names {
			key = binary.AppendUvarint(key, uint64(len(a)))
			key = append(key, a...)
		}
	}
	c.key = key
	if sch := c.byKey[string(key)]; sch != nil {
		return sch
	}
	sch := &Schema{Type: Type(typ)}
	for _, a := range nums {
		sch.Numeric = append(sch.Numeric, string(a))
	}
	for _, a := range strs {
		sch.Strings = append(sch.Strings, string(a))
	}
	keep(c, &c.byKey, string(key), sch)
	return sch
}
