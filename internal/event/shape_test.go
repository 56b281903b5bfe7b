package event

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// fuzzAttr turns three fuzzed values into one attribute of a logical
// event: absent, a number, a string, or both.
func fuzzAttr(ev *Event, name string, sel uint8, f float64, s string) {
	if sel&1 != 0 {
		ev.Attrs[name] = f
	}
	if sel&2 != 0 {
		ev.Str[name] = s
	}
}

// FuzzEventShape checks that what an event has is a function of the
// logical event and not of its carrier: in maps only, bound to a schema
// listing every attribute, bound to one listing a few (the rest left in
// the maps, the listed ones with gaps), or copied into a batch row, it
// has the same attribute names, every accessor reads the same value and
// presence, and one cache gives all four one shape.
func FuzzEventShape(f *testing.F) {
	f.Add(uint8(1), 5.0, "", uint8(2), 0.0, "acme", uint8(3), 1.5, "x")
	f.Add(uint8(0), 0.0, "", uint8(1), 7.0, "", uint8(0), 0.0, "")
	f.Add(uint8(1), math.NaN(), "", uint8(2), 0.0, "", uint8(1), math.Inf(-1), "")
	f.Add(uint8(0), 0.0, "", uint8(0), 0.0, "", uint8(0), 0.0, "")
	f.Add(uint8(3), math.Copysign(0, -1), "a", uint8(3), 1e21, "b", uint8(2), 0.0, "c")
	names := []string{"a", "b", "c"}
	full := &Schema{Type: "T", Numeric: names, Strings: names}
	partial := &Schema{Type: "T", Numeric: []string{"b"}, Strings: []string{"c", "a"}}
	f.Fuzz(func(t *testing.T, s0 uint8, f0 float64, x0 string, s1 uint8, f1 float64, x1 string, s2 uint8, f2 float64, x2 string) {
		ev := &Event{ID: 1, Type: "T", Time: 1, Attrs: map[string]float64{}, Str: map[string]string{}}
		fuzzAttr(ev, "a", s0, f0, x0)
		fuzzAttr(ev, "b", s1, f1, x1)
		fuzzAttr(ev, "c", s2, f2, x2)
		forms := []*Event{ev}
		for _, sch := range []*Schema{full, partial} {
			bound := *ev
			sch.Bind(&bound)
			forms = append(forms, &bound)
		}
		// A batch cannot hold a present NaN or "" (AppendEvent says so);
		// every other event must read the same from its row.
		if b := NewBatch(full, 1); b.AppendEvent(ev) == nil {
			forms = append(forms, b.Row(0))
		}

		var cache ShapeCache
		read := func(ev *Event) string {
			nums, strs := ev.AttrNames(nil, nil)
			out := fmt.Sprint(nums, strs)
			for _, a := range append(names, "d") {
				acc := NewAccessor(a)
				v, ok := acc.Float(ev)
				s, sok := acc.Str(ev)
				out += fmt.Sprintf(" %s=(%x,%v,%q,%v)", a, math.Float64bits(v), ok, s, sok)
			}
			return out
		}
		want, shape := read(ev), cache.Of(ev)
		nums, strs := ev.AttrNames(nil, nil)
		if shape.Type != "T" || !slices.Equal(shape.Numeric, nums) || !slices.Equal(shape.Strings, strs) {
			t.Fatalf("shape %+v of an event with %v %v", shape, nums, strs)
		}
		for i, form := range forms {
			if got := read(form); got != want {
				t.Errorf("form %d reads\n%s\nmaps read\n%s", i, got, want)
			}
			if got := cache.Of(form); got != shape {
				t.Errorf("form %d has shape %p %+v, maps have %p %+v", i, got, got, shape, shape)
			}
		}
		if cache.Len() != 1 || cache.Uncached() != 0 {
			t.Errorf("one logical event left %d shapes, %d uncached", cache.Len(), cache.Uncached())
		}
	})
}

// TestShapeCacheBounded: neither a producer that binds every event to a
// fresh schema nor one that never repeats a name set grows the cache
// past MaxShapes; what does not fit is counted and still answered right.
func TestShapeCacheBounded(t *testing.T) {
	const extra = 50
	var c ShapeCache
	for i := 0; i < MaxShapes+extra; i++ {
		ev := &Event{Type: "T", Attrs: map[string]float64{"x": 1}}
		(&Schema{Type: "T", Numeric: []string{"x"}}).Bind(ev)
		if sh := c.Of(ev); !slices.Equal(sh.Numeric, []string{"x"}) {
			t.Fatalf("event %d: shape %+v", i, sh)
		}
	}
	if len(c.bySch) != MaxShapes || c.Len() != 1 || c.Uncached() != extra {
		t.Errorf("fresh schemas: %d memo entries (cap %d), %d shapes, %d uncached", len(c.bySch), MaxShapes, c.Len(), c.Uncached())
	}
	c = ShapeCache{}
	for i := 0; i < MaxShapes+extra; i++ {
		a := fmt.Sprintf("a%d", i)
		if sh := c.Of(&Event{Type: "T", Attrs: map[string]float64{a: 1}}); !slices.Equal(sh.Numeric, []string{a}) || sh.Type != "T" {
			t.Fatalf("event %d: shape %+v", i, sh)
		}
	}
	if c.Len() != MaxShapes || c.Uncached() != extra {
		t.Errorf("fresh name sets: %d shapes (cap %d), %d uncached", c.Len(), MaxShapes, c.Uncached())
	}
}

// TestShapeMemoChecksMaps: an event with every slot of a partial schema
// filled still has the attributes Bind left in its maps, and must not
// find the shape of one that has none.
func TestShapeMemoChecksMaps(t *testing.T) {
	sch := &Schema{Type: "T", Numeric: []string{"x"}}
	var c ShapeCache
	plain := &Event{Type: "T", Attrs: map[string]float64{"x": 1}}
	extra := &Event{Type: "T", Attrs: map[string]float64{"x": 1, "y": 2}}
	sch.Bind(plain)
	sch.Bind(extra)
	if a, b := c.Of(plain), c.Of(extra); a == b || !slices.Equal(b.Numeric, []string{"x", "y"}) {
		t.Fatalf("shapes %+v and %+v", a, b)
	}
}
