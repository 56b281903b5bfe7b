package cluster

import (
	"reflect"
	"testing"

	"github.com/greta-cep/greta/internal/event"
)

// ShapeCache exposes the coordinator's shape cache to the external
// tests: shapes held and lookups that could not be kept.
func (co *Coordinator) ShapeCache() (held int, uncached uint64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.shapes.Len(), co.shapes.Uncached()
}

// TestBatchBufCarriers: a row contributes the same columns to a batch
// frame however its event carries its attributes — in maps only, bound
// to a schema listing all of them, bound to one listing a few (the rest
// left in the maps), or as a map-free batch row.
func TestBatchBufCarriers(t *testing.T) {
	full := &event.Schema{Type: "T", Numeric: []string{"c", "a", "b"}, Strings: []string{"s", "r"}}
	partial := &event.Schema{Type: "T", Numeric: []string{"b", "zz"}, Strings: []string{"r"}}
	for i, ev := range []*event.Event{
		{ID: 7, Type: "T", Time: 3, Attrs: map[string]float64{"a": 1, "b": 2.5, "c": -3}, Str: map[string]string{"r": "x", "s": "y"}},
		{ID: 8, Type: "T", Time: 4, Attrs: map[string]float64{"b": 2}, Str: map[string]string{"s": "y"}},
		{ID: 9, Type: "T", Time: 5, Attrs: map[string]float64{"a": 1, "c": 0}},
		{ID: 10, Type: "T", Time: 6},
	} {
		forms := []*event.Event{ev}
		for _, sch := range []*event.Schema{full, partial} {
			bound := *ev
			sch.Bind(&bound)
			forms = append(forms, &bound)
		}
		b := event.NewBatch(full, 1)
		if err := b.AppendEvent(ev); err != nil {
			t.Fatal(err)
		}
		forms = append(forms, b.Row(0))

		// One cache and one buffer: four rows of one shape make one frame
		// (a second shape would flush through the nil link).
		var shapes event.ShapeCache
		var buf batchBuf
		for _, form := range forms {
			if sh := shapes.Of(form); sh != shapes.Of(ev) {
				t.Fatalf("event %d: shapes %+v and %+v", i, sh, shapes.Of(ev))
			}
			buf.add(nil, shapes.Of(form), form, []pair{{gi: 0, h: 1}})
		}
		f := &buf.f
		nums, strs := ev.AttrNames(nil, nil)
		if f.Type != "T" || !reflect.DeepEqual(f.Nums, nums) || !reflect.DeepEqual(f.Strs, strs) {
			t.Fatalf("event %d: frame of %q %v %v, want T %v %v", i, f.Type, f.Nums, f.Strs, nums, strs)
		}
		for k, a := range f.Nums {
			if len(f.Cols[k]) != len(forms) {
				t.Errorf("event %d: column %s has %d of %d rows", i, a, len(f.Cols[k]), len(forms))
			}
			for r, v := range f.Cols[k] {
				if v != ev.Attrs[a] {
					t.Errorf("event %d form %d: column %s = %v, want %v", i, r, a, v, ev.Attrs[a])
				}
			}
		}
		for k, a := range f.Strs {
			if len(f.SCols[k]) != len(forms) {
				t.Errorf("event %d: column %s has %d of %d rows", i, a, len(f.SCols[k]), len(forms))
			}
			for r, v := range f.SCols[k] {
				if v != ev.Str[a] {
					t.Errorf("event %d form %d: column %s = %q, want %q", i, r, a, v, ev.Str[a])
				}
			}
		}
		if len(f.Times) != len(forms) || len(f.Cols) != len(nums) || len(f.SCols) != len(strs) {
			t.Errorf("event %d: %d rows, %d+%d columns", i, len(f.Times), len(f.Cols), len(f.SCols))
		}
	}
}
