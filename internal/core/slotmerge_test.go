package core_test

import (
	"math"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/query"
)

// TestSlotMerge drives the slot-order merger directly with hand-built
// partials: whatever order partials and acks arrive in, windows leave
// in ascending wid order, groups sorted, and every (wid, group) value
// is bit-identical to the same partials folded by hand in slot order.
func TestSlotMerge(t *testing.T) {
	type key struct {
		wid   int64
		group string
	}
	type op struct {
		ack   bool
		slot  int
		wid   int64 // ack: the released frontier hi
		group string
		sum   float64 // partial: SUM slot (COUNT slot gets slot+1)
		// after the op: emitted (wid, group) pairs so far and pending windows
		emitted, pending int
	}
	part := func(slot int, wid int64, group string, sum float64, emitted, pending int) op {
		return op{slot: slot, wid: wid, group: group, sum: sum, emitted: emitted, pending: pending}
	}
	ack := func(slot int, hi int64, emitted, pending int) op {
		return op{ack: true, slot: slot, wid: hi, emitted: emitted, pending: pending}
	}
	const big = 1e16 // (big - big) + 1 is 1 in slot order; arrival order 1 - big + big is 0
	cases := []struct {
		name  string
		slots int
		ops   []op
		order []key // emission order
	}{
		{"float fold in slot order, partials and acks out of slot order", 3, []op{
			part(2, 0, "g", 1, 0, 1),
			part(1, 0, "g", -big, 0, 1),
			part(0, 0, "g", big, 0, 1),
			ack(2, 0, 0, 1),
			ack(0, 0, 0, 1),
			ack(1, 0, 1, 0),
		}, []key{{0, "g"}}},
		{"wid ascending, groups sorted, absent slots skipped", 3, []op{
			part(1, 1, "b", 0.1, 0, 1),
			part(0, 0, "b", 0.3, 0, 2),
			part(2, 0, "a", 0.2, 0, 2),
			part(0, 1, "b", 0.7, 0, 2),
			ack(0, 1, 0, 2),
			ack(1, 1, 0, 2),
			ack(2, 0, 2, 1), // frontier 0: window 0 leaves, window 1 waits
			ack(2, 1, 3, 0),
		}, []key{{0, "a"}, {0, "b"}, {1, "b"}}},
		{"stale, duplicate and out-of-range acks and partials ignored", 2, []op{
			part(0, 5, "g", 0.5, 0, 1),
			part(7, 5, "g", 9, 0, 1),  // no such slot
			part(-1, 5, "g", 9, 0, 1), // no such slot
			ack(0, 5, 0, 1),
			ack(0, 5, 0, 1), // duplicate
			ack(0, 3, 0, 1), // stale
			ack(2, 9, 0, 1), // no such slot
			ack(-1, 9, 0, 1),
			ack(1, 4, 0, 1), // frontier 4 < 5
			ack(1, 5, 1, 0),
			ack(1, 2, 1, 0), // stale after release
		}, []key{{5, "g"}}},
		{"final ack drains everything", 2, []op{
			part(0, 3, "g", 0.25, 0, 1),
			part(1, 9, "g", 0.5, 0, 2),
			part(1, 4, "h", 0.75, 0, 3),
			ack(0, math.MaxInt64, 0, 3),
			ack(1, math.MaxInt64, 3, 0),
		}, []key{{3, "g"}, {4, "h"}, {9, "g"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := core.NewPlan(query.MustParse(
				"RETURN SUM(S.price), AVG(S.price) PATTERN Stock S+ WHERE [company] GROUP-BY sector WITHIN 10 SLIDE 10"),
				aggregate.ModeNative)
			if err != nil {
				t.Fatal(err)
			}
			rt := core.NewRuntime()
			st, err := rt.Register(plan, core.StmtConfig{})
			if err != nil {
				t.Fatal(err)
			}
			def := plan.Def()
			newPartial := func(o op) *aggregate.Payload {
				p := def.New()
				p.Count = uint64(o.slot + 1)
				for i, s := range def.Slots {
					if s.Kind == aggregate.SlotSum {
						p.Slots[i].F = o.sum
					} else {
						p.Slots[i].N = uint64(o.slot + 1)
					}
				}
				return p
			}
			// Hand-folded reference: per (wid, group), clones of the
			// in-range partials merged in slot-index order.
			bySlot := map[key][]*aggregate.Payload{}
			for _, o := range tc.ops {
				if o.ack || o.slot < 0 || o.slot >= tc.slots {
					continue
				}
				k := key{o.wid, o.group}
				if bySlot[k] == nil {
					bySlot[k] = make([]*aggregate.Payload, tc.slots)
				}
				bySlot[k][o.slot] = newPartial(o)
			}
			want := map[key][]float64{}
			for k, parts := range bySlot {
				var ref *aggregate.Payload
				for _, p := range parts {
					switch {
					case p == nil:
					case ref == nil:
						ref = def.Clone(p)
					default:
						def.Merge(ref, p)
					}
				}
				for _, ss := range plan.Specs {
					want[k] = append(want[k], def.Value(ref, ss.Spec, ss.Slot, ss.Slot2))
				}
			}

			var got []core.Result
			st.OnResult(func(r core.Result) { got = append(got, r) })
			m := core.NewSlotMerge(st.Engine(), tc.slots, nil)
			for i, o := range tc.ops {
				if o.ack {
					m.Ack(o.slot, o.wid)
				} else {
					m.Add(o.slot, o.group, o.wid, newPartial(o))
				}
				if len(got) != o.emitted || m.Pending() != o.pending {
					t.Fatalf("op %d (%+v): emitted %d pending %d, want %d and %d",
						i, o, len(got), m.Pending(), o.emitted, o.pending)
				}
			}
			if m.Pending() != 0 {
				t.Fatalf("pending windows = %d at the end, want 0", m.Pending())
			}
			final := tc.ops[len(tc.ops)-1].wid == math.MaxInt64
			if m.Done() != final {
				t.Errorf("Done() = %v, want %v", m.Done(), final)
			}
			if len(got) != len(tc.order) {
				t.Fatalf("emitted %d results, want %d", len(got), len(tc.order))
			}
			for i, r := range got {
				k := key{r.Wid, r.Group}
				if k != tc.order[i] {
					t.Fatalf("emission %d is %v, want %v", i, k, tc.order[i])
				}
				for j, v := range r.Values {
					if math.Float64bits(v) != math.Float64bits(want[k][j]) {
						t.Errorf("%v value %d = %v, hand-folded reference %v", k, j, v, want[k][j])
					}
				}
			}
		})
	}
}
