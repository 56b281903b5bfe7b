package aggregate

import (
	"math"
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"github.com/greta-cep/greta/internal/event"
)

func defWithAll(mode Mode) (*Def, map[SpecKind][2]int) {
	d := &Def{Mode: mode}
	slots := map[SpecKind][2]int{}
	for _, k := range []SpecKind{CountStar, CountType, Min, Max, Sum, Avg} {
		s1, s2 := d.Plan(Spec{Kind: k, Type: "A", Attr: "x"})
		slots[k] = [2]int{s1, s2}
	}
	return d, slots
}

func TestSlotDedup(t *testing.T) {
	d := &Def{}
	a, _ := d.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
	b, _ := d.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
	if a != b {
		t.Errorf("duplicate slots %d, %d", a, b)
	}
	c, _ := d.Plan(Spec{Kind: Sum, Type: "A", Attr: "y"})
	if c == a {
		t.Error("different attrs share a slot")
	}
}

// TestTheorem91Hand replays the Fig. 12 hand computation at the payload
// level: a1(attr=5) -> b2 -> a3(attr=6) -> a4(attr=4) -> b7 for
// (SEQ(A+,B))+.
func TestTheorem91Hand(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeExact} {
		d, slots := defWithAll(mode)
		evA := func(tm event.Time, x float64) *event.Event {
			return &event.Event{Type: "A", Time: tm, Attrs: map[string]float64{"x": x}}
		}
		evB := func(tm event.Time) *event.Event { return &event.Event{Type: "B", Time: tm} }

		a1 := d.New()
		d.OnStart(a1, 1)
		d.OnEventAcc(a1, evA(1, 5), d.NewAccessors())

		b2 := d.New()
		d.AddPred(b2, a1)
		d.OnEventAcc(b2, evB(2), d.NewAccessors())

		a3 := d.New()
		d.AddPred(a3, a1)
		d.AddPred(a3, b2)
		d.OnStart(a3, 3)
		d.OnEventAcc(a3, evA(3, 6), d.NewAccessors())

		a4 := d.New()
		for _, p := range []*Payload{a1, b2, a3} {
			d.AddPred(a4, p)
		}
		d.OnStart(a4, 4)
		d.OnEventAcc(a4, evA(4, 4), d.NewAccessors())

		if a4.Count != 6 {
			t.Fatalf("mode %v: a4.count = %d, want 6", mode, a4.Count)
		}

		b7 := d.New()
		for _, p := range []*Payload{a1, a3, a4} {
			d.AddPred(b7, p)
		}
		d.OnEventAcc(b7, evB(7), d.NewAccessors())
		if b7.Count != 10 {
			t.Fatalf("mode %v: b7.count = %d, want 10", mode, b7.Count)
		}

		final := d.New()
		d.Merge(final, b2)
		d.Merge(final, b7)
		if final.Count != 11 {
			t.Errorf("mode %v: COUNT(*) = %d, want 11", mode, final.Count)
		}
		countA := Spec{Kind: CountType, Type: "A"}
		if got := d.Value(final, countA, slots[CountType][0], -1); got != 20 {
			t.Errorf("mode %v: COUNT(A) = %v, want 20", mode, got)
		}
		if got := d.Value(final, Spec{Kind: Min, Type: "A", Attr: "x"}, slots[Min][0], -1); got != 4 {
			t.Errorf("mode %v: MIN = %v, want 4", mode, got)
		}
		if got := d.Value(final, Spec{Kind: Max, Type: "A", Attr: "x"}, slots[Max][0], -1); got != 6 {
			t.Errorf("mode %v: MAX = %v, want 6", mode, got)
		}
		if got := d.Value(final, Spec{Kind: Sum, Type: "A", Attr: "x"}, slots[Sum][0], -1); got != 100 {
			t.Errorf("mode %v: SUM = %v, want 100", mode, got)
		}
		if got := d.Value(final, Spec{Kind: Avg, Type: "A", Attr: "x"}, slots[Avg][0], slots[Avg][1]); got != 5 {
			t.Errorf("mode %v: AVG = %v, want 5", mode, got)
		}
	}
}

func TestMaxStartTracking(t *testing.T) {
	d := &Def{TrackStart: true}
	p := d.New()
	if p.MaxStart != NoStart {
		t.Fatal("fresh payload has a start")
	}
	d.OnStart(p, 7)
	if p.MaxStart != 7 {
		t.Fatalf("MaxStart = %d", p.MaxStart)
	}
	q := d.New()
	d.OnStart(q, 3)
	d.AddPred(q, p)
	if q.MaxStart != 7 {
		t.Errorf("MaxStart after fold = %d, want 7", q.MaxStart)
	}
}

func TestExactCountBigNumbers(t *testing.T) {
	// 200 chained doublings exceed uint64; exact mode must not.
	d := &Def{Mode: ModeExact}
	p := d.New()
	d.OnStart(p, 0)
	for i := 0; i < 200; i++ {
		q := d.New()
		d.AddPred(q, p)
		d.AddPred(q, p)
		p = q
	}
	want := new(big.Int).Lsh(big.NewInt(1), 200)
	if d.ExactCount(p).Cmp(want) != 0 {
		t.Errorf("exact count = %v, want 2^200", d.ExactCount(p))
	}
}

func TestAddSigned(t *testing.T) {
	d := &Def{}
	slot, _ := d.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
	mslot, _ := d.Plan(Spec{Kind: Min, Type: "A", Attr: "x"})
	a := d.New()
	d.OnStart(a, 1)
	d.OnEventAcc(a, &event.Event{Type: "A", Time: 1, Attrs: map[string]float64{"x": 5}}, d.NewAccessors())
	b := d.New()
	d.OnStart(b, 2)
	d.OnEventAcc(b, &event.Event{Type: "A", Time: 2, Attrs: map[string]float64{"x": 3}}, d.NewAccessors())

	u := d.New()
	d.AddSigned(u, a, 1)
	d.AddSigned(u, b, 1)
	d.AddSigned(u, b, -1)
	if u.Count != 1 {
		t.Errorf("count = %d, want 1", u.Count)
	}
	if u.Slots[slot].F != 5 {
		t.Errorf("sum = %v, want 5", u.Slots[slot].F)
	}
	// min folded from positive terms only: min(5,3) = 3 remains.
	if u.Slots[mslot].F != 3 {
		t.Errorf("min = %v, want 3", u.Slots[mslot].F)
	}
}

func TestZero(t *testing.T) {
	d := &Def{}
	p := d.New()
	if !p.Zero() {
		t.Error("fresh payload not zero")
	}
	d.OnStart(p, 1)
	if p.Zero() {
		t.Error("started payload is zero")
	}
	var nilP *Payload
	if !nilP.Zero() {
		t.Error("nil payload not zero")
	}
}

// TestValueExtractionBothModes covers Value for every spec kind in
// both arithmetic modes, including empty payloads.
func TestValueExtractionBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeExact} {
		d, slots := defWithAll(mode)
		p := d.New()
		d.OnStart(p, 1)
		d.OnEventAcc(p, &event.Event{Type: "A", Time: 1, Attrs: map[string]float64{"x": 7}}, d.NewAccessors())
		cases := []struct {
			kind SpecKind
			want float64
		}{
			{CountStar, 1}, {CountType, 1}, {Min, 7}, {Max, 7}, {Sum, 7}, {Avg, 7},
		}
		for _, c := range cases {
			spec := Spec{Kind: c.kind, Type: "A", Attr: "x"}
			got := d.Value(p, spec, slots[c.kind][0], slots[c.kind][1])
			if got != c.want {
				t.Errorf("mode %v %v = %v, want %v", mode, c.kind, got, c.want)
			}
		}
		// Nil payload: zero counts, Inf min/max, NaN avg.
		if v := d.Value(nil, Spec{Kind: CountStar}, -1, -1); v != 0 {
			t.Errorf("mode %v nil COUNT(*) = %v", mode, v)
		}
		if v := d.Value(nil, Spec{Kind: Avg, Type: "A", Attr: "x"}, slots[Avg][0], slots[Avg][1]); !math.IsNaN(v) {
			t.Errorf("mode %v nil AVG = %v", mode, v)
		}
	}
}

// TestCloneIndependence: clones do not alias exact-mode big values.
func TestCloneIndependence(t *testing.T) {
	d, slots := defWithAll(ModeExact)
	p := d.New()
	d.OnStart(p, 1)
	d.OnEventAcc(p, &event.Event{Type: "A", Time: 1, Attrs: map[string]float64{"x": 2}}, d.NewAccessors())
	c := d.Clone(p)
	d.OnStart(p, 2)
	d.OnEventAcc(p, &event.Event{Type: "A", Time: 2, Attrs: map[string]float64{"x": 9}}, d.NewAccessors())
	if got := d.Value(c, Spec{Kind: CountStar}, -1, -1); got != 1 {
		t.Errorf("clone count = %v, want 1", got)
	}
	if got := d.Value(c, Spec{Kind: Sum, Type: "A", Attr: "x"}, slots[Sum][0], -1); got != 2 {
		t.Errorf("clone sum = %v, want 2", got)
	}
	if got := d.ExactSlotInt(c, slots[CountType][0]); got.Int64() != 1 {
		t.Errorf("clone countE = %v", got)
	}
}

// TestAddSignedExact mirrors TestAddSigned in exact mode.
func TestAddSignedExact(t *testing.T) {
	d := &Def{Mode: ModeExact}
	slot, _ := d.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
	cslot, _ := d.Plan(Spec{Kind: CountType, Type: "A"})
	a := d.New()
	d.OnStart(a, 1)
	d.OnEventAcc(a, &event.Event{Type: "A", Time: 1, Attrs: map[string]float64{"x": 5}}, d.NewAccessors())
	u := d.New()
	d.AddSigned(u, a, 1)
	d.AddSigned(u, a, 1)
	d.AddSigned(u, a, -1)
	if u.XCount.Int64() != 1 {
		t.Errorf("exact count = %v", u.XCount)
	}
	if got := d.ExactSlotInt(u, cslot); got.Int64() != 1 {
		t.Errorf("exact countE = %v", got)
	}
	f, _ := u.Slots[slot].XF.Float64()
	if f != 5 {
		t.Errorf("exact sum = %v", f)
	}
	// AddSigned with nil src is a no-op.
	d.AddSigned(u, nil, -1)
	if u.XCount.Int64() != 1 {
		t.Error("nil AddSigned changed the payload")
	}
}

// TestSpecStrings covers rendering.
func TestSpecStrings(t *testing.T) {
	cases := map[string]Spec{
		"COUNT(*)": {Kind: CountStar},
		"COUNT(A)": {Kind: CountType, Type: "A"},
		"MIN(A.x)": {Kind: Min, Type: "A", Attr: "x"},
		"MAX(A.x)": {Kind: Max, Type: "A", Attr: "x"},
		"SUM(A.x)": {Kind: Sum, Type: "A", Attr: "x"},
		"AVG(A.x)": {Kind: Avg, Type: "A", Attr: "x"},
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("%+v renders %q, want %q", spec, got, want)
		}
	}
	if ModeExact.String() != "exact" || ModeNative.String() != "native" {
		t.Error("mode strings")
	}
}

// TestQuickNativeMatchesExact: random fold sequences give identical
// results in native and exact mode while counts stay within uint64.
func TestQuickNativeMatchesExact(t *testing.T) {
	f := func(ops []uint8) bool {
		dn := &Def{Mode: ModeNative}
		dx := &Def{Mode: ModeExact}
		sn, _ := dn.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
		sx, _ := dx.Plan(Spec{Kind: Sum, Type: "A", Attr: "x"})
		if sn != sx {
			return false
		}
		var npool, xpool []*Payload
		pn, px := dn.New(), dx.New()
		tm := event.Time(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				tm++
				dn.OnStart(pn, tm)
				dx.OnStart(px, tm)
			case 1:
				e := &event.Event{Type: "A", Time: tm, Attrs: map[string]float64{"x": float64(op % 7)}}
				dn.OnEventAcc(pn, e, dn.NewAccessors())
				dx.OnEventAcc(px, e, dx.NewAccessors())
			case 2:
				npool = append(npool, dn.Clone(pn))
				xpool = append(xpool, dx.Clone(px))
			case 3:
				if len(npool) > 0 {
					i := int(op) % len(npool)
					dn.AddPred(pn, npool[i])
					dx.AddPred(px, xpool[i])
				}
			}
		}
		exact, _ := new(big.Float).SetInt(dx.ExactCount(px)).Float64()
		if float64(pn.Count) != exact {
			return false
		}
		xf, _ := px.Slots[sx].XF.Float64()
		return math.Abs(pn.Slots[sn].F-xf) < 1e-6*(1+math.Abs(xf))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSummaryFilteredFolds covers the watermark-filtered summary path:
// a validity mask skips invalidated windows, Last/N account only valid
// contributions (keeping EdgesFrom exact), and the created/released
// counts balance so callers can track summary storage.
func TestSummaryFilteredFolds(t *testing.T) {
	d := &Def{Mode: ModeNative}
	slot := d.AddSlot(Slot{SlotSum, "A", "v"})
	pool := NewPool(d)
	// vertex builds one vertex's block, a window per (count, sum) pair; a
	// negative count leaves the window without a payload.
	vertex := func(windows ...[2]float64) ([]Payload, *Presence) {
		b, pres := d.NewBlock(len(windows)), NewPresence(len(windows))
		for i, w := range windows {
			if w[0] >= 0 {
				b[i].Count, b[i].Slots[slot].F = uint64(w[0]), w[1]
				pres.Set(i)
			}
		}
		return b, &pres
	}

	var s Summary
	created := 0
	// Vertex 1 contributes to windows 0 and 1; window 1 filtered out.
	b, pres := vertex([2]float64{2, 10}, [2]float64{3, 30})
	c, ok := d.SummaryAdd(pool, &s, 0, b, pres, []bool{true, false})
	if !ok {
		t.Fatal("SummaryAdd rejected matching shape")
	}
	created += c
	// Vertex 2 contributes to both windows unfiltered.
	b, pres = vertex([2]float64{1, 1}, [2]float64{5, 50})
	c, ok = d.SummaryAdd(pool, &s, 0, b, pres, nil)
	if !ok {
		t.Fatal("SummaryAdd rejected matching shape")
	}
	created += c
	// Vertex 3 is fully filtered: it must not count toward Last/N (its
	// second window holds no payload).
	b, pres = vertex([2]float64{7, 70}, [2]float64{-1, 0})
	c, ok = d.SummaryAdd(pool, &s, 0, b, pres, []bool{false, true})
	if !ok {
		t.Fatal("SummaryAdd rejected matching shape")
	}
	created += c

	if s.N != 2 {
		t.Fatalf("N = %d, want 2 (fully filtered vertex counted)", s.N)
	}
	if s.Last[0] != 1 || s.Last[1] != 1 {
		t.Fatalf("Last = %v, want [1 1]", s.Last)
	}
	if got := s.EdgesFrom(1); got != 1 {
		t.Fatalf("EdgesFrom(1) = %d, want 1", got)
	}
	if s.Sums[0].Count != 3 || s.Sums[0].Slots[slot].F != 11 {
		t.Fatalf("window 0 fold = (%d, %g), want (3, 11)", s.Sums[0].Count, s.Sums[0].Slots[slot].F)
	}
	if s.Sums[1].Count != 5 || s.Sums[1].Slots[slot].F != 50 {
		t.Fatalf("window 1 fold = (%d, %g), want (5, 50)", s.Sums[1].Count, s.Sums[1].Slots[slot].F)
	}
	if created != 2 {
		t.Fatalf("created = %d, want 2 (one payload per window)", created)
	}

	// Merge into a fresh summary and verify counts flow through.
	var dst Summary
	c, ok = d.SummaryMerge(pool, &dst, &s)
	if !ok || c != 2 {
		t.Fatalf("SummaryMerge = (%d, %v), want (2, true)", c, ok)
	}
	if dst.N != s.N || dst.Sums[0].Count != 3 {
		t.Fatalf("merged summary diverges: N=%d Sums[0].Count=%d", dst.N, dst.Sums[0].Count)
	}

	// Shape mismatch is rejected, releases balance creations.
	b, pres = vertex([2]float64{1, 1})
	if _, ok := d.SummaryAdd(pool, &s, 1, b, pres, nil); ok {
		t.Fatal("SummaryAdd accepted mismatched window range")
	}
	if rel := d.SummaryClear(pool, &s); rel != 2 {
		t.Fatalf("SummaryClear released %d, want 2", rel)
	}
	if rel := d.SummaryClear(pool, &dst); rel != 2 {
		t.Fatalf("SummaryClear released %d, want 2", rel)
	}
}

// TestBlockPresence: a block's entries are independent payloads — an
// append to one entry's Slots reaches no neighbour — and its presence
// bits work across word boundaries (a vertex may fall into more than 64
// windows).
func TestBlockPresence(t *testing.T) {
	d := &Def{Mode: ModeNative}
	d.AddSlot(Slot{SlotMin, "A", "v"})
	b := d.NewBlock(150)
	if len(b) != 150 || b[149].Slots[0].F != math.Inf(1) || b[0].MaxStart != NoStart {
		t.Fatalf("NewBlock(150): %d entries, last min %v, first MaxStart %d", len(b), b[149].Slots[0].F, b[0].MaxStart)
	}
	_ = append(b[0].Slots, SlotVal{F: -1})
	if b[1].Slots[0].F != math.Inf(1) {
		t.Fatal("an append to entry 0's slots overwrote entry 1")
	}
	p := NewPresence(150)
	set := []int{0, 63, 64, 127, 128, 149}
	for _, i := range set {
		p.Set(i)
	}
	for i := 0; i < 150; i++ {
		if want := slices.Contains(set, i); p.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, p.Has(i), want)
		}
	}
	p.Unset(64)
	if p.Has(64) || !p.Has(63) || p.Count() != len(set)-1 {
		t.Fatalf("after Unset(64): Has(63)=%v Has(64)=%v Count=%d", p.Has(63), p.Has(64), p.Count())
	}
	if p.Clear(); p.Count() != 0 || p.Has(149) {
		t.Fatalf("after Clear: Count=%d Has(149)=%v", p.Count(), p.Has(149))
	}
}

// TestOutputFanout pins the union-definition fan-out: subscribers with
// divergent RETURN clauses read their own slots from one payload, and
// overlapping slots are shared rather than duplicated.
func TestOutputFanout(t *testing.T) {
	def := &Def{Mode: ModeNative}
	subA := def.PlanSpecs([]Spec{
		{Kind: CountStar},
		{Kind: Sum, Type: "Stock", Attr: "price"},
	})
	subB := def.PlanSpecs([]Spec{
		{Kind: Sum, Type: "Stock", Attr: "price"},
		{Kind: Min, Type: "Stock", Attr: "price"},
	})
	if len(def.Slots) != 2 {
		t.Fatalf("union def has %d slots, want 2 (SUM shared, MIN added)", len(def.Slots))
	}
	if subA[1].Slot != subB[0].Slot {
		t.Fatalf("overlapping SUM slot not shared: %d vs %d", subA[1].Slot, subB[0].Slot)
	}
	p := def.New()
	p.Count = 7
	p.Slots[subA[1].Slot].F = 42.5
	p.Slots[subB[1].Slot].F = 3.25
	if got := def.Values(p, subA); got[0] != 7 || got[1] != 42.5 {
		t.Errorf("subscriber A values = %v, want [7 42.5]", got)
	}
	if got := def.Values(p, subB); got[0] != 42.5 || got[1] != 3.25 {
		t.Errorf("subscriber B values = %v, want [42.5 3.25]", got)
	}
}
