package baseline_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/cet"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/baseline/flat"
	"github.com/greta-cep/greta/internal/baseline/sase"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

func randStream(rng *rand.Rand, n int) []*event.Event {
	types := []event.Type{"A", "B", "C", "D"}
	var b event.Builder
	t := event.Time(1)
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			t += event.Time(rng.Intn(3) + 1)
		}
		b.AddStr(types[rng.Intn(len(types))], t,
			map[string]float64{"x": float64(rng.Intn(8))},
			map[string]string{"g": fmt.Sprintf("g%d", rng.Intn(2))})
	}
	return b.Events()
}

type resMap map[string][]float64

func key(group string, wid int64) string { return fmt.Sprintf("%s/%d", group, wid) }

func eq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func compare(t *testing.T, name, qsrc string, evs []*event.Event, got, want resMap) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s on %q: %d results, want %d\nstream %v\ngot %v\nwant %v",
			name, qsrc, len(got), len(want), evs, got, want)
		return
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s on %q: missing %s", name, qsrc, k)
			continue
		}
		for i := range wv {
			if !eq(gv[i], wv[i]) {
				t.Errorf("%s on %q: %s agg %d = %v, want %v\nstream %v",
					name, qsrc, k, i, gv[i], wv[i], evs)
			}
		}
	}
}

var crossQueries = []string{
	"RETURN COUNT(*) PATTERN A+",
	"RETURN COUNT(*) PATTERN SEQ(A+, B)",
	"RETURN COUNT(*), COUNT(A), MIN(A.x), MAX(A.x), SUM(A.x), AVG(A.x) PATTERN (SEQ(A+, B))+",
	"RETURN COUNT(*) PATTERN A+ WHERE A.x < NEXT(A).x",
	"RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B)",
	"RETURN COUNT(*) PATTERN SEQ(A+, B) WITHIN 8 SLIDE 4",
	"RETURN COUNT(*), SUM(A.x) PATTERN A+ WHERE [g] GROUP-BY g",
}

// TestBaselinesMatchOracle cross-validates SASE, CET, and flattening
// against the enumerator (and hence transitively against GRETA, which
// the core tests validate against the same oracle).
func TestBaselinesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, qsrc := range crossQueries {
		q := query.MustParse(qsrc)
		for iter := 0; iter < 25; iter++ {
			matchOracle(t, qsrc, q, randStream(rng, 3+rng.Intn(9)))
		}
	}
	// A trend is told apart by its events' whole IDs: two events whose
	// IDs share their low 32 bits still form three trends of A+.
	wide := []*event.Event{{ID: 1, Type: "A", Time: 1}, {ID: 1<<32 | 1, Type: "A", Time: 2}}
	matchOracle(t, crossQueries[0], query.MustParse(crossQueries[0]), wide)
	// A MINLEN query's trends are those of at least MINLEN events, in
	// every engine.
	rng = rand.New(rand.NewSource(12))
	for _, qsrc := range minLenQueries {
		q := query.MustParse(qsrc)
		for iter := 0; iter < 25; iter++ {
			matchOracle(t, qsrc, q, randStream(rng, 3+rng.Intn(9)))
		}
	}
}

var minLenQueries = []string{
	"RETURN COUNT(*), COUNT(A), MIN(A.x), MAX(A.x), SUM(A.x), AVG(A.x) PATTERN A+ MINLEN 3",
	"RETURN COUNT(*), SUM(A.x), AVG(A.x) PATTERN SEQ(A+, B) MINLEN 3",
}

func matchOracle(t *testing.T, qsrc string, q *query.Query, evs []*event.Event) {
	t.Helper()
	oracle, err := enum.Run(q, evs)
	if err != nil {
		t.Fatal(err)
	}
	want := resMap{}
	for _, r := range oracle {
		if r.Count > 0 {
			want[key(r.Group, r.Wid)] = r.Values
		}
	}
	sr, _, err := sase.Run(q, evs, sase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := resMap{}
	for _, r := range sr {
		got[key(r.Group, r.Wid)] = r.Values
	}
	compare(t, "sase", qsrc, evs, got, want)

	cr, _, err := cet.Run(q, evs, cet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got = resMap{}
	for _, r := range cr {
		got[key(r.Group, r.Wid)] = r.Values
	}
	compare(t, "cet", qsrc, evs, got, want)

	fr, fstats, err := flat.Run(q, evs, flat.Options{MaxLen: len(evs) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Truncated {
		t.Fatalf("flat truncated with MaxLen=%d", len(evs)+1)
	}
	got = resMap{}
	for _, r := range fr {
		got[key(r.Group, r.Wid)] = r.Values
	}
	compare(t, "flat", qsrc, evs, got, want)
}

// TestFlatTruncation: with a cap below the longest trend, flattening
// must flag the miss.
func TestFlatTruncation(t *testing.T) {
	var b event.Builder
	for i := 1; i <= 6; i++ {
		b.Add("A", event.Time(i), map[string]float64{"x": 1})
	}
	q := query.MustParse("RETURN COUNT(*) PATTERN A+")
	_, stats, err := flat.Run(q, b.Events(), flat.Options{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Error("expected truncation flag with MaxLen=3 over 6 a's")
	}
	// Full coverage yields 2^6-1 = 63 trends.
	res, stats2, err := flat.Run(q, b.Events(), flat.Options{MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Truncated {
		t.Error("unexpected truncation with MaxLen=6")
	}
	if len(res) != 1 || res[0].Values[0] != 63 {
		t.Errorf("count = %v, want 63", res)
	}
	if stats2.Queries == 0 {
		t.Error("no flattened queries recorded")
	}
}

// TestSASECap: the trend cap keeps exponential runs finite.
func TestSASECap(t *testing.T) {
	var b event.Builder
	for i := 1; i <= 20; i++ {
		b.Add("A", event.Time(i), nil)
	}
	q := query.MustParse("RETURN COUNT(*) PATTERN A+")
	_, stats, err := sase.Run(q, b.Events(), sase.Options{MaxTrends: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated || stats.Trends != 1000 {
		t.Errorf("cap not applied: %+v", stats)
	}
}

// TestCETCostProfile: CET materializes every sub-trend (node count =
// sum of per-vertex counts), far exceeding SASE's stored state.
func TestCETCostProfile(t *testing.T) {
	var b event.Builder
	for i := 1; i <= 10; i++ {
		b.Add("A", event.Time(i), nil)
	}
	q := query.MustParse("RETURN COUNT(*) PATTERN A+")
	_, cstats, err := cet.Run(q, b.Events(), cet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sub-trends ending at a_i number 2^(i-1); total = 2^10 - 1 = 1023.
	if cstats.Trends != 1023 {
		t.Errorf("CET nodes = %d, want 1023", cstats.Trends)
	}
	// GRETA stores 10 vertices and touches 45 edges for the same stream.
	plan, err := core.NewPlan(q, aggregate.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(plan)
	eng.Run(b.Stream())
	gs := eng.Stats()
	if gs.Inserted != 10 || gs.Edges != 45 {
		t.Errorf("GRETA inserted=%d edges=%d, want 10/45", gs.Inserted, gs.Edges)
	}
	if r := eng.Results(); len(r) != 1 || r[0].Values[0] != 1023 {
		t.Errorf("GRETA count = %v, want 1023", r)
	}
}

// TestBaselineStatsMonotone: more events → at least as many trends.
func TestBaselineStatsMonotone(t *testing.T) {
	q := query.MustParse("RETURN COUNT(*) PATTERN SEQ(A+, B)")
	rng := rand.New(rand.NewSource(5))
	evs := randStream(rng, 12)
	_, s1, err := sase.Run(q, evs[:6], sase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := sase.Run(q, evs, sase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Trends < s1.Trends {
		t.Errorf("trends decreased: %d -> %d", s1.Trends, s2.Trends)
	}
	_ = baseline.Stats{}
}

// TestOraclesBitStable: each oracle sums the trends of a group's
// partitions and of a window in a fixed order, so a fractional SUM
// reads the same bits on every run — the partitions of one group are
// merged in key order, and the enumerator folds its trends in key order.
func TestOraclesBitStable(t *testing.T) {
	q, evs := bitStableCase()
	bits := func(group string, wid int64, vals []float64) string {
		s := key(group, wid)
		for _, v := range vals {
			s += fmt.Sprintf(" %016x", math.Float64bits(v))
		}
		return s + "\n"
	}
	fromBaseline := func(rs []baseline.Result, _ baseline.Stats, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, r := range rs {
			s += bits(r.Group, r.Wid, r.Values)
		}
		return s
	}
	oracles := []struct {
		name string
		run  func() string
	}{
		{"flat", func() string { return fromBaseline(flat.Run(q, evs, flat.Options{MaxLen: 64})) }},
		{"cet", func() string { return fromBaseline(cet.Run(q, evs, cet.Options{})) }},
		{"sase", func() string { return fromBaseline(sase.Run(q, evs, sase.Options{})) }},
		{"enum", func() string {
			rs, err := enum.Run(q, evs)
			if err != nil {
				t.Fatal(err)
			}
			s := ""
			for _, r := range rs {
				s += bits(r.Group, r.Wid, r.Values)
			}
			return s
		}},
	}
	for _, o := range oracles {
		first := o.run()
		if strings.Count(first, "\n") < 10 {
			t.Fatalf("%s: %d results, want at least 10", o.name, strings.Count(first, "\n"))
		}
		for i := 1; i < 20; i++ {
			if again := o.run(); again != first {
				t.Errorf("%s: run %d differs from run 0 in its bits:\n%s\nvs\n%s", o.name, i, again, first)
				break
			}
		}
	}
}

// bitStableCase is a grouped, windowed fractional SUM over 80 events in
// three partitions of two groups: fold order shows in its last bits.
func bitStableCase() (*query.Query, []*event.Event) {
	q := query.MustParse("RETURN COUNT(*), SUM(A.x), AVG(A.x) PATTERN A+ WHERE [h] GROUP-BY g WITHIN 12 SLIDE 4")
	rng := rand.New(rand.NewSource(3))
	var b event.Builder
	for i := 0; i < 80; i++ {
		b.AddStr("A", event.Time(1+i/2),
			map[string]float64{"x": float64(rng.Intn(1000)) / 7},
			map[string]string{"g": fmt.Sprintf("g%d", rng.Intn(2)), "h": fmt.Sprintf("h%d", rng.Intn(3))})
	}
	return q, b.Events()
}
