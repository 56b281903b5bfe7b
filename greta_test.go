package greta_test

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/greta-cep/greta"
)

// runOne registers stmt alone on a fresh Runtime, drives the stream to
// the end (on parallel workers when workers > 1), closes the runtime,
// and returns the handle with its results sorted by (group, window).
func runOne(t *testing.T, stmt *greta.Statement, s greta.Stream, workers int) (*greta.Handle, []greta.Result) {
	t.Helper()
	rt := greta.NewRuntime()
	h, err := rt.Register(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 1 {
		err = rt.RunParallel(context.Background(), s, workers)
	} else if err = rt.Run(context.Background(), s); err == nil {
		err = rt.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	rs := h.Delivered()
	slices.SortFunc(rs, func(a, b greta.Result) int {
		return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.Wid, b.Wid))
	})
	return h, rs
}

func TestCompileAndRunQ1(t *testing.T) {
	stmt, err := greta.Compile(`
		RETURN sector, COUNT(*)
		PATTERN Stock S+
		WHERE [company, sector] AND S.price > NEXT(S).price
		GROUP-BY sector
		WITHIN 60 seconds SLIDE 20 seconds`)
	if err != nil {
		t.Fatal(err)
	}
	events := greta.StockStream(greta.DefaultStock(5000))
	rt := greta.NewRuntime()
	h, err := rt.Register(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	h.OnResult(func(greta.Result) { streamed++ })
	if err := rt.Run(context.Background(), greta.NewSliceStream(events)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rs := h.Delivered()
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if streamed != len(rs) {
		t.Errorf("callback saw %d, collected %d", streamed, len(rs))
	}
	sectors := map[string]bool{}
	for _, r := range rs {
		if !strings.HasPrefix(r.Group, "sec") {
			t.Errorf("group %q is not a sector", r.Group)
		}
		sectors[r.Group] = true
		if r.Values[0] <= 0 {
			t.Errorf("non-positive count %v", r.Values[0])
		}
	}
	if len(sectors) != 2 {
		t.Errorf("sectors = %d, want 2", len(sectors))
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"RETURN COUNT(*)",
		"RETURN COUNT(*) PATTERN NOT A",
		"RETURN COUNT(*) PATTERN A+ WHERE Z.x > 1",
	} {
		if _, err := greta.Compile(src); err == nil {
			t.Errorf("Compile(%q): expected error", src)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	greta.MustCompile("bogus")
}

func TestExactArithmetic(t *testing.T) {
	// 80 a's: COUNT(*) for A+ is 2^80-1, beyond uint64. Exact mode keeps
	// full precision (extracted as float64 here).
	var b greta.Builder
	for i := 1; i <= 80; i++ {
		b.Add("A", greta.Time(i), nil)
	}
	stmt := greta.MustCompile("RETURN COUNT(*) PATTERN A+", greta.WithExactArithmetic())
	_, rs := runOne(t, stmt, b.Stream(), 1)
	if len(rs) != 1 {
		t.Fatal("no result")
	}
	want := 1.2089258196146292e24 // 2^80 - 1
	if got := rs[0].Values[0]; got < want*0.999999 || got > want*1.000001 {
		t.Errorf("COUNT(*) = %v, want ≈2^80", got)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	stmt := greta.MustCompile(`
		RETURN mapper, SUM(M.cpu)
		PATTERN SEQ(Start S, Measurement M+, End E)
		WHERE [job, mapper] AND M.load < NEXT(M).load
		GROUP-BY mapper
		WITHIN 20 seconds SLIDE 10 seconds`)
	events := greta.ClusterStream(greta.DefaultCluster(20000))

	_, a := runOne(t, stmt, greta.NewSliceStream(events), 1)
	_, b := runOne(t, stmt, greta.NewSliceStream(events), 4)
	if len(a) != len(b) {
		t.Fatalf("results: seq %d, par %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group || a[i].Wid != b[i].Wid {
			t.Fatalf("result %d keys differ: %v vs %v", i, a[i], b[i])
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Errorf("result %d value %d: %v vs %v", i, j, a[i].Values[j], b[i].Values[j])
			}
		}
	}
}

func TestOutOfOrderDropped(t *testing.T) {
	stmt := greta.MustCompile("RETURN COUNT(*) PATTERN A+")
	var b greta.Builder
	b.Add("A", 5, nil)
	b.Add("A", 3, nil) // late: dropped
	b.Add("A", 6, nil)
	h, rs := runOne(t, stmt, b.Stream(), 1)
	if got := h.Stats().OutOfOrder; got != 1 {
		t.Errorf("OutOfOrder = %d, want 1", got)
	}
	if len(rs) != 1 || rs[0].Values[0] != 3 { // trends over {a5, a6}
		t.Errorf("results = %+v, want count 3", rs)
	}
}

func TestStatementQueryText(t *testing.T) {
	stmt := greta.MustCompile("RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 10 SLIDE 5")
	if !strings.Contains(stmt.Query(), "(SEQ(A+, B))+") {
		t.Errorf("query text = %q", stmt.Query())
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(greta.StockStream(greta.DefaultStock(100))) != 100 {
		t.Error("stock")
	}
	if len(greta.LinearRoadStream(greta.DefaultLinearRoad(100))) != 100 {
		t.Error("linearroad")
	}
	if len(greta.ClusterStream(greta.DefaultCluster(100))) != 100 {
		t.Error("cluster")
	}
}

func TestChannelIngestion(t *testing.T) {
	stmt := greta.MustCompile("RETURN COUNT(*) PATTERN SEQ(A+, B)")
	ch := make(chan *greta.Event, 16)
	rng := rand.New(rand.NewSource(1))
	go func() {
		for i := 1; i <= 50; i++ {
			typ := greta.Type("A")
			if rng.Intn(3) == 0 {
				typ = "B"
			}
			ch <- &greta.Event{ID: uint64(i), Type: typ, Time: greta.Time(i)}
		}
		close(ch)
	}()
	rt := greta.NewRuntime()
	h, err := rt.Register(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range ch {
		if err := rt.Process(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(h.Delivered()); n != 1 {
		t.Fatalf("results = %d", n)
	}
}
