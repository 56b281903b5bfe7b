package greta_test

import (
	"context"
	"fmt"

	"github.com/greta-cep/greta"
)

// The paper's Fig. 3 / Example 1: eleven trends match (SEQ(A+,B))+ in
// the stream {a1, b2, a3, a4, b7}, containing twenty a-occurrences with
// attribute values 5, 6, 4.
func ExampleCompile() {
	stmt, err := greta.Compile(`
		RETURN COUNT(*), COUNT(A), MIN(A.attr), MAX(A.attr), SUM(A.attr), AVG(A.attr)
		PATTERN (SEQ(A+, B))+`)
	if err != nil {
		panic(err)
	}
	var b greta.Builder
	b.Add("A", 1, map[string]float64{"attr": 5})
	b.Add("B", 2, nil)
	b.Add("A", 3, map[string]float64{"attr": 6})
	b.Add("A", 4, map[string]float64{"attr": 4})
	b.Add("B", 7, nil)

	rt := greta.NewRuntime()
	h, _ := rt.Register(stmt)
	rt.Run(context.Background(), b.Stream())
	rt.Close() // flush the open window
	r := h.Delivered()[0]
	fmt.Printf("COUNT(*)=%g COUNT(A)=%g MIN=%g MAX=%g SUM=%g AVG=%g\n",
		r.Values[0], r.Values[1], r.Values[2], r.Values[3], r.Values[4], r.Values[5])
	// Output: COUNT(*)=11 COUNT(A)=20 MIN=4 MAX=6 SUM=100 AVG=5
}

// Negation: Q3-style pattern — position report trends with no accident
// earlier in the stream. The accident at time 3 invalidates later
// reports (paper §5, Case 3).
func ExampleCompile_negation() {
	stmt := greta.MustCompile(`RETURN COUNT(*) PATTERN SEQ(NOT Accident A, Position P+)`)
	var b greta.Builder
	b.Add("Position", 1, nil)
	b.Add("Position", 2, nil)
	b.Add("Accident", 3, nil)
	b.Add("Position", 4, nil) // invalidated
	rt := greta.NewRuntime()
	h, _ := rt.Register(stmt)
	rt.Run(context.Background(), b.Stream())
	rt.Close()
	fmt.Println(h.Delivered()[0].Values[0])
	// Output: 3
}

// Sliding windows: results stream out per window as it closes.
func ExampleHandle_OnResult() {
	rt := greta.NewRuntime()
	h, _ := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`))
	h.OnResult(func(r greta.Result) {
		fmt.Printf("window %d: %g trends\n", r.Wid, r.Values[0])
	})
	var b greta.Builder
	b.Add("A", 1, nil)
	b.Add("A", 5, nil)
	b.Add("A", 12, nil)
	rt.Run(context.Background(), b.Stream())
	rt.Close()
	// Output:
	// window 0: 3 trends
	// window 1: 1 trends
}

// A Runtime hosts many statements over one shared ingest: both
// queries see each event once, and results stream per statement.
func ExampleRuntime() {
	rt := greta.NewRuntime()
	trends, _ := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`))
	pairs, _ := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 SLIDE 10`))

	var b greta.Builder
	b.Add("A", 1, nil)
	b.Add("A", 3, nil)
	b.Add("B", 5, nil)
	s := b.Stream()
	for ev := s.Next(); ev != nil; ev = s.Next() {
		if err := rt.Process(ev); err != nil {
			panic(err)
		}
	}
	rt.Close() // flush open windows

	for r := range trends.Results() {
		fmt.Printf("[%s] window %d: %g A-trends\n", trends.ID(), r.Wid, r.Values[0])
	}
	for r := range pairs.Results() {
		fmt.Printf("[%s] window %d: %g (A,B) pairs\n", pairs.ID(), r.Wid, r.Values[0])
	}
	// Output:
	// [q0] window 0: 3 A-trends
	// [q1] window 0: 2 (A,B) pairs
}

// Statements register and close at any point mid-stream without
// restarting the stream: a statement registered at watermark T sees
// only events at or after T, so windows that closed earlier never
// emit for it.
func ExampleRuntime_register() {
	rt := greta.NewRuntime()
	early, _ := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`), greta.WithID("early"))

	ev := func(id uint64, t greta.Time) *greta.Event {
		return &greta.Event{ID: id, Type: "A", Time: t}
	}
	// Window 0 ([0,10)) closes while only "early" is registered.
	rt.Process(ev(1, 2))
	rt.Process(ev(2, 8))
	rt.Process(ev(3, 12))

	// Register a second statement mid-stream, at watermark 12.
	late, _ := rt.Register(greta.MustCompile(`RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10`), greta.WithID("late"))
	fmt.Printf("registered %q at watermark %d\n", late.ID(), rt.Watermark())

	rt.Process(ev(4, 14))
	rt.Process(ev(5, 23))
	rt.Close()

	for r := range early.Results() {
		fmt.Printf("[early] window %d: %g trends\n", r.Wid, r.Values[0])
	}
	for r := range late.Results() {
		// No window 0: it closed before "late" registered. Window 1 counts
		// only the suffix event a14, not a12.
		fmt.Printf("[late]  window %d: %g trends\n", r.Wid, r.Values[0])
	}
	// Output:
	// registered "late" at watermark 12
	// [early] window 0: 3 trends
	// [early] window 1: 3 trends
	// [early] window 2: 1 trends
	// [late]  window 1: 1 trends
	// [late]  window 2: 1 trends
}

// Exact arithmetic: the number of trends is Θ(2ⁿ); math/big keeps full
// precision where uint64 would wrap.
func ExampleWithExactArithmetic() {
	stmt := greta.MustCompile(`RETURN COUNT(*) PATTERN A+`, greta.WithExactArithmetic())
	var b greta.Builder
	for i := 1; i <= 70; i++ {
		b.Add("A", greta.Time(i), nil)
	}
	rt := greta.NewRuntime()
	h, _ := rt.Register(stmt)
	rt.Run(context.Background(), b.Stream())
	rt.Close()
	fmt.Printf("%.6g\n", h.Delivered()[0].Values[0]) // 2^70 - 1
	// Output: 1.18059e+21
}
