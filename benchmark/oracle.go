package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/greta-cep/greta"
	"github.com/greta-cep/greta/internal/aggregate"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/core"
	"github.com/greta-cep/greta/internal/query"
)

// rowKey identifies one expected result row: statement, canonical window
// id and group.
type rowKey struct {
	stmt  int
	wid   int64
	group string
}

// refRow is one reference row: its values and its index among the rows of
// its window, which is how a collector tells a row delivered twice from two
// rows.
type refRow struct {
	vals []float64
	idx  int
}

// maxWindowRows bounds the rows of one window (a closeRec's bitset).
const maxWindowRows = 256

// expectation is the reference a run's results are checked against: every
// statement alone on a dedicated core.Engine with the summary fast path
// off (the per-vertex scan is the engine's source of truth), over the
// first lap and as much of the second as closes the windows that began in
// the first. Lap replay makes window w equal window w-period from the
// second lap on, so these rows check every window of the run.
type expectation struct {
	rows   map[rowKey]refRow
	perWid []int // rows, all statements together, by canonical window id
	period int64
	tol    float64
}

// canon maps a window id to the id of the reference window with the same
// content. Window 0 has no predecessor lap behind it and stands alone.
func (e *expectation) canon(wid int64) int64 {
	if wid <= e.period {
		return wid
	}
	return (wid-1)%e.period + 1
}

func (e *expectation) want(wid int64) int { return e.perWid[e.canon(wid)] }

// check looks a delivered row up: idx is the reference row's index in its
// window, -1 when the window has no such row; same reports whether the
// values equal the reference's.
func (e *expectation) check(stmt int, wid int64, group string, vals []float64) (idx int, same bool) {
	ref, ok := e.rows[rowKey{stmt, e.canon(wid), group}]
	if !ok {
		return -1, false
	}
	if len(ref.vals) != len(vals) {
		return ref.idx, false
	}
	for i, v := range vals {
		if !sameValue(ref.vals[i], v, e.tol) {
			return ref.idx, false
		}
	}
	return ref.idx, true
}

func sameValue(a, b, tol float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	if tol == 0 || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// buildExpectation computes the reference. At full size every window must
// have a row: a close is timed up to its last row.
func buildExpectation(p *lapPlan, fullSize bool) (*expectation, error) {
	w := p.w
	evs := p.released(0)
	for _, ev := range p.released(1) {
		if ev.Time > w.ticks+w.win.Within {
			break
		}
		evs = append(evs, ev)
	}
	exp := &expectation{
		rows:   map[rowKey]refRow{},
		perWid: make([]int, p.period+1),
		period: p.period,
		tol:    w.tol,
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0)) // one scan engine per processor
	)
	for si := range w.queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			plan, err := core.NewPlan(query.MustParse(w.query(si)), aggregate.ModeNative)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			eng := core.NewEngine(plan)
			eng.SetForceVertexScan(true)
			for _, ev := range evs {
				eng.Process(ev)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, r := range eng.Results() {
				if r.Wid <= p.period {
					exp.rows[rowKey{si, r.Wid, r.Group}] = refRow{r.Values, exp.perWid[r.Wid]}
					exp.perWid[r.Wid]++
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errs[0]
	}
	for wid, n := range exp.perWid {
		if n == 0 && fullSize {
			return nil, fmt.Errorf("reference: window %d has no result row; the harness could not tell its close from a lost result", wid)
		}
		if n > maxWindowRows {
			return nil, fmt.Errorf("reference: window %d has %d result rows, the collector tracks %d", wid, n, maxWindowRows)
		}
	}
	return exp, nil
}

// enumCheck compares the engine against the brute-force trend enumerator
// (not the engine) on the thinned sub-stream, all windows of every
// statement, and returns the fewest windows any statement was compared on.
func enumCheck(p *lapPlan) (windows int, err error) {
	w := p.w
	rt := greta.NewRuntime()
	type key struct {
		group string
		wid   int64
	}
	got := make([]map[key][]float64, len(w.queries))
	for si := range w.queries {
		h, err := rt.Register(greta.MustCompile(w.query(si)), greta.WithoutRetention())
		if err != nil {
			return 0, err
		}
		got[si] = map[key][]float64{}
		h.OnResult(func(r greta.Result) { got[si][key{r.Group, r.Wid}] = r.Values })
	}
	for _, ev := range p.thin {
		c := *ev // the runtime keeps what it is handed; the enumerator reads p.thin after it
		if err := rt.Process(&c); err != nil {
			return 0, err
		}
	}
	if err := rt.Close(); err != nil {
		return 0, err
	}
	windows = math.MaxInt
	for si := range w.queries {
		ref, err := enum.Run(query.MustParse(w.query(si)), p.thin)
		if err != nil {
			return 0, err
		}
		if len(ref) != len(got[si]) {
			return 0, fmt.Errorf("enumerator: statement %d: %d rows, engine %d", si, len(ref), len(got[si]))
		}
		wids := map[int64]bool{}
		for _, r := range ref {
			vals, ok := got[si][key{r.Group, r.Wid}]
			if !ok || len(vals) != len(r.Values) {
				return 0, fmt.Errorf("enumerator: statement %d group %q window %d: engine has no such row", si, r.Group, r.Wid)
			}
			for i, v := range r.Values {
				if !sameValue(v, vals[i], 1e-9) {
					return 0, fmt.Errorf("enumerator: statement %d group %q window %d: %v, engine %v", si, r.Group, r.Wid, r.Values, vals)
				}
			}
			wids[r.Wid] = true
		}
		windows = min(windows, len(wids))
	}
	return windows, nil
}
