package baseline_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/greta-cep/greta/internal/baseline"
	"github.com/greta-cep/greta/internal/baseline/cet"
	"github.com/greta-cep/greta/internal/baseline/enum"
	"github.com/greta-cep/greta/internal/baseline/flat"
	"github.com/greta-cep/greta/internal/baseline/sase"
	"github.com/greta-cep/greta/internal/event"
	"github.com/greta-cep/greta/internal/query"
)

const baselineGoldenPath = "testdata/baseline.golden"

// TestBaselineGolden holds every engine's result rows, as float bit
// patterns, and the baselines' Stats to a committed file, over the
// query/stream pairs of TestBaselinesMatchOracle and the stream of
// TestOraclesBitStable. The other tests compare values within a
// tolerance and read a few Stats; this one fails on any change of a
// value's last bit, of a fold order, or of the cost accounting.
// A deliberate change replaces the file: delete it and run the test
// once — a missing file is written, and the run fails so the new rows
// get reviewed.
func TestBaselineGolden(t *testing.T) {
	var b strings.Builder
	emit := func(label string, q *query.Query, evs []*event.Event, flatLen int) {
		fmt.Fprintf(&b, "# %s %s\n", label, q)
		rows, err := enum.Run(q, evs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "enum %s count=%d\n", goldenRow(r.Group, r.Wid, r.Values), r.Count)
		}
		engine := func(name string, rs []baseline.Result, st baseline.Stats, err error) {
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				fmt.Fprintf(&b, "%s %s\n", name, goldenRow(r.Group, r.Wid, r.Values))
			}
			fmt.Fprintf(&b, "%s stats %+v\n", name, st)
		}
		sr, ss, err := sase.Run(q, evs, sase.Options{})
		engine("sase", sr, ss, err)
		cr, cs, err := cet.Run(q, evs, cet.Options{})
		engine("cet", cr, cs, err)
		fr, fs, err := flat.Run(q, evs, flat.Options{MaxLen: flatLen})
		engine("flat", fr, fs, err)
	}
	// The streams of TestBaselinesMatchOracle, drawn in the same order.
	rng := rand.New(rand.NewSource(11))
	for qi, qsrc := range crossQueries {
		q := query.MustParse(qsrc)
		for iter := 0; iter < 25; iter++ {
			evs := randStream(rng, 3+rng.Intn(9))
			emit(fmt.Sprintf("q%d/%d", qi, iter), q, evs, len(evs)+1)
		}
	}
	q, evs := bitStableCase()
	emit("bitstable", q, evs, 64)

	got := b.String()
	want, err := os.ReadFile(baselineGoldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(baselineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselineGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote %d lines, review and commit them", baselineGoldenPath, strings.Count(got, "\n"))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, baselineGoldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s holds %d", len(gl), baselineGoldenPath, len(wl))
	}
}

func goldenRow(group string, wid int64, vals []float64) string {
	s := key(group, wid)
	for _, v := range vals {
		s += fmt.Sprintf(" %016x", math.Float64bits(v))
	}
	return s
}
