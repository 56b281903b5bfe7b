package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// seedCounts are the counts the A/A report tabulates across seeds: inputs
// sized so that the seed does not move them say the workloads measure the
// program, not the draw.
var seedCounts = []string{"core.edges_per_event", "core.scan_visits_per_event", "greta.results_per_window", "allocs_per_event"}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), the
// way the driver computes a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	x := slices.Clone(vs)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// runAA runs two interleaved sets of k runs per workload, each run a fresh
// process as the driver starts them, seeds alternating between the sets,
// and writes per metric and workload both medians, their gap and each
// set's interquartile range over its median.
func runAA(k int, o options, path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bound := map[string]float64{}
	for _, m := range file.EndToEnd {
		bound[m.Name] = m.Bound
	}
	type series map[string][]float64 // metric -> one value per run
	sets := map[string]*[2]series{}
	counts := map[string]series{}
	failed := 0
	for i := 0; i < 2*k; i++ {
		for _, w := range workloads {
			seed := o.seed + int64(i)
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-out", o.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, out)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, seed, err)
			}
			failed += res.Failed
			if sets[w.name] == nil {
				sets[w.name] = &[2]series{{}, {}}
				counts[w.name] = series{}
			}
			s := sets[w.name][i%2]
			for name, m := range res.Metrics {
				s[name] = append(s[name], m.Value)
			}
			cs := metrics{"allocs_per_event": res.Metrics["allocs_per_event"].Value}
			for _, l := range lines {
				if rest, ok := bytes.CutPrefix(l, []byte("counts ")); ok {
					if err := json.Unmarshal(rest, &cs); err != nil {
						return err
					}
				}
			}
			for _, name := range seedCounts {
				counts[w.name][name] = append(counts[w.name][name], cs[name])
			}
			fmt.Fprintf(o.out, "run %d/%d %s seed %d: failed %d, throughput %.0f 1/s\n", i+1, 2*k, w.name, seed, res.Failed, res.Metrics["throughput_eps"].Value)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# A/A report\n\n")
	fmt.Fprintf(&b, "`-aa %d -seconds %g`: two interleaved sets of %d runs per workload, seeds %d..%d alternating between the sets, every run a fresh process. %s, %d processors, %s, commit %s. Failed operations over all runs: %d.\n\n",
		k, o.seconds, k, o.seed, o.seed+int64(2*k)-1, cpuModel(), procsUsed(), runtime.Version(), commit(), failed)
	fmt.Fprintf(&b, "gap is |median B - median A| / median A. iqr is a set's interquartile range over its median (Python's `statistics.quantiles(values, n=4)`), `iqr all` that of the %d runs together: what the driver computes from ten runs with ten seeds. bound is the metric's in BENCHMARK.json. A row is `over` when its gap exceeds half the bound or its `iqr all` the bound (the driver does not hold `setup_s` to its spread, nor does this report).\n\n", 2*k)
	fmt.Fprintf(&b, "| workload | metric | median A | median B | gap | iqr A | iqr B | iqr all | bound | |\n|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	over := 0
	for _, w := range workloads {
		for _, s := range endToEnd {
			a, bb := sets[w.name][0][s.name], sets[w.name][1][s.name]
			ma, mb := median(a), median(bb)
			gap, all := math.Abs(ratio(mb-ma, ma)), spread(append(slices.Clone(a), bb...))
			verdict := "ok"
			if gap > bound[s.name]/2 || (all > bound[s.name] && s.name != "setup_s") {
				verdict = "over"
				over++
			}
			fmt.Fprintf(&b, "| %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.2f | %s |\n", w.name, s.name, ma, mb,
				100*gap, 100*spread(a), 100*spread(bb), 100*all, bound[s.name], verdict)
		}
	}
	fmt.Fprintf(&b, "\nRows over: %d of %d.\n", over, len(workloads)*len(endToEnd))
	fmt.Fprintf(&b, "\n## Counts across seeds %d..%d\n\nrange is (max - min) / median over the %d seeds.\n\n| workload | count | min | median | max | range |\n|---|---|---:|---:|---:|---:|\n", o.seed, o.seed+int64(2*k)-1, 2*k)
	for _, w := range workloads {
		for _, name := range seedCounts {
			vs := counts[w.name][name]
			fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %.6g | %.2f%% |\n", w.name, name, slices.Min(vs), median(vs), slices.Max(vs),
				100*ratio(slices.Max(vs)-slices.Min(vs), median(vs)))
		}
	}
	fmt.Fprint(o.out, b.String())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
