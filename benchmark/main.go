// Command benchmark is the repository's measuring stick: four closed-loop
// workloads, each replaying one seeded lap through a real public entry
// point, with end-to-end metrics from the laps' undisturbed segments and a
// traced run that prices the layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON object a run ends with.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) line(trace bool) resultLine {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	for _, s := range specs {
		out.Metrics[s.name] = jsonMetric{r.Metrics[s.name], s.unit}
	}
	return out
}

// defaultOut is benchmark/out, from the repository's root or from the
// benchmark's own directory.
func defaultOut() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     = options{out: stdout}
		trace = fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		aa    = fs.Int("aa", 0, "A/A mode: two interleaved sets of this many runs per workload, report in <out>/AA.md")
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the input generators")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long to measure: set-ups, warm laps and measured laps together")
	fs.Float64Var(&o.scale, "scale", 1, "thin the event rate by this factor (smoke tests)")
	fs.BoolVar(&o.verbose, "v", false, "also print every lap and the close-latency quantiles")
	fs.StringVar(&o.outDir, "out", defaultOut(), "directory for scratch files and traces")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced run: write the kept spans here as JSON lines (default <out>/trace-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa > 0 {
		if err := runAA(*aa, o, filepath.Join(o.outDir, "AA.md")); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	o.trace = *trace != 0
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(o.outDir, "trace-"+o.workload+".jsonl")
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	b, err := json.Marshal(rep.line(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !o.trace {
		// Not part of the contract's result: the engine counts the A/A mode
		// tabulates across seeds.
		c, err := json.Marshal(rep.Counts)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "counts %s\n", c)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !rep.Correct {
		return 1
	}
	return 0
}
