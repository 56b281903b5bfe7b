package main

import (
	"bytes"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestBenchmarkFileMatchesHarness fails when BENCHMARK.json and the
// harness name different workloads or metrics.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	check := func(kind string, file []fileMetric, specs []metricSpec) {
		if len(file) != len(specs) {
			t.Fatalf("%s: file has %d metrics, the harness %d", kind, len(file), len(specs))
		}
		for i, s := range specs {
			if file[i].Name != s.name || file[i].Unit != s.unit {
				t.Errorf("%s metric %d: file has %s [%s], harness %s [%s]", kind, i, file[i].Name, file[i].Unit, s.name, s.unit)
			}
			if !name.MatchString(s.name) || !unit.MatchString(s.unit) {
				t.Errorf("%s metric %q [%q]: bad name or unit", kind, s.name, s.unit)
			}
			if file[i].Better != "lower" && file[i].Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, s.name, file[i].Better)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload on thinned laps, one of them traced, and
// checks the results, the reported names and that every server and
// goroutine is gone afterwards.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	type tc struct {
		workload string
		trace    bool
	}
	cases := []tc{{"net_durable", true}}
	for _, w := range workloads {
		cases = append(cases, tc{w.name, false})
	}
	for _, c := range cases {
		var out bytes.Buffer
		dir := t.TempDir()
		// seconds 0: the fewest laps a run makes.
		o := options{workload: c.workload, seed: 1, scale: 0.02, trace: c.trace, outDir: dir, out: &out}
		if c.trace {
			o.traceOut = dir + "/trace.jsonl"
		}
		rep, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.workload, err, out.String())
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", c.workload, rep.Correct, rep.Attempted, rep.Failed, out.String())
		}
		specs := endToEnd
		if c.trace {
			specs = perLayer
		}
		line := rep.line(c.trace)
		if len(line.Metrics) != len(specs) || len(rep.Metrics) != len(specs) {
			t.Errorf("%s: %d metrics reported, want %d", c.workload, len(rep.Metrics), len(specs))
		}
		for _, s := range specs {
			if _, ok := rep.Metrics[s.name]; !ok {
				t.Errorf("%s: metric %s not reported", c.workload, s.name)
			}
			if !bytes.Contains(out.Bytes(), []byte(s.name)) {
				t.Errorf("%s: metric %s not printed", c.workload, s.name)
			}
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) > 1 {
			t.Errorf("%s: scratch directories left behind: %v %v", c.workload, ents, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
