package main

import (
	"encoding/json"
	"errors"
	"os"
)

// metricSpec names one reported metric and its unit. The names and units
// here are the ones BENCHMARK.json lists; the smoke test fails when the
// two drift apart.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_eps", "1/s"},
	{"cpu_ns_per_event", "ns"},
	{"allocs_per_event", "1"},
	{"alloc_bytes_per_event", "B"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric of a layer that is not on a workload's path reads 0 there.
var perLayer = []metricSpec{
	{"query.parse_us_per_stmt", "us"},
	{"core.plan_us_per_stmt", "us"},
	{"greta.register_us_per_stmt", "us"},
	{"event.bind_ns_per_event", "ns"},
	{"event.batch_append_ns_per_row", "ns"},
	{"core.route_hash_ns_per_event", "ns"},
	{"core.process_ns_per_event", "ns"},
	{"core.batch_ns_per_row", "ns"},
	{"core.close_emit_us_per_window", "us"},
	{"core.edges_per_event", "1"},
	{"core.scan_visits_per_event", "1"},
	{"core.summary_folds_per_event", "1"},
	{"core.summary_rebuilds_per_kevent", "1"},
	{"core.fold_share", "1"},
	{"core.prefilter_skip_share", "1"},
	{"core.partitions", "count"},
	{"core.peak_vertices", "count"},
	{"share.statements_per_graph", "1"},
	{"reorder.offer_ns_per_event", "ns"},
	{"reorder.displaced_share", "1"},
	{"reorder.pending_peak", "count"},
	{"checkpoint.writes_per_lap", "1"},
	{"checkpoint.bytes_per_write", "B"},
	{"checkpoint.write_ms_p50", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"netstream.send_ns_per_event", "ns"},
	{"netstream.event_encode_ns_per_event", "ns"},
	{"netstream.event_decode_ns_per_event", "ns"},
	{"netstream.wire_bytes_per_event", "B"},
	{"netstream.result_bytes_per_window", "B"},
	{"netstream.sync_rtt_us_p50", "us"},
	{"netstream.flush_ms", "ms"},
	{"cluster.process_ns_per_event", "ns"},
	{"cluster.frame_encode_ns_per_event", "ns"},
	{"cluster.frame_bytes_per_event", "B"},
	{"cluster.rows_per_frame", "1"},
	{"cluster.barriers_per_window", "1"},
	{"cluster.barrier_rtt_mean_us", "us"},
	{"cluster.barrier_rtt_max_us", "us"},
	{"cluster.close_ms", "ms"},
	{"cluster.slot_skew", "1"},
	{"core.shard_apply_ns_per_event", "ns"},
	{"core.inproc_ns_per_event", "ns"},
	{"cluster.wire_tax_ratio", "1"},
	{"greta.results_per_window", "1"},
	{"greta.result_latency_p50_us", "us"},
	{"greta.result_latency_p99_us", "us"},
	{"greta.result_latency_samples", "count"},
	{"obs.scrape_us", "us"},
	{"goruntime.gc_cycles_per_lap", "1"},
	{"goruntime.gc_pause_ms_per_lap", "ms"},
	{"trace.overhead_share", "1"},
	{"trace.budget_residual_share", "1"},
}

// metrics is one run's reported values by metric name.
type metrics map[string]float64

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile finds BENCHMARK.json from the repository's root or from
// the benchmark's own directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, err
		}
		return &f, nil
	}
	return nil, errors.Join(errs...)
}
