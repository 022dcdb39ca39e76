package main

import "strings"

// metricSpec names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; a test keeps the
// two in step.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of a -trace 0 run, measured with tracing
// off, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"step_wall_s", "s"},
	{"heap_peak_bytes", "bytes"},
}

// perLayer are the metrics of a -trace 1 run. A layer the workload does
// not reach reports 0.
var perLayer = []metricSpec{
	{"trace.step_wall_s", "s"},
	{"trace.overhead_frac", "ratio"},

	{"accuracy.force_err_rms", "ratio"},
	{"accuracy.energy_err", "ratio"},

	{"integrate.self_s", "s"},
	{"integrate.substeps", "count"},
	{"integrate.active_frac", "ratio"},

	{"core.self_s", "s"},
	{"core.groups", "count"},
	{"core.nodes_visited", "count"},
	{"core.interactions", "count"},

	{"morton.sort_s", "s"},
	{"octree.build_s", "s"},

	{"g5.busy_s", "s"},
	{"g5.inflight_s", "s"},
	{"g5.flush_s", "s"},
	{"g5.calls", "count"},
	{"g5.interactions_per_s", "1/s"},
	{"g5.guard_cpu_s", "s"},
	{"g5.recoveries", "count"},
	{"g5.fallbacks", "count"},
	{"g5.steals", "count"},
	{"g5.shard_imbalance", "ratio"},
	{"g5.model_s", "s"},

	{"hostk.busy_s", "s"},
	{"hostk.inflight_s", "s"},
	{"hostk.calls", "count"},
	{"hostk.interactions_per_s", "1/s"},

	{"ckpt.save_s", "s"},
	{"ckpt.bytes", "bytes"},

	{"serve.jobs", "count"},
	{"serve.jobs_per_min", "1/min"},
	{"serve.job_latency_s.p50", "s"},
	{"serve.job_latency_s.p90", "s"},
	{"serve.submit_s", "s"},
	{"serve.queue_s", "s"},
	{"serve.run_s", "s"},
	{"serve.result_s", "s"},
	{"serve.result_bytes", "bytes"},
	{"serve.rejected", "count"},
}

// metricUnit returns the unit of a named metric. An unknown name is a
// bug in the benchmark.
func metricUnit(name string) string {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// zeroLayers reports 0 for every per-layer metric under the given
// prefixes: layers the workload does not reach.
func zeroLayers(res *result, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				res.set(m.name, 0)
			}
		}
	}
}
