package benchmark

import "fmt"

// MetricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry no bound. BENCHMARK.json lists the
// same table, and a test keeps the two identical.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the daemon or the library sees. Every
// workload reports all of them from an untraced run.
var EndToEnd = []MetricDef{
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// PerLayer are the traced run's metrics, one group per layer of the stack.
// Timings are p50 unless named otherwise; "per_job" values are per job.
var PerLayer = []MetricDef{
	{"service.enqueue_ms", "ms", "lower", 0},
	{"service.get_ms", "ms", "lower", 0},
	{"service.stream_ms", "ms", "lower", 0},
	{"service.list_ms", "ms", "lower", 0},
	{"service.list_p99_ms", "ms", "lower", 0},
	{"service.summary_ms", "ms", "lower", 0},
	{"service.summary_p99_ms", "ms", "lower", 0},
	{"service.trace_ms", "ms", "lower", 0},
	{"service.trace_p99_ms", "ms", "lower", 0},
	{"service.metrics_ms", "ms", "lower", 0},
	{"service.metrics_p99_ms", "ms", "lower", 0},
	{"service.read_p50_ms", "ms", "lower", 0},
	{"service.read_p99_ms", "ms", "lower", 0},
	{"service.reads_per_s", "reads/s", "higher", 0},
	{"service.refused_per_job", "count", "lower", 0},
	{"service.disk_kb_per_job", "kB", "lower", 0},
	{"runstate.save_ms", "ms", "lower", 0},
	{"runstate.encode_ms", "ms", "lower", 0},
	{"runstate.files_per_job", "count", "lower", 0},
	{"tuner.prompt_wall_ms", "ms", "lower", 0},
	{"tuner.llm_wall_ms", "ms", "lower", 0},
	{"tuner.eval_wall_ms", "ms", "lower", 0},
	{"tuner.schedule_wall_ms", "ms", "lower", 0},
	{"tuner.index-build_wall_ms", "ms", "lower", 0},
	{"tuner.spans_per_job", "count", "lower", 0},
	{"tuner.tuning_virtual_s", "virtual_s", "lower", 0},
	{"tuner.best_speedup_gm", "x", "higher", 0},
	{"runtime.memo_hit_rate", "ratio", "higher", 0},
	{"runtime.memo_cross_job_hit_rate", "ratio", "higher", 0},
	{"runtime.memo_evictions_per_job", "count", "lower", 0},
	{"runtime.memo_hit_retention", "ratio", "higher", 0},
	{"engine.plan_hit_rate", "ratio", "higher", 0},
	{"engine.plan_evictions_per_job", "count", "lower", 0},
	{"engine.plan_cold_ms", "ms", "lower", 0},
	{"engine.plan_warm_ms", "ms", "lower", 0},
	{"evaluator.slot_wait_ms", "ms", "lower", 0},
	{"schedule.order_ms", "ms", "lower", 0},
	{"prompt.generate_ms", "ms", "lower", 0},
	{"ilp.select_ms", "ms", "lower", 0},
	{"llm.complete_ms", "ms", "lower", 0},
	{"llm.calls_per_job", "count", "lower", 0},
	{"workload.build_ms", "ms", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills a result's metrics from values keyed by name, in the order
// and with the units of defs. A name missing from values is a bug in this
// program, reported as an error rather than printed as zero.
func metricSet(defs []MetricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the metric table", name)
			}
		}
	}
	return out, nil
}
