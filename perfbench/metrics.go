package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesProgram checks
// that they agree.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"evals_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// pipelineFrameworks are the frameworks with a per-framework pipeline
// percentile: the serve-cold rotation plus the two slt-batch frameworks.
var pipelineFrameworks = append(append([]string(nil), coldFrameworks...), "slt", "gp")

// perLayer are the metrics of the traced run. A layer a workload does not
// reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"latency_p99_ms", "ms", "lower"},
		{"error_ratio", "ratio", "lower"},
		{"edaserver.submit_ms.p50", "ms", "lower"},
		{"edaserver.submit_ms.p99", "ms", "lower"},
		{"edaserver.queue_wait_ms.p50", "ms", "lower"},
		{"edaserver.queue_wait_ms.p99", "ms", "lower"},
		{"edaserver.report_cache.hits", "count", "higher"},
		{"edaserver.report_cache.misses", "count", "lower"},
		{"edaserver.report_cache.hit_ratio", "ratio", "higher"},
		{"edaserver.cached_share", "ratio", "higher"},
		{"edaserver.sse_events_per_job", "count", "lower"},
		{"edaserver.rejected", "count", "lower"},
		{"edaserver.unattributed_ms.p50", "ms", "lower"},
		{"edaserver.latency_ms.mean", "ms", "lower"},
		{"edaserver.submit_ms.mean", "ms", "lower"},
		{"edaserver.queue_wait_ms.mean", "ms", "lower"},
		{"edaserver.pipeline_ms.mean", "ms", "lower"},
		{"edaserver.store_write_ms.mean", "ms", "lower"},
		{"edaserver.unattributed_ms.mean", "ms", "lower"},
		{"eda.validate_ms", "ms", "lower"},
		{"eda.pipeline_ms.p50", "ms", "lower"},
		{"eda.pipeline_ms.p99", "ms", "lower"},
	}
	for _, fw := range pipelineFrameworks {
		defs = append(defs, metricDef{"eda.pipeline_ms." + fw + ".p50", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"eda.pipeline_other_ms.p50", "ms", "lower"},
		metricDef{"llm.generate_us", "us", "lower"},
	)
	for _, layer := range []string{"parse", "design", "result", "lint"} {
		defs = append(defs,
			metricDef{"simfarm." + layer + ".hits", "count", "higher"},
			metricDef{"simfarm." + layer + ".misses", "count", "lower"},
			metricDef{"simfarm." + layer + ".computes", "count", "lower"},
			metricDef{"simfarm." + layer + ".hit_ratio", "ratio", "higher"},
		)
	}
	defs = append(defs,
		metricDef{"simfarm.lint_rejects", "count", "higher"},
		metricDef{"verilog.compile_ms.p50", "ms", "lower"},
		metricDef{"verilog.sim_ms.p50", "ms", "lower"},
		metricDef{"verilog.parse_us", "us", "lower"},
		metricDef{"verilog.elaborate_us", "us", "lower"},
		metricDef{"verilog.compile_us", "us", "lower"},
		metricDef{"verilog.run_us", "us", "lower"},
		metricDef{"verilog.vm.tier_a_ops", "count", "higher"},
		metricDef{"verilog.vm.tier_b_ops", "count", "higher"},
		metricDef{"verilog.vm.generic_ops", "count", "lower"},
		metricDef{"verilog.vm.superblocks", "count", "higher"},
		metricDef{"vlint.lint_screen_ms.p50", "ms", "lower"},
		metricDef{"vlint.lint_us", "us", "lower"},
		metricDef{"chdl.parse_us", "us", "lower"},
		metricDef{"isa.compile_us", "us", "lower"},
		metricDef{"boom.run_ms", "ms", "lower"},
		metricDef{"boom.minsts_per_s", "Minst/s", "higher"},
		metricDef{"boom.insts", "count", "higher"},
		metricDef{"boom.cycles", "count", "higher"},
		metricDef{"slt.compile_fail_ratio", "ratio", "lower"},
		metricDef{"slt.best_watts", "W", "higher"},
	)
	for _, name := range selfNames {
		defs = append(defs, metricDef{"self_ms." + name, "ms", "lower"})
	}
	return append(defs,
		metricDef{"trace.overhead.latency_p50_ms", "ms", "lower"},
		metricDef{"trace.overhead.jobs_per_s", "1/s", "lower"},
		metricDef{"trace.overhead.evals_per_s", "1/s", "lower"},
	)
}()

// metricValue is one metric as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects the values of one run, plus the sample count behind
// every percentile (for the result record).
type metrics struct {
	defs    map[string]metricDef
	values  map[string]float64
	samples map[string]int
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: map[string]metricDef{}, values: map[string]float64{}, samples: map[string]int{}}
	for _, d := range defs {
		m.defs[d.name] = d
	}
	return m
}

// set records a metric; setting a name outside the set is a bug.
func (m *metrics) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	m.values[name] = v
}

// pct records the q-quantile of s under name, with its sample count.
func (m *metrics) pct(name string, s sample, q float64) {
	m.set(name, s.quantile(q))
	m.samples[name] = len(s)
}

// output returns every metric of the set, failing on any left unset.
func (m *metrics) output() (map[string]metricValue, error) {
	out := map[string]metricValue{}
	var missing []string
	for name, d := range m.defs {
		v, ok := m.values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics left unset: %v", missing)
	}
	return out, nil
}

// zero sets every metric not yet set to 0: the traced run's layers that
// a workload never reaches.
func (m *metrics) zero() {
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			m.values[name] = 0
		}
	}
}
