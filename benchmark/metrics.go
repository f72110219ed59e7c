package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The six workloads. Names are fixed: later issues cite them.
const (
	wFig8Short = "fig8_short"
	wFig8Q9    = "fig8_q9"
	wCacheZipf = "cache_zipf_rw"
	wServe     = "serve_rate_ladder"
	wOffline   = "offline_prep"
	wLadder    = "ladder_nonrewritable"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wFig8Short, "12 short TPC-H pairs, 1-12 ms each: parse, rewrite, plan and per-batch fixed costs are a visible share; exec kernels barely move it"},
	{wFig8Q9, "Q9 pair, ~0.7 s per statement and >95% inside exec (join fan-out, SUM of products): parse, plan and cache changes must not move it"},
	{wCacheZipf, "Zipf(1.1) reads of 24 statements through a cache smaller than the working set plus one insert per pass: >90% hits beside invalidation, refill and eviction"},
	{wServe, "open-loop POST /v1/clean at 50-400 req/s: the only path through HTTP, auth, admission, queueing and JSON; the top step is above capacity so shedding runs"},
	{wOffline, "the paper's Fig 7 pipeline (annotate, propagate, validate) on a fresh clone: query layers do nothing, guards the probcalc entry points"},
	{wLadder, "exact enumeration and Monte-Carlo over tiny instances: thousands of tiny plans over materialized candidates, a per-plan fixed cost Q9 hides"},
}

// gate says who applies a metric's bound.
const (
	gateDriver  = "driver"  // BENCHMARK.json end_to_end: on every workload, never 0
	gateCompare = "compare" // end-to-end but specific to some workloads: listed under per_layer, bounded by -compare
	// gateDemoted marks the end-to-end metrics that are wall-clock times or
	// rates. They did not repeat within the widest bound the contract allows
	// (25%), so, as the issue prescribes, they are listed under per_layer:
	// every run still prints them and -compare still gives each a verdict,
	// but neither the driver nor -compare's exit code hangs on one.
	gateDemoted = "demoted"
	gateNone    = "" // per-layer: printed, never judged
)

// metricDef names one metric. The table below is the single definition:
// BENCHMARK.json is printed from it (-print-spec) and a test keeps the
// two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which the metric may
	// get worse; AbsBound replaces it for metrics whose baseline is 0.
	Bound    float64
	AbsBound float64
	Gate     string
	// Workloads the metric is measured on; nil means all six. Elsewhere a
	// per-layer metric reads 0: the layer did no work there.
	Workloads []string
}

var (
	fig8Only    = []string{wFig8Short, wFig8Q9}
	serveOnly   = []string{wServe}
	offlineOnly = []string{wOffline}
	cacheOnly   = []string{wCacheZipf}
	ladderOnly  = []string{wLadder}
	planLoads   = []string{wFig8Short, wFig8Q9, wLadder}
	queryLoads  = []string{wFig8Short, wFig8Q9, wCacheZipf, wServe, wLadder}
)

// Bounds were set from ten runs per workload with ten seeds on the 2-core
// reference host: the issue's bound where the worst workload's spread
// stays under a third of it. No wall-clock metric does: the host's speed
// on these allocation-heavy workloads moves by up to 1.9 times within an
// hour (a fig8_short pass read 102 ms and 190 ms on one commit), so the
// times and rates are demoted and only setup_s, which the contract
// requires, stays gated, at the contract's ceiling (README, "Bounds").
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		// End to end, on every workload.
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: gateDriver},
		{Name: "setup_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: gateDriver},
		{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.02, Gate: gateDriver},
		{Name: "kb_per_pass", Unit: "KB", Better: "lower", Bound: 0.05, Gate: gateDriver},
		{Name: "pass_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: gateDemoted},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gate: gateDemoted},

		// End to end, on the workloads that have them.
		{Name: "pass_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: gateDemoted, Workloads: []string{wFig8Short}},
		{Name: "overhead_ratio", Unit: "ratio", Better: "lower", Bound: 0.10, Gate: gateCompare, Workloads: fig8Only},
		{Name: "serve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: gateDemoted, Workloads: serveOnly},
		{Name: "serve_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: gateDemoted, Workloads: serveOnly},
		// Not judged at all: a step function of the host's minute. Six run-sets
		// of one commit read 100, 200, 200, 100, 50, 100; the 200 step sheds
		// 0-3% against a limit of 1%.
		{Name: "serve_max_ok_qps", Unit: "1/s", Better: "higher", Workloads: serveOnly},
		{Name: "prep_tuples_per_s", Unit: "tuples/s", Better: "higher", Bound: 0.25, Gate: gateDemoted, Workloads: offlineOnly},
		{Name: "fail_share", Unit: "share", Better: "lower", AbsBound: 0.005, Gate: gateCompare},

		// Per layer, from the traced phase.
		{Name: "sqlparse.parse_us", Unit: "us", Better: "lower", Workloads: fig8Only},
		{Name: "sqlparse.normalize_us", Unit: "us", Better: "lower", Workloads: fig8Only},
		{Name: "rewrite.rewrite_us", Unit: "us", Better: "lower", Workloads: fig8Only},
		{Name: "rewrite.rewritable_share", Unit: "share", Better: "higher", Workloads: planLoads},
		{Name: "plan.plan_us", Unit: "us", Better: "lower", Workloads: planLoads},
		{Name: "plan.share_of_pass", Unit: "share", Better: "lower", Workloads: planLoads},
		{Name: "exec.run_us", Unit: "us", Better: "lower", Workloads: queryLoads},
		{Name: "exec.share_of_pass", Unit: "share", Better: "lower", Workloads: queryLoads},
		{Name: "exec.rows_out", Unit: "rows", Better: "lower", Workloads: fig8Only},
		{Name: "exec.rows_examined_per_row_out", Unit: "ratio", Better: "lower", Workloads: fig8Only},
		{Name: "exec.scan_rows_out", Unit: "rows", Better: "lower", Workloads: fig8Only},
		{Name: "exec.join_rows_in", Unit: "rows", Better: "lower", Workloads: fig8Only},
		{Name: "exec.agg_rows_in", Unit: "rows", Better: "lower", Workloads: fig8Only},
		{Name: "exec.batches", Unit: "count", Better: "lower", Workloads: fig8Only},
		{Name: "exec.rows_per_batch", Unit: "rows", Better: "higher", Workloads: fig8Only},
		{Name: "exec.buffered_peak_rows", Unit: "rows", Better: "lower", Workloads: fig8Only},
		{Name: "exec.shard_skew_max", Unit: "ratio", Better: "lower", Workloads: fig8Only},
		{Name: "exec.shard_rebalances", Unit: "count", Better: "lower", Workloads: fig8Only},
		{Name: "engine.self_us", Unit: "us", Better: "lower"},
		{Name: "engine.unattributed_share", Unit: "share", Better: "lower"},
		{Name: "cache.result_hit_share", Unit: "share", Better: "higher", Workloads: cacheOnly},
		{Name: "cache.plan_hit_share", Unit: "share", Better: "higher", Workloads: cacheOnly},
		{Name: "cache.parse_hit_share", Unit: "share", Better: "higher", Workloads: cacheOnly},
		{Name: "cache.hit_us_p50", Unit: "us", Better: "lower", Workloads: cacheOnly},
		{Name: "cache.miss_us_p50", Unit: "us", Better: "lower", Workloads: cacheOnly},
		{Name: "cache.evictions", Unit: "count", Better: "lower", Workloads: cacheOnly},
		{Name: "cache.invalidations", Unit: "count", Better: "lower", Workloads: cacheOnly},
		{Name: "cache.coalesced", Unit: "count", Better: "higher", Workloads: cacheOnly},
		{Name: "cache.peak_bytes", Unit: "bytes", Better: "lower", Workloads: cacheOnly},
		{Name: "storage.insert_us_p50", Unit: "us", Better: "lower", Workloads: cacheOnly},
		{Name: "core.exact_us", Unit: "us", Better: "lower", Workloads: ladderOnly},
		{Name: "core.mc_us", Unit: "us", Better: "lower", Workloads: ladderOnly},
		{Name: "core.mc_samples_per_s", Unit: "1/s", Better: "higher", Workloads: ladderOnly},
		{Name: "core.exact_candidates", Unit: "count", Better: "lower", Workloads: ladderOnly},
		{Name: "core.rewriting_self_us", Unit: "us", Better: "lower", Workloads: fig8Only},
		{Name: "core.degraded_share", Unit: "share", Better: "lower", Workloads: ladderOnly},
		{Name: "core.mc_err_over_stderr_max", Unit: "ratio", Better: "lower", Workloads: ladderOnly},
		{Name: "dirty.candidate_count_us", Unit: "us", Better: "lower", Workloads: fig8Only},
		{Name: "dirty.sample_us", Unit: "us", Better: "lower", Workloads: ladderOnly},
		{Name: "dirty.materialize_us", Unit: "us", Better: "lower", Workloads: ladderOnly},
		{Name: "probcalc.annotate_us", Unit: "us", Better: "lower", Workloads: offlineOnly},
		{Name: "probcalc.tuples_per_s", Unit: "tuples/s", Better: "higher", Workloads: offlineOnly},
		{Name: "probcalc.clusters", Unit: "count", Better: "lower", Workloads: offlineOnly},
		{Name: "dirty.propagate_us", Unit: "us", Better: "lower", Workloads: offlineOnly},
		{Name: "dirty.propagate_rows_per_s", Unit: "rows/s", Better: "higher", Workloads: offlineOnly},
		{Name: "dirty.validate_us", Unit: "us", Better: "lower", Workloads: offlineOnly},
		{Name: "storage.scan_rows_per_s", Unit: "rows/s", Better: "higher", Workloads: offlineOnly},
		{Name: "matching.match_us", Unit: "us", Better: "lower", Workloads: offlineOnly},
		{Name: "matching.tuples_per_s", Unit: "tuples/s", Better: "higher", Workloads: offlineOnly},
		{Name: "matching.clusters_found", Unit: "count", Better: "lower", Workloads: offlineOnly},
	}
	for _, r := range serveRates {
		step := fmt.Sprintf("r%d", r)
		for _, m := range []metricDef{
			{Name: "server.queued_us_p50", Unit: "us", Better: "lower"},
			{Name: "server.queued_us_p95", Unit: "us", Better: "lower"},
			{Name: "server.exec_us_p50", Unit: "us", Better: "lower"},
			{Name: "server.outside_us_p50", Unit: "us", Better: "lower"},
			{Name: "server.shed_share", Unit: "share", Better: "lower"},
			{Name: "server.error_share", Unit: "share", Better: "lower"},
			{Name: "load.late_us_p95", Unit: "us", Better: "lower"},
			{Name: "load.sent", Unit: "count", Better: "higher"},
		} {
			m.Name += "." + step
			m.Workloads = serveOnly
			defs = append(defs, m)
		}
	}
	return append(defs,
		metricDef{Name: "server.retry_after_share", Unit: "share", Better: "higher", Workloads: serveOnly},
		metricDef{Name: "server.queue_peak", Unit: "count", Better: "lower", Workloads: serveOnly},
		metricDef{Name: "server.inflight_peak", Unit: "count", Better: "lower", Workloads: serveOnly},
		metricDef{Name: "uisgen.generate_s", Unit: "s", Better: "lower"},
		metricDef{Name: "uisgen.rows", Unit: "rows", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	)
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

func (m metricDef) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// runSeconds is how long one run measures; BENCHMARK.json repeats it. The
// driver's 136 runs, each with three set-ups and the gate, must end within
// 3420 s: at 12 s they take about 2600 s in the host's slow hours.
const runSeconds = 12

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range metricDefs {
		if m.Gate == gateDriver {
			spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		} else {
			spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
		}
	}
	return json.MarshalIndent(spec, "", "  ")
}

// metricValue is one reported number. Q1, Q3 and N describe the samples
// behind a value that is a median or a percentile.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is one run of one workload, traced or not.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// set records a metric; the name must be in metricDefs.
func (r *workloadResult) set(name string, v float64) {
	r.setSamples(name, v, 0, 0, 0)
}

func (r *workloadResult) setSamples(name string, v, q1, q3 float64, n int) {
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in metricDefs")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit, Q1: q1, Q3: q3, N: n}
}

// setMedian records the median of samples with its quartiles.
func (r *workloadResult) setMedian(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	r.setSamples(name, med, q1, q3, len(samples))
}

// contractLine is the last line of a run's standard output: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced
// run. Layers a workload does not touch read 0.
func (r *workloadResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, def := range metricDefs {
		if (def.Gate == gateDriver) == r.Trace {
			continue
		}
		metrics[def.Name] = mv{r.Metrics[def.Name].Value, def.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// report prints every metric the run produced, by name, with its unit.
func (r *workloadResult) report() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("workload %s seed %d trace %v: %d attempted, %d failed, %.1f s wall\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.WallS)
	for _, n := range names {
		m := r.Metrics[n]
		if def, _ := metricByName(n); !def.appliesTo(r.Workload) || (def.Gate == gateNone && !r.Trace) {
			continue
		}
		out += fmt.Sprintf("  %-34s %14.6g %-9s", n, m.Value, m.Unit)
		switch {
		case m.Q3 > 0:
			out += fmt.Sprintf(" [q1 %.6g q3 %.6g n %d]", m.Q1, m.Q3, m.N)
		case m.N > 0:
			out += fmt.Sprintf(" [n %d]", m.N)
		}
		out += "\n"
	}
	for _, f := range r.Failures {
		out += "  FAIL " + f + "\n"
	}
	for _, n := range r.Notes {
		out += "  note " + n + "\n"
	}
	return out
}
