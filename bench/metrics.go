package main

// metricDef names one metric of BENCHMARK.json. The tables below and
// BENCHMARK.json list the same names, units and directions; a test keeps
// them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd are the metrics a user of the system waits for or pays for.
// Every workload reports all of them:
//
//   - wall_s: median wall time of one repetition - one Engine.Run of the
//     workload's job, or for serve-cc-http one closed-loop burst of
//     burstRequests requests over min(nproc, 4) connections;
//   - setup_s: median over the instance processes of the time from process
//     start to the first timed repetition: input generation, fleet or daemon
//     launch with the job that builds the retained store, and the warm-up;
//   - rss_peak_mb: median over the instance processes of VmHWM, read after
//     the last repetition, of the process that holds the stores - the
//     instance itself, or its ampcd process for serve-cc-http.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced pass's numbers, layer = module name. A layer a
// workload bypasses reports 0. query_qps, query_p50_us and query_p99_us are
// the serving workload's user-facing numbers; they live here, report-only,
// because only one workload can measure them and an end-to-end metric must
// be reported by all.
var perLayer = []metricDef{
	{Name: "graph.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.stream_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},

	{Name: "core.driver_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.phases", Unit: "count", Better: "lower"},

	{Name: "ampc.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "ampc.queries", Unit: "count", Better: "lower"},
	{Name: "ampc.max_machine_queries", Unit: "count", Better: "lower"},
	{Name: "ampc.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ampc.round_overhead_us", Unit: "us", Better: "lower"},
	{Name: "ampc.read_repeat_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "ampc.read_fresh_ns_per_query", Unit: "ns", Better: "lower"},

	{Name: "dds.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "dds.freeze_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "dds.freeze_build_ms", Unit: "ms", Better: "lower"},
	{Name: "dds.writes", Unit: "count", Better: "lower"},
	{Name: "dds.file_publish_ms", Unit: "ms", Better: "lower"},
	{Name: "dds.write_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "dds.freeze_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "dds.getmany_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "dds.file_getmany_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "dds.segment_write_ms", Unit: "ms", Better: "lower"},
	{Name: "dds.segment_bytes_per_pair", Unit: "bytes", Better: "lower"},

	{Name: "rpc.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.frames", Unit: "count", Better: "lower"},
	{Name: "rpc.keys_per_frame", Unit: "ratio", Better: "higher"},
	{Name: "rpc.wire_bytes_per_generation", Unit: "bytes", Better: "lower"},
	{Name: "rpc.put_ms_per_generation", Unit: "ms", Better: "lower"},
	{Name: "rpc.getmany_us_per_frame", Unit: "us", Better: "lower"},

	{Name: "query.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "query_qps", Unit: "1/s", Better: "higher"},
	{Name: "query_p50_us", Unit: "us", Better: "lower"},
	{Name: "query_p99_us", Unit: "us", Better: "lower"},

	{Name: "ampcd.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.point_p99_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.batch_p99_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.pair_p50_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.pair_p99_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "ampcd.achieved_rate", Unit: "1/s", Better: "higher"},

	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// metricValue and result are the benchmark contract's output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from vals; a metric the pass did
// not measure (a bypassed layer) is reported as 0.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return r
}
