package main

// metricDef names one reported number. The two tables below are the source
// of truth for names, units and bounds; BENCHMARK.json repeats them for the
// driver and bench_test.go checks that the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is the absolute difference below which two medians agree
	// whatever their ratio. The driver's manifest has no key for it, so only
	// -selfcheck applies it.
	Floor float64 `json:"-"`
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression; README.md has
// the spreads the bounds were chosen from.
//
// The op time is the third-fastest of the timed ops, not their median: what
// disturbs this machine comes in stretches of seconds and only ever adds
// time (harness.go's opTime has the numbers), so the fast end of a run is
// what the code costs and the rest is the neighbours. The 10th percentile,
// the median, the 90th percentile and ops per second (in a closed loop with
// one client, the reciprocal of the mean) are printed beside it as
// diagnostics. setup_s is the fastest of a run's three set-ups for the same
// reason.
//
// failed_ops_pct is printed too but is not in the table: it is 0 on every
// workload, and the driver takes failures from the result line's
// "attempted" and "failed" keys instead.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_3rd_fastest", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Floor: 0.5},
	{Name: "comm_share_pct", Unit: "%", Better: "lower", Bound: 0.02},
}

// perLayer is what the traced run reports: one layer's public functions
// timed from outside. Every traced run prints every name; a layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	// Image and pipeline construction (moves synth-sweep).
	{Name: "scenario.new_app_ms", Unit: "ms", Better: "lower"},
	{Name: "binimg.build_image_ms", Unit: "ms", Better: "lower"},
	{Name: "binimg.image_kb", Unit: "KB", Better: "lower"},
	{Name: "binimg.instrument_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.enable_alias_ms", Unit: "ms", Better: "lower"},
	// The four static scans, each called directly on one prebuilt image.
	{Name: "staticanal.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "reach.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "purity.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "alias.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "reach.coverage_ms", Unit: "ms", Better: "lower"},
	// Profiling run and the three replays (moves spine-apps).
	{Name: "dist.profile_run_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.replay_default_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.replay_coign_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.replay_jitter_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "binimg.set_distribution_ms", Unit: "ms", Better: "lower"},
	// Small stages, recorded so no stage is unmeasured.
	{Name: "netsim.sample_model_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.build_graph_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.graph_nodes", Unit: "count", Better: "lower"},
	{Name: "analysis.graph_edges", Unit: "count", Better: "lower"},
	{Name: "analysis.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.pipeline_cut_ms", Unit: "ms", Better: "lower"},
	// The whole run, seen from its caller.
	{Name: "pipeline.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.result_bytes", Unit: "B", Better: "lower"},
	{Name: "pipeline.unattributed_ms", Unit: "ms", Better: "lower"},
	// Cold cut (moves cut-cold).
	{Name: "graph.synthesize_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},
	{Name: "graph.cold_cut_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.cold_alloc_bytes_per_edge", Unit: "B", Better: "lower"},
	// Arena re-cut (moves cut-recut).
	{Name: "graph.set_edge_weight_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.warm_perturbed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.warm_unchanged_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.arena_cuts", Unit: "count", Better: "higher"},
	{Name: "graph.arena_warm", Unit: "count", Better: "higher"},
	{Name: "graph.arena_cold", Unit: "count", Better: "lower"},
	{Name: "graph.arena_restaged", Unit: "count", Better: "lower"},
	{Name: "graph.arena_fallbacks", Unit: "count", Better: "lower"},
	{Name: "graph.warm_unchanged_fallbacks", Unit: "count", Better: "lower"},
	{Name: "graph.warm_fallback_share", Unit: "%", Better: "lower"},
	{Name: "graph.arena_live_mb", Unit: "MB", Better: "lower"},
	// The same rounds on cut-cold's graph, a few per traced run.
	{Name: "graph.scale_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.scale_warm_perturbed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.scale_warm_unchanged_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "graph.scale_warm_fallback_share", Unit: "%", Better: "lower"},
	// HTTP service (moves service-burst).
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.job_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "service.result_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "service.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "service.pipeline_share_pct", Unit: "%", Better: "higher"},
	// Journal, called directly on a second queue.
	{Name: "jobqueue.enqueue_ms_p50_early", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.enqueue_ms_p50_late", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.lease_ms_p50_early", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.lease_ms_p50_late", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.finish_ms_p50_early", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.finish_ms_p50_late", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.journal_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "jobqueue.open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.append_disk_ms_p50", Unit: "ms", Better: "lower"},
	// Harness diagnostics.
	{Name: "harness.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "harness.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "harness.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "harness.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
}
