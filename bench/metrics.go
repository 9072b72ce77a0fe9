package main

// metric is one reported quantity and its unit. BENCHMARK.json at the
// repository root lists the same metrics, with each end-to-end metric's
// regression bound; a test keeps the two lists equal.
type metric struct{ name, unit string }

// endToEnd is what a user of the program sees. Every untraced run
// reports all of them, measured over its timed phase. An op is one
// paper report, one simulated point or one sweep job.
var endToEnd = []metric{
	{"setup_s", "s"},      // median of the run's set-up repetitions
	{"op_p50_ms", "ms"},   // median op latency
	{"ops_per_s", "1/s"},  // ops completed per second of timed phase
	{"peak_rss_mb", "MB"}, // peak resident set size of the process
}

// perLayer is what a traced run reports, measured around the calls the
// benchmark makes into each layer: counts and times are totals over the
// timed phase, unless the name says p50 or tail. A layer the workload does
// not reach reports 0. README.md says which end-to-end metric each should
// move.
var perLayer = []metric{
	{"bench.ops", "count"},
	{"bench.timed_s", "s"},
	{"bench.traced_op_p50_ms", "ms"},
	{"bench.self_s", "s"},

	{"workloads.build_ms", "ms"},

	{"sim.points", "count"},
	{"sim.simulate_s", "s"},
	{"sim.winst", "count"},
	{"sim.ns_per_winst", "ns"},
	{"sim.self_s", "s"},
	{"sim.counters_overhead_pct", "%"},
	{"sim.trace_overhead_pct", "%"},
	{"sim.lanes2_speedup", "ratio"},

	{"runner.points", "count"},
	{"runner.simulated", "count"},
	{"runner.memo_hit_ratio", "ratio"},
	{"runner.batch_wall_s", "s"},
	{"runner.occupancy", "ratio"},
	{"runner.idle_s", "s"},

	{"harness.serial_s", "s"},
	{"harness.render_ms", "ms"},
	{"harness.validate_s", "s"},
	{"harness.fidelity_s", "s"},
	{"harness.self_s", "s"},

	{"energy.estimate_us", "us"},
	{"energy.attribute_us", "us"},
	{"energy.model_mae_pct", "%"},

	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.puts", "count"},
	{"resultcache.corrupt", "count"},
	{"resultcache.get_us_p50", "us"},
	{"resultcache.get_us_p95", "us"},
	{"resultcache.put_us_p50", "us"},
	{"resultcache.put_us_p95", "us"},
	{"resultcache.entry_kb", "KB"},

	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_tail", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.tail_ms_p50", "ms"},
	{"service.result_kb", "KB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.self_s", "s"},
}
