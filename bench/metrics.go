package main

// endToEndMetric is one user-visible metric with the share of the
// parent's median by which it may get worse before a change counts as a
// regression. BENCHMARK.json repeats this table; metrics_test.go checks
// the two agree.
type endToEndMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []endToEndMetric{
	// configured masks that came back with a record ÷ wall time of the
	// fastest timed repetition (fleet: Submit → Results).
	{"runs_per_s", "1/s", "higher", 0.25},
	// process CPU (user+sys, getrusage) during the cheapest timed
	// repetition ÷ masks: the cost per classified injection.
	{"cpu_ms_per_run", "ms", "lower", 0.25},
	// VmHWM of the workload's process.
	{"peak_rss_mb", "MB", "lower", 0.15},
	// process start → end of the warm-up campaign; median of setupRuns.
	{"setup_s", "s", "lower", 0.25},
}

// layerMetric is one per-layer metric of the traced run. The name's
// prefix is its layer (package under internal/); README.md says which
// end-to-end metric each should move, on which workload. BENCHMARK.json
// repeats this table.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

var perLayer = []layerMetric{
	{"bitarray.read_ns", "ns", "lower"},
	{"bitarray.read_armed_ns", "ns", "lower"},
	{"bitarray.write_ns", "ns", "lower"},
	{"cache.read_hit_ns", "ns", "lower"},
	{"cache.read_miss_ns", "ns", "lower"},
	{"cache.write_hit_ns", "ns", "lower"},
	{"mem.snapshot_us", "us", "lower"},
	{"mem.restore_us", "us", "lower"},
	{"marss.x86_mcycles_per_s", "Mcycles/s", "higher"},
	{"marss.x86_golden_cycles", "count", "lower"},
	{"marss.x86_golden_instrs", "count", "lower"},
	{"marss.checkpoint_ms", "ms", "lower"},
	{"marss.restore_ms", "ms", "lower"},
	{"gem5.x86_mcycles_per_s", "Mcycles/s", "higher"},
	{"gem5.arm_mcycles_per_s", "Mcycles/s", "higher"},
	{"gem5.x86_golden_cycles", "count", "lower"},
	{"gem5.arm_golden_cycles", "count", "lower"},
	{"gem5.x86_golden_instrs", "count", "lower"},
	{"gem5.arm_golden_instrs", "count", "lower"},
	{"gem5.checkpoint_ms", "ms", "lower"},
	{"gem5.restore_ms", "ms", "lower"},
	{"sims.boot_us_mafin-x86", "us", "lower"},
	{"sims.boot_us_gefin-x86", "us", "lower"},
	{"sims.boot_us_gefin-arm", "us", "lower"},
	{"workload.build_ms", "ms", "lower"},
	{"interp.cisc_minstr_per_s", "Minstr/s", "higher"},
	{"interp.risc_minstr_per_s", "Minstr/s", "higher"},
	{"interp.decode_hit_rate", "ratio", "higher"},
	{"handoff.capture_us", "us", "lower"},
	{"handoff.seed_interp_us", "us", "lower"},
	{"handoff.seed_core_us", "us", "lower"},
	{"fault.generate_kmasks_per_s", "kmasks/s", "higher"},
	{"fault.journal_append_us", "us", "lower"},
	{"fault.journal_replay_kentries_per_s", "kentries/s", "higher"},
	{"fault.index_build_ms", "ms", "lower"},
	{"fault.index_load_us", "us", "lower"},
	{"prune.plan_kmasks_per_s", "kmasks/s", "higher"},
	{"prune.rate", "ratio", "higher"},
	{"core.ladder_build_ms", "ms", "lower"},
	{"core.profiles_build_ms", "ms", "lower"},
	{"core.signature_build_ms", "ms", "lower"},
	{"core.run_boot_ms_p50", "ms", "lower"},
	{"core.run_restore_ms_p50", "ms", "lower"},
	{"core.classify_ns", "ns", "lower"},
	{"core.logs_store_ms", "ms", "lower"},
	{"core.logs_load_ms", "ms", "lower"},
	{"core.shard_cold_ms", "ms", "lower"},
	{"core.shard_warm_ms", "ms", "lower"},
	{"core.sched_scale_2w", "x", "higher"},
	{"core.masks", "count", "lower"},
	{"core.simulated", "count", "lower"},
	{"core.pruned", "count", "higher"},
	{"core.sim_cycles", "count", "lower"},
	{"core.class_masked", "count", "lower"},
	{"core.class_sdc", "count", "lower"},
	{"core.class_due", "count", "lower"},
	{"core.class_timeout", "count", "lower"},
	{"core.class_crash", "count", "lower"},
	{"core.class_assert", "count", "lower"},
	{"adaptive.decision_ns", "ns", "lower"},
	{"telemetry.run_event_ns", "ns", "lower"},
	{"telemetry.trace_flush_ms", "ms", "lower"},
	{"dist.plan_ms", "ms", "lower"},
	{"dist.lease_rtt_us_p50", "us", "lower"},
	{"dist.complete_rtt_ms_p50", "ms", "lower"},
	{"dist.probe_shard_ms", "ms", "lower"},
	{"dist.worker_shard_ms", "ms", "lower"},
	{"svc.submit_ms_p50", "ms", "lower"},
	{"svc.get_us_p50", "us", "lower"},
	{"svc.results_us_p50", "us", "lower"},
	{"svc.results_us_p95", "us", "lower"},
	{"svc.spool_put_us", "us", "lower"},
	{"svc.queue_wait_ms", "ms", "lower"},
	{"svc.finalize_ms", "ms", "lower"},
	{"svc.fleet_overhead_x", "x", "lower"},
	{"ledger.coverage_frac", "ratio", "higher"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}
