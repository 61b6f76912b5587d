package main

import "cellport/internal/marvel"

// layerMetric is one per-layer metric of the traced run. Every workload
// reports every metric; a layer the workload does not call from the
// benchmark reads 0. BENCHMARK.json's per_layer list must match this
// table (TestBenchmarkJSONMatchesMetrics).
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	// marvel: workload artifacts (img, svm, workcache underneath).
	{"marvel.artifacts_s", "s"},
	{"workcache.hit_ratio", "ratio"},
	{"workcache.lookups", "count"},

	// serve calibration (setup).
	{"serve.calibrate_s", "s"},
	{"serve.calibrate_points", "count"},
	{"serve.calibrate_ms_per_point", "ms"},

	// serve event loop cost (host clock).
	{"serve.run_s", "s"},
	{"serve.us_per_request", "us"},
	{"serve.allocs_per_request", "count"},
	{"serve.epochs", "count"},
	{"serve.barriers", "count"},
	{"serve.window_admit_ratio", "ratio"},

	// serve simulated work (virtual clock).
	{"serve.requests", "count"},
	{"serve.batches", "count"},
	{"serve.mean_batch", "count"},
	{"serve.router_overrides", "count"},
	{"serve.scale_ups", "count"},
	{"serve.scale_downs", "count"},
	{"serve.rerouted", "count"},
	{"serve.policy_fallbacks", "count"},
	{"serve.late", "count"},
	{"serve.latency_samples", "count"},

	// serve shed causes: the six-term ledger's five shed terms.
	{"serve.shed_frac", "ratio"},
	{"serve.shed_rejected", "count"},
	{"serve.shed_expired", "count"},
	{"serve.shed_global", "count"},
	{"serve.shed_rerouted", "count"},
	{"serve.shed_exhausted", "count"},

	// sim + machine model, timed through marvel.RunPorted.
	{"sim.run_ported_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},

	// exec: the real executor and features kernels.
	{"exec.execute_s", "s"},
	{"exec.images_per_s", "1/s"},
	{"exec.tasks", "count"},
	{"exec.steals", "count"},
	{"exec.stolen_per_task", "ratio"},
	{"exec.mismatches", "count"},
	{"exec.speedup_err_mean", "ratio"},
	{"exec.rank_agree", "ratio"},

	// experiments: one figure function each.
	{"experiments.table1_s", "s"},
	{"experiments.naive_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.eqns_s", "s"},
	{"experiments.profile_s", "s"},
	{"experiments.hosts_s", "s"},
	{"experiments.scaling_s", "s"},
	{"experiments.pipeline_s", "s"},
	{"experiments.overhead_s", "s"},
	{"experiments.faults_s", "s"},

	// report: encoding/json of the results.
	{"report.marshal_s", "s"},
	{"report.bytes", "count"},

	// Self time per layer per measured pass (span minus child spans).
	{"self.bench_s", "s"},
	{"self.marvel_s", "s"},
	{"self.serve_s", "s"},
	{"self.sim_s", "s"},
	{"self.exec_s", "s"},
	{"self.experiments_s", "s"},
	{"self.report_s", "s"},

	// Tracing itself: traced minus untraced median pass (CPU profiler
	// included), and spans recorded per pass.
	{"trace.overhead_s", "s"},
	{"trace.spans_per_iter", "count"},

	// Go runtime, per phase (setup: all setupReps builds; run: per pass),
	// and the process's peak RSS (VmHWM).
	{"runtime.setup_gc_cycles", "count"},
	{"runtime.setup_alloc_mb", "MB"},
	{"runtime.run_gc_cycles", "count"},
	{"runtime.run_alloc_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},

	// Each module's share of the traced passes' CPU self samples.
	{"cpu.features_share", "ratio"},
	{"cpu.marvel_share", "ratio"},
	{"cpu.img_share", "ratio"},
	{"cpu.svm_share", "ratio"},
	{"cpu.workcache_share", "ratio"},
	{"cpu.cost_share", "ratio"},
	{"cpu.sim_share", "ratio"},
	{"cpu.cell_share", "ratio"},
	{"cpu.core_share", "ratio"},
	{"cpu.spe_share", "ratio"},
	{"cpu.mfc_share", "ratio"},
	{"cpu.eib_share", "ratio"},
	{"cpu.ls_share", "ratio"},
	{"cpu.mainmem_share", "ratio"},
	{"cpu.mbox_share", "ratio"},
	{"cpu.fault_share", "ratio"},
	{"cpu.serve_share", "ratio"},
	{"cpu.parallel_share", "ratio"},
	{"cpu.exec_share", "ratio"},
	{"cpu.experiments_share", "ratio"},
	{"cpu.trace_share", "ratio"},
	{"cpu.metrics_share", "ratio"},
	{"cpu.json_share", "ratio"},
	{"cpu.runtime_share", "ratio"},
	{"cpu.other_share", "ratio"},
}

// cacheUse accumulates artifact-cache hits and misses over measured
// passes.
type cacheUse struct {
	hits, misses uint64
	passes       int
}

// track snapshots the cache's counters and returns the function that,
// run at the end of a pass, adds the pass's lookups.
func (c *cacheUse) track(cache *marvel.ArtifactCache) func() {
	h0, m0 := cache.Stats()
	return func() {
		h1, m1 := cache.Stats()
		c.hits += h1 - h0
		c.misses += m1 - m0
		c.passes++
	}
}

func (c *cacheUse) report(add func(string, float64)) {
	if n := c.hits + c.misses; n > 0 {
		add("workcache.hit_ratio", float64(c.hits)/float64(n))
		add("workcache.lookups", float64(n)/float64(c.passes))
	}
}

func hasLayerMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// medianSeconds is the median of the durations in seconds (0 for none).
func medianSeconds(tr *tracer, from int, name string) float64 {
	ds := tr.durations(from, name)
	if len(ds) == 0 {
		return 0
	}
	return median(ds).Seconds()
}
