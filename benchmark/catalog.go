package main

import "github.com/hybridmig/hybridmig/internal/strategy"

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root repeats this catalog with the regression bounds; a test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, measured in the
// untraced runs: medians over the run's passes, one fresh process per
// pass. A "run" is one Scenario.Run: a cell of a batch workload, a request
// of the service workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},            // host wall time of one pass
	{"cpu_s", "s", "lower"},             // user+system CPU of one pass, GC and workers included
	{"peak_rss_mb", "MB", "lower"},      // peak resident set of the process running the pass
	{"alloc_gb", "GB", "lower"},         // heap allocated during one pass
	{"setup_s", "s", "lower"},           // process start to the first run
	{"run_p50_ms", "ms", "lower"},       // run latency: median over passes of each pass's median
	{"run_p90_ms", "ms", "lower"},       // the same for each pass's 90th percentile
	{"retained_heap_mb", "MB", "lower"}, // live heap after forced GCs at the end of a pass
}

// runQuantiles are the end-to-end metrics taken over the runs of a pass. On
// a workload with one run per pass they repeat wall_s, so -compare skips
// them there.
var runQuantiles = map[string]bool{"run_p50_ms": true, "run_p90_ms": true}

// profiledLayers are the layers the traced pass's CPU profile is folded
// into (see layerOf); anything else is "other".
var profiledLayers = []string{
	"runtime.sched", "runtime.gc", "runtime.other",
	"sim", "flow", "chunk", "core", "guest", "vm", "blob", "pfs", "hv", "fabric",
	"workload", "strategy", "lease", "sched", "cluster", "scenario", "service",
	"stdlib", "bench", "other",
}

// perLayer returns the per-layer catalog: CPU shares of the profiled layers,
// runtime scheduler and GC readings, exact work counts, and the layer
// probes (which need the registered strategy names).
func perLayer() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead_pct", "%", "lower"},
		{"profile.cpu_s", "s", "lower"},
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_cpu_s", "s", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.alloc_objects_m", "M", "lower"},
		metricDef{"runtime.sched_wait_p50_us", "us", "lower"},
		metricDef{"runtime.sched_wait_p99_us", "us", "lower"},

		metricDef{"scenario.runs", "count", "higher"},
		metricDef{"sim.virtual_s", "sim_s", "higher"},
		metricDef{"cluster.migrations", "count", "higher"},
		metricDef{"core.phase_events", "count", "lower"},
		metricDef{"hv.precopy_rounds", "count", "lower"},
		metricDef{"sched.admissions", "count", "higher"},
		metricDef{"flow.traffic_gb", "GB", "lower"},
		metricDef{"core.pushed_gb", "GB", "lower"},
		metricDef{"core.pulled_gb", "GB", "lower"},
		metricDef{"core.prefetch_gb", "GB", "lower"},
		metricDef{"workload.guest_io_gb", "GB", "higher"},
		metricDef{"service.events_streamed", "count", "higher"},

		metricDef{"sim.proc_switch_ns", "ns", "lower"},
		metricDef{"sim.after_fire_ns", "ns", "lower"},
		metricDef{"sim.timer_churn_ns", "ns", "lower"},
		metricDef{"flow.churn_pfs_ns", "ns", "lower"},
		metricDef{"flow.churn_disjoint_1000_ns", "ns", "lower"},
		metricDef{"flow.churn_shared_1000_ns", "ns", "lower"},
		metricDef{"guest.mark_range_ns", "ns", "lower"},
	)
	for _, s := range strategy.Names() {
		defs = append(defs, metricDef{"strategy." + s + ".fig3_ms", "ms", "lower"})
	}
	for _, part := range []string{"submit", "queue_wait", "exec", "stream", "result"} {
		defs = append(defs, metricDef{"service." + part + "_ms_p50", "ms", "lower"})
	}
	return defs
}
