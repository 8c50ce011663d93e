package main

// metric describes one reported metric. Per-layer metrics name the
// end-to-end metric and workload they should move, so a later change can
// say in advance which numbers it expects to change.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	target string // per-layer only: the end-to-end metric and workload it moves
}

// endToEnd are the metrics a user of dtserve sees, measured with tracing
// off. bound is the share of the parent's median by which a metric may
// worsen before a change counts as a regression.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "success_frac", unit: "ratio", better: "higher", bound: 0.01},
	{name: "server_cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "server_peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "makespan_vs_lb", unit: "ratio", better: "lower", bound: 0.05},
	{name: "makespan_vs_hlf", unit: "ratio", better: "lower", bound: 0.05},
}

// perLayer are the traced run's metrics, one Go package per layer.
var perLayer = []metric{
	{name: "taskgraph.canonicalize_us", unit: "us", better: "lower",
		target: "latency_p50_ms, throughput_rps, server_cpu_ms_per_req on warm_hit"},
	{name: "taskgraph.canonicalize_allocs", unit: "count", better: "lower",
		target: "latency_p50_ms, throughput_rps, server_cpu_ms_per_req on warm_hit"},
	{name: "taskgraph.canonicalize_mb_s", unit: "MB/s", better: "higher",
		target: "latency_p50_ms, throughput_rps, server_cpu_ms_per_req on warm_hit"},
	{name: "taskgraph.graph_build_us", unit: "us", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "service.mem_tier_us", unit: "us", better: "lower",
		target: "latency_p50_ms on warm_hit"},
	{name: "service.disk_tier_us", unit: "us", better: "lower",
		target: "latency_p50_ms on cold_sa and cold_hlf_large"},
	{name: "service.marshal_us", unit: "us", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "service.body_kb", unit: "KB", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "service.http_us", unit: "us", better: "lower",
		target: "latency_p50_ms on warm_hit"},
	{name: "engine.queue_us", unit: "us", better: "lower",
		target: "latency_p99_ms on cold_sa"},
	{name: "solver.solve_ms", unit: "ms", better: "lower",
		target: "latency_p50_ms on cold_sa and cold_hlf_large"},
	{name: "core.assign_ms", unit: "ms", better: "lower",
		target: "throughput_rps, server_cpu_ms_per_req on cold_sa"},
	{name: "core.ns_per_move", unit: "ns", better: "lower",
		target: "throughput_rps, server_cpu_ms_per_req on cold_sa"},
	{name: "core.moves_per_solve", unit: "count", better: "lower",
		target: "identical whenever makespan_vs_lb and makespan_vs_hlf are, on cold_sa"},
	{name: "core.stages_per_solve", unit: "count", better: "lower",
		target: "identical whenever makespan_vs_lb and makespan_vs_hlf are, on cold_sa"},
	{name: "core.accept_ratio", unit: "ratio", better: "higher",
		target: "identical whenever makespan_vs_lb and makespan_vs_hlf are, on cold_sa"},
	{name: "list.assign_ms", unit: "ms", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "machsim.simulate_ms", unit: "ms", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "machsim.epochs_per_solve", unit: "count", better: "lower",
		target: "latency_p50_ms on cold_hlf_large"},
	{name: "schedule.validate_us", unit: "us", better: "lower",
		target: "none yet: the cost of a server-side schedule check"},
	{name: "service.mem_hit_ratio", unit: "ratio", better: "higher",
		target: "success_frac on every workload"},
	{name: "service.solves", unit: "count", better: "lower",
		target: "success_frac on every workload"},
	{name: "service.coalesced", unit: "count", better: "lower",
		target: "success_frac on every workload"},
	{name: "engine.shed", unit: "count", better: "lower",
		target: "success_frac on every workload"},
	{name: "engine.expired", unit: "count", better: "lower",
		target: "success_frac on every workload"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower",
		target: "none: the cost of tracing itself"},
	{name: "trace.span_sum_frac", unit: "ratio", better: "higher",
		target: "none: the share of the e2e median the layer spans account for"},
}
