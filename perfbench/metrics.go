package main

// metricDef names one reported metric. For per-layer metrics, moves is
// the end-to-end metric the layer should move and on the workloads
// where it does; every workload still reports every metric, measured on
// its own instances and grid.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off. fail_frac is printed beside them and carried by the
// result line's attempted/failed counts.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "warm_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "sim_latency_cycles", unit: "cycles", better: "lower"},
}

var layerMetrics = []metricDef{
	{"topo.build_ms.lps", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"topo.build_ms.sf", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"topo.build_ms.bf", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"topo.build_ms.df", "ms", "lower", "setup_s", "paper-load, shard-12k"},

	{"routing.build_ms.dense", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"routing.build_ms.packed", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"routing.build_ms.lazy", "ms", "lower", "setup_s", "paper-load, shard-12k"},
	{"routing.repair_ms.dense", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.repair_ms.packed", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.repair_ms.lazy", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.restore_ms.dense", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.restore_ms.packed", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.restore_ms.lazy", "ms", "lower", "wall_s", "churn-repair"},
	{"routing.table_mb.dense", "MB", "lower", "peak_rss_mb", "shard-12k"},
	{"routing.table_mb.packed", "MB", "lower", "peak_rss_mb", "shard-12k"},
	{"routing.table_mb.lazy", "MB", "lower", "peak_rss_mb", "shard-12k"},
	{"routing.nexthop_ns.dense", "ns", "lower", "wall_s", "paper-load"},
	{"routing.nexthop_ns.packed", "ns", "lower", "wall_s", "paper-load"},
	{"routing.nexthop_ns.lazy", "ns", "lower", "wall_s", "paper-load"},

	{"partition.kway_ms", "ms", "lower", "setup_s", "shard-12k"},
	{"partition.cut_frac", "frac", "lower", "wall_s", "shard-12k"},

	{"fault.plan_ms", "ms", "lower", "wall_s", "churn-repair"},
	{"fault.schedule_ms", "ms", "lower", "wall_s", "churn-repair"},

	{"simnet.ns_per_hop.serial", "ns", "lower", "wall_s", "paper-load"},
	{"simnet.ns_per_hop.sharded", "ns", "lower", "wall_s", "shard-12k"},
	{"simnet.sim_mb", "MB", "lower", "peak_rss_mb", "paper-load, shard-12k"},
	{"simnet.alloc_bytes_per_hop", "bytes", "lower", "wall_s", "paper-load, shard-12k"},

	{"sweep.overhead_frac", "frac", "lower", "wall_s", "paper-load, fabric-loopback"},
	{"sweep.content_keys_ms", "ms", "lower", "setup_s, wall_s, warm_s", "fabric-loopback"},
	{"sweep.encode_us", "us", "lower", "wall_s, warm_s", "fabric-loopback"},
	{"sweep.decode_us", "us", "lower", "wall_s, warm_s", "fabric-loopback"},

	{"service.cache_get_us", "us", "lower", "warm_s", "fabric-loopback"},
	{"service.cache_put_us", "us", "lower", "wall_s", "fabric-loopback"},
	{"service.cache_hit_frac", "frac", "higher", "warm_s", "fabric-loopback"},
	{"service.rpc_ms.claim", "ms", "lower", "wall_s", "fabric-loopback"},
	{"service.rpc_ms.result", "ms", "lower", "wall_s", "fabric-loopback"},
	{"service.rpc_ms.heartbeat", "ms", "lower", "wall_s", "fabric-loopback"},
	{"service.rpc_retries", "count", "lower", "wall_s, fail_frac", "fabric-loopback"},
	{"service.worker_busy_frac", "frac", "higher", "wall_s", "fabric-loopback"},

	{"trace.overhead_frac", "frac", "lower", "wall_s", "every workload"},
}
