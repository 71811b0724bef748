package main

// The benchmark's vocabulary: the five workloads, the sixteen
// end-to-end metrics and the per-layer table. BENCHMARK.json at the
// repository root is generated from these lists (-spec) and a test
// asserts the two agree.

const (
	wConverge  = "converge-chan"
	wIdleRoute = "idle-route-chan"
	wChaos     = "chaos-churn-chan"
	wServe     = "serve-udp"
	wSim       = "sim-stack"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{wConverge, "Fresh lockstep clusters converge from adversarial registers: the frame hot path (wire codec, chan transport, node tick, barrier) does nearly all the work and routing almost none."},
	{wIdleRoute, "One converged cluster alternates idle ticks and routed batches: goroutine wake and barrier dominate the idle ticks, gateway next-hop and data frames the batches; the codec is nearly idle."},
	{wChaos, "Lockstep cluster on a lossy, duplicating, corrupting, delaying transport under corrupt/crash/rejoin rounds: the repair path (CRC rejects, delta miss, resync, staleness, adverts, seq floors)."},
	{wServe, "Free-running Serve over real loopback UDP sockets with admin servers up: per-node timers, the in-band silence detector and the labeling lock under real concurrency, the deployment shape."},
	{wSim, "The shared-memory simulator, router and the paper's MST/MDST constructions with no cluster, wire or transport: predicted flat for every cluster/wire change, the only workload for runtime/routing/core."},
}

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every run reports all
// of them: the named workload runs its own stage at full size and the
// other stages at reference size, so each metric always has a measured
// value, and the one a workload stresses is the one its inputs make
// large. Bounds started at a tenth for timings and were widened until
// three times the seed-to-seed spread on the shared 2-core box fits
// under them, which for every wall-clock metric but the two
// timer-driven ones is the most the schema allows (README.md, "Noise").
// Counts repeat exactly for one seed but differ between seeds, which is
// what the driver's runs vary, so they carry a bound too.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"converge_s", "s", lower, 0.25},
	{"ticks_to_quiet", "count", lower, 0.15},
	{"recover_s", "s", lower, 0.25},
	{"idle_tick_ms", "ms", lower, 0.25},
	{"idle_bytes_per_node_tick", "count", lower, 0.1},
	{"route_pkts_per_s", "1/s", higher, 0.25},
	{"deliver_p50_ticks", "count", lower, 0.1},
	{"deliver_p99_ticks", "count", lower, 0.1},
	{"announce_s", "s", lower, 0.15},
	{"reannounce_s", "s", lower, 0.15},
	{"deliver_p50_ms", "ms", lower, 0.25},
	{"cpu_us_per_pkt", "us", lower, 0.25},
	{"idle_cpu_ms_per_node_s", "ms", lower, 0.25},
	{"stabilize_moves_per_s", "1/s", higher, 0.25},
	{"tree_build_s", "s", lower, 0.25},
}

// perLayer is the layer table; layers are the repository's package
// names. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"bits.gamma_append_ns", "ns", lower, 0},
	{"bits.gamma_read_ns", "ns", lower, 0},
	{"bits.allocs_per_value", "count", lower, 0},

	{"wire.encode_anchor_ns", "ns", lower, 0},
	{"wire.encode_delta_ns", "ns", lower, 0},
	{"wire.encode_data_ns", "ns", lower, 0},
	{"wire.decode_anchor_ns", "ns", lower, 0},
	{"wire.decode_delta_ns", "ns", lower, 0},
	{"wire.apply_delta_ns", "ns", lower, 0},
	{"wire.decode_allocs_per_frame", "count", lower, 0},
	{"wire.decode_alloc_bytes_per_frame", "count", lower, 0},
	{"wire.anchor_frame_bytes", "count", lower, 0},
	{"wire.keepalive_frame_bytes", "count", lower, 0},
	{"wire.data_frame_bytes", "count", lower, 0},
	{"wire.reject_share", "%", lower, 0},

	{"transport.chan_ns_per_frame", "ns", lower, 0},
	{"transport.chan_allocs_per_frame", "count", lower, 0},
	{"transport.udp_ns_per_frame", "ns", lower, 0},
	{"transport.udp_lost_share", "%", lower, 0},
	{"transport.fault_ns_per_frame", "ns", lower, 0},
	{"transport.fault_lost", "count", lower, 0},
	{"transport.fault_dup", "count", lower, 0},
	{"transport.fault_corrupt", "count", lower, 0},
	{"transport.fault_delayed", "count", lower, 0},

	{"cluster.busy_tick_ns_per_frame", "ns", lower, 0},
	{"cluster.idle_tick_ns_per_node", "ns", lower, 0},
	{"cluster.allocs_per_frame", "count", lower, 0},
	{"cluster.alloc_bytes_per_frame", "count", lower, 0},
	{"cluster.frames_per_episode", "count", lower, 0},
	{"cluster.bytes_per_node", "count", lower, 0},
	{"cluster.register_writes", "count", lower, 0},
	{"cluster.anchor_share", "%", lower, 0},
	{"cluster.resync_per_kframe", "count", lower, 0},
	{"cluster.delta_miss_per_kframe", "count", lower, 0},
	{"cluster.staleness_expiries", "count", lower, 0},
	{"cluster.new_ns_per_node", "ns", lower, 0},
	{"cluster.stop_ns_per_node", "ns", lower, 0},
	{"cluster.join_ms", "ms", lower, 0},
	{"cluster.crash_ms", "ms", lower, 0},
	{"cluster.last_write_ms", "ms", lower, 0},
	{"cluster.detector_lag_ticks", "count", lower, 0},
	{"cluster.max_register_bits", "count", lower, 0},

	{"gateway.launch_ns_per_pkt", "ns", lower, 0},
	{"gateway.hop_ns", "ns", lower, 0},
	{"gateway.mean_hops", "count", lower, 0},
	{"gateway.refresh_share_pct", "%", lower, 0},
	{"gateway.churn_delivered_share", "%", higher, 0},
	{"gateway.deliver_p99_ms", "ms", lower, 0},
	{"gateway.little_mean_ms", "ms", lower, 0},
	{"gateway.saturated_pkts_per_s", "1/s", higher, 0},
	{"gateway.backlog_end", "count", lower, 0},
	{"gateway.generator_late_ms", "ms", lower, 0},

	{"routing.label_ns_per_node", "ns", lower, 0},
	{"routing.nexthop_ns", "ns", lower, 0},
	{"routing.live_setparent_ns", "ns", lower, 0},
	{"routing.drive_ns_per_pkt", "ns", lower, 0},

	{"runtime.sync_moves_per_s", "1/s", higher, 0},
	{"runtime.central_moves_per_s", "1/s", higher, 0},
	{"runtime.newnetwork_ns_per_node", "ns", lower, 0},
	{"runtime.rounds", "count", lower, 0},
	{"runtime.allocs_per_move", "count", lower, 0},

	{"graph.build_ns_per_edge", "ns", lower, 0},
	{"graph.dense_ns_per_edge", "ns", lower, 0},

	{"core.mst_s", "s", lower, 0},
	{"core.mdst_s", "s", lower, 0},
	{"core.mst_rounds", "count", lower, 0},
	{"core.mdst_rounds", "count", lower, 0},
	{"core.max_label_bits", "count", lower, 0},
	{"core.max_register_bits", "count", lower, 0},
	{"core.rejected_starts", "count", lower, 0},

	{"trace.record_ns", "ns", lower, 0},
	{"trace.merge_ns_per_event", "ns", lower, 0},
	{"trace.ring_bytes_per_node", "count", lower, 0},
	{"trace.armed_overhead_pct", "%", lower, 0},

	{"ops.metrics_render_us", "us", lower, 0},
	{"ops.metrics_render_bytes", "count", lower, 0},
	{"ops.crawl_us_per_node", "us", lower, 0},
	{"ops.getself_us", "us", lower, 0},

	{"harness.trace_overhead_pct", "%", lower, 0},
	{"harness.peak_rss_mb", "MB", lower, 0},
	{"harness.gc_pause_ms", "ms", lower, 0},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 25

// benchmarkSpec renders BENCHMARK.json.
func benchmarkSpec() map[string]any {
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
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		// The package is named by import path: "." would name the
		// repository root, which is outside paths.
		"command":     []string{"go", "-C", "benchmark", "run", "silentspan/benchmark"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}
