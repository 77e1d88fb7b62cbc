package main

// Metric tables: the names every run prints, with unit, direction and —
// for end-to-end metrics — the bound by which a change may worsen them.
// BENCHMARK.json lists the same names; TestBenchmarkJSONMatches keeps the
// two from drifting.

var workloadNames = []string{"handoff_stream", "frame_flood", "query_under_ingest", "query_quiet"}

// contractDef is an end-to-end metric every workload reports, under the
// one name and bound BENCHMARK.json allows per metric. What the generic
// "op" is on each workload is fixed in contractMeaning.
type contractDef struct {
	Name, Unit, Better string
	Bound              float64
}

var contractMetrics = []contractDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"goodput_ratio", "ratio", "higher", 0.12},
	{"setup_s", "s", "lower", 0.25},
}

// contractMeaning says which workload-specific metric each generic one
// carries.
var contractMeaning = map[string]map[string]string{
	"handoff_stream": {
		"op_p50_ms": "track_commit_p50_ms", "op_p95_ms": "track_commit_p95_ms",
		"ops_per_s":     "frames processed per second (the offered 711 when the system keeps up)",
		"cpu_ms_per_op": "cpu_ms_per_frame", "goodput_ratio": "handoff_commit_ratio",
	},
	"frame_flood": {
		"op_p50_ms": "frame hand-in to accepted by both replica connections, p50", "op_p95_ms": "the same, p95",
		"ops_per_s": "frames_per_s", "cpu_ms_per_op": "cpu_ms_per_frame", "goodput_ratio": "frame_ack_ratio",
	},
	"query_under_ingest": {
		"op_p50_ms": "query_p50_ms", "op_p95_ms": "query_p95_ms",
		"ops_per_s":     "queries answered per second (the offered 47 when the system keeps up)",
		"cpu_ms_per_op": "process CPU per query (writer included)", "goodput_ratio": "queries answered and writes acked over attempted",
	},
	"query_quiet": {
		"op_p50_ms": "query_p50_ms", "op_p95_ms": "query_p95_ms", "ops_per_s": "queries_per_s",
		"cpu_ms_per_op": "process CPU per query", "goodput_ratio": "queries answered over attempted",
	},
}

// ladderDef is one of the ladder's own end-to-end metrics: defined on the
// workloads listed, each with its own bound. Abs bounds are absolute
// differences (ratios near 1, error_ratio near 0); the rest are shares of
// the baseline median. These are what -compare checks.
type ladderDef struct {
	Name, Unit, Better string
	Abs                bool
	Bounds             map[string]float64 // workload -> bound
}

func on(bound float64, workloads ...string) map[string]float64 {
	m := make(map[string]float64, len(workloads))
	for _, w := range workloads {
		m[w] = bound
	}
	return m
}

func merge(ms ...map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

var ladderMetrics = []ladderDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bounds: on(0.25, workloadNames...)},
	{Name: "track_commit_p50_ms", Unit: "ms", Better: "lower", Bounds: merge(on(0.10, "handoff_stream"), on(0.15, "frame_flood"))},
	{Name: "track_commit_p95_ms", Unit: "ms", Better: "lower", Bounds: on(0.20, "handoff_stream")},
	{Name: "handoff_commit_ratio", Unit: "ratio", Better: "higher", Abs: true, Bounds: merge(on(0.02, "handoff_stream"), on(0.05, "frame_flood"))},
	{Name: "frames_per_s", Unit: "1/s", Better: "higher", Bounds: on(0.15, "frame_flood")},
	{Name: "frame_ack_ratio", Unit: "ratio", Better: "higher", Abs: true, Bounds: on(0.005, "frame_flood")},
	{Name: "cpu_ms_per_frame", Unit: "ms", Better: "lower", Bounds: on(0.15, "handoff_stream", "frame_flood")},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bounds: merge(on(0.15, "query_under_ingest"), on(0.10, "query_quiet"))},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bounds: merge(on(0.25, "query_under_ingest"), on(0.20, "query_quiet"))},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bounds: on(0.10, "query_quiet")},
	{Name: "write_commit_p50_ms", Unit: "ms", Better: "lower", Bounds: on(0.15, "query_under_ingest")},
	{Name: "write_commit_p95_ms", Unit: "ms", Better: "lower", Bounds: on(0.25, "query_under_ingest")},
	{Name: "error_ratio", Unit: "ratio", Better: "lower", Abs: true, Bounds: on(0.001, workloadNames...)},
}

// layerDef is a per-layer metric; a traced run prints every one, 0 where
// the workload does not exercise the layer.
type layerDef struct{ Name, Unit, Better string }

var layerMetrics = []layerDef{
	{"loadgen.render_us", "us", "lower"},
	{"loadgen.busy_share", "ratio", "lower"},
	{"loadgen.late_p95_ms", "ms", "lower"},
	{"loadgen.achieved_rate_ratio", "ratio", "higher"},

	{"camnode.process_frame_p50_us", "us", "lower"},
	{"camnode.process_frame_p95_us", "us", "lower"},
	{"camnode.self_us", "us", "lower"},
	{"camnode.events_total", "count", "higher"},
	{"camnode.reid_match_ratio", "ratio", "higher"},
	{"camnode.send_errors_total", "count", "lower"},

	{"vision.detect_us", "us", "lower"},

	{"transport.send_p50_us", "us", "lower"},
	{"transport.send_p95_us", "us", "lower"},
	{"transport.inform_delivery_p50_ms", "ms", "lower"},
	{"transport.inform_delivery_p95_ms", "ms", "lower"},
	{"transport.informs_per_event", "ratio", "lower"},

	{"topology.mdcs_converge_ms", "ms", "lower"},

	{"trajstore.add_vertex_p50_us", "us", "lower"},
	{"trajstore.add_vertex_p95_us", "us", "lower"},
	{"trajstore.batch_queue_wait_p50_ms", "ms", "lower"},
	{"trajstore.add_batch_p50_us", "us", "lower"},
	{"trajstore.add_batch_p95_us", "us", "lower"},
	{"trajstore.batch_size_mean", "count", "higher"},
	{"trajstore.wal_records_per_commit", "count", "higher"},
	{"trajstore.wal_bytes_per_record", "bytes", "lower"},
	{"trajstore.flush_retries_total", "count", "lower"},

	{"trajstore.snapshot_rebuild_ms", "ms", "lower"},
	{"trajstore.find_event_us", "us", "lower"},
	{"trajstore.engine_best_us", "us", "lower"},
	{"trajstore.engine_reconstruct_us", "us", "lower"},
	{"trajstore.engine_sightings_us", "us", "lower"},
	{"trajstore.query_cache_hit_ratio", "ratio", "higher"},
	{"trajstore.query_best_p50_ms", "ms", "lower"},
	{"trajstore.query_reconstruct_p50_ms", "ms", "lower"},
	{"trajstore.query_sightings_p50_ms", "ms", "lower"},

	{"rpc.roundtrip_floor_us", "us", "lower"},
	{"rpc.query_overhead_us", "us", "lower"},

	{"protocol.frame_encode_us", "us", "lower"},
	{"protocol.frame_decode_us", "us", "lower"},
	{"protocol.frame_wire_bytes", "bytes", "lower"},
	{"protocol.inform_encode_us", "us", "lower"},
	{"protocol.inform_wire_bytes", "bytes", "lower"},

	{"framestore.client_send_p50_us", "us", "lower"},
	{"framestore.client_send_p95_us", "us", "lower"},
	{"framestore.put_us", "us", "lower"},
	{"framestore.get_us", "us", "lower"},
	{"framestore.replica_lag_max_frames", "count", "lower"},
	{"framestore.drain_s", "s", "lower"},
	{"framestore.bytes_amplification", "ratio", "lower"},
	{"framestore.gc_runs_total", "count", "lower"},
	{"framestore.gc_reclaimed_mb", "mb", "higher"},
	{"framestore.replica_errors_total", "count", "lower"},

	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_kb_per_op", "kb", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"proc.peak_rss_mb", "mb", "lower"},
	{"proc.goroutines_peak", "count", "lower"},

	{"attribution.track_commit_unexplained_ms", "ms", "lower"},
	{"attribution.frame_unexplained_us", "us", "lower"},
	{"attribution.query_unexplained_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},

	// The ladder's workload-specific end-to-end metrics, repeated here so
	// a traced run shows them beside the layers that should move them.
	{"track_commit_p50_ms", "ms", "lower"},
	{"track_commit_p95_ms", "ms", "lower"},
	{"handoff_commit_ratio", "ratio", "higher"},
	{"frames_per_s", "1/s", "higher"},
	{"frame_ack_ratio", "ratio", "higher"},
	{"cpu_ms_per_frame", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p95_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"write_commit_p50_ms", "ms", "lower"},
	{"write_commit_p95_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
}
