package main

// metricDef names one reported metric. moves records, for a per-layer
// metric, which end-to-end metric it should move and on which workload,
// so later changes can cite both by name; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced passes.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "alloc_bytes_per_event", unit: "B", better: "lower"},
}

// perLayer are the metrics of the traced run. Every workload reports
// every one of them; a layer the workload does not run reports 0.
var perLayer = []metricDef{
	{"strace.parse_s", "s", "lower", "wall_s, events_per_s on ior_compare"},
	{"strace.mb_per_s", "MB/s", "higher", "wall_s, events_per_s on ior_compare"},
	{"strace.allocs_per_event", "count", "lower", "alloc_bytes_per_event, cpu_s on ior_compare"},
	{"strace.follow_parse_s", "s", "lower", "serve.ingest_p50_ms, wall_s on session_checkpoint"},
	{"strace.dropped_lines", "count", "lower", "must stay 0 on every workload"},
	{"source.wait_s", "s", "lower", "wall_s on ior_compare and heavytail_archive"},
	{"source.peak_resident", "count", "lower", "peak_rss_mb on ior_compare and heavytail_archive"},
	{"archive.open_s", "s", "lower", "setup_s, wall_s on heavytail_archive"},
	{"archive.decode_s", "s", "lower", "wall_s on heavytail_archive"},
	{"intern.symbols", "count", "lower", "peak_rss_mb on heavytail_archive"},
	{"pm.map_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"pm.fold_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"pm.finalize_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"pm.variants", "count", "lower", "wall_s on heavytail_archive (structure; repeats exactly)"},
	{"pm.allocs_per_event", "count", "lower", "alloc_bytes_per_event, cpu_s on heavytail_archive and ior_compare"},
	{"dfg.fold_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"dfg.finalize_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"dfg.nodes", "count", "lower", "structure check; repeats exactly"},
	{"dfg.edges", "count", "lower", "structure check; repeats exactly"},
	{"dfg.allocs_per_event", "count", "lower", "alloc_bytes_per_event on heavytail_archive and ior_compare"},
	{"dfg.classify_s", "s", "lower", "wall_s on ior_compare"},
	{"stats.fold_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"stats.finalize_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"stats.intervals", "count", "lower", "wall_s, peak_rss_mb on heavytail_archive"},
	{"stats.allocs_per_event", "count", "lower", "alloc_bytes_per_event on heavytail_archive and ior_compare"},
	{"behavior.fold_s", "s", "lower", "wall_s on heavytail_archive"},
	{"behavior.allocs_per_event", "count", "lower", "alloc_bytes_per_event on heavytail_archive"},
	{"behavior.render_s", "s", "lower", "wall_s on heavytail_archive"},
	{"render.text_s", "s", "lower", "wall_s on heavytail_archive and ior_compare"},
	{"render.dot_s", "s", "lower", "wall_s on ior_compare"},
	{"render.bytes", "B", "lower", "structure check; repeats exactly"},
	{"core.fold_s", "s", "lower", "wall_s on session_checkpoint"},
	{"core.checkpoint_fold_s", "s", "lower", "serve.drain_s, serve.ingest_p90_ms, wall_s on session_checkpoint"},
	{"core.checkpoint_ratio", "ratio", "lower", "serve.drain_s, wall_s on session_checkpoint"},
	{"core.epoch_first_ms", "ms", "lower", "serve.ingest_p90_ms on session_checkpoint"},
	{"core.epoch_last_ms", "ms", "lower", "serve.drain_s, serve.ingest_p90_ms on session_checkpoint"},
	{"snapshot.encode_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"snapshot.decode_s", "s", "lower", "serve.query_p50_ms on session_checkpoint"},
	{"snapshot.merge_s", "s", "lower", "serve.query_p50_ms on session_checkpoint"},
	{"snapshot.bytes", "B", "lower", "serve.ckpt_bytes_per_event on session_checkpoint"},
	{"pm.snapshot_bytes", "B", "lower", "serve.ckpt_bytes_per_event on session_checkpoint"},
	{"dfg.snapshot_bytes", "B", "lower", "serve.ckpt_bytes_per_event on session_checkpoint"},
	{"stats.snapshot_bytes", "B", "lower", "serve.ckpt_bytes_per_event on session_checkpoint"},
	{"behavior.snapshot_bytes", "B", "lower", "serve.ckpt_bytes_per_event on session_checkpoint"},
	{"pm.encode_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"dfg.encode_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"stats.encode_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"behavior.encode_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"fsatomic.write_s", "s", "lower", "serve.drain_s on session_checkpoint"},
	{"serve.ingest_p50_ms", "ms", "lower", "wall_s on session_checkpoint (client-visible ingest latency)"},
	{"serve.ingest_p90_ms", "ms", "lower", "wall_s on session_checkpoint (client-visible ingest latency)"},
	{"serve.ingest_p99_ms", "ms", "lower", "wall_s on session_checkpoint (spreads too much to bound)"},
	{"serve.query_p50_ms", "ms", "lower", "wall_s on session_checkpoint (pre-drain query latency)"},
	{"serve.query_max_ms", "ms", "lower", "wall_s on session_checkpoint"},
	{"serve.drain_s", "s", "lower", "wall_s on session_checkpoint (backlog the fold still owes)"},
	{"serve.ckpt_bytes_per_event", "B", "lower", "wall_s on session_checkpoint (durable state per event)"},
	{"serve.peak_resident", "count", "lower", "peak_rss_mb on session_checkpoint"},
	{"serve.shed", "count", "lower", "must stay 0"},
	{"serve.faults", "count", "lower", "must stay 0"},
	{"runtime.gc_cpu_s", "s", "lower", "cpu_s on every workload"},
	{"runtime.gc_cycles", "count", "lower", "cpu_s on every workload"},
	{"bench.trace_overhead", "ratio", "lower", "how far the per-layer split can be trusted"},
	{"bench.unattributed_s", "s", "lower", "how far the per-layer split can be trusted"},
}
