package main

import "fmt"

// endToEndNames are the metrics every untraced run reports, on every
// workload. "op" is the workload's own operation: a JoinInto call on
// join-longlived, a /query on serve-query, an /append on serve-ingest.
var endToEndNames = []string{
	"setup_s", "peak_heap_mb", "cpu_ms_per_op", "op_p50_ms", "io_cost_per_op",
}

// perLayerNames are the metrics every traced run reports, on every
// workload: the layer ladder runs on each workload's own inputs.
var perLayerNames = []string{
	"page.encode_ns_per_tuple", "page.decode_ns_per_tuple", "page.decode_allocs_per_tuple", "page.tuples_per_page",
	"disk.pages_per_op", "disk.random_share", "disk.bytes_per_op", "disk.read_ns_per_page", "disk.write_ns_per_page",
	"relation.scan_ns_per_page", "relation.append_ns_per_tuple",
	"sampling.draw_ms", "sampling.quantiles_ms", "sampling.sample_tuples",
	"partition.plan_ms", "partition.candidates", "partition.grace_ms", "partition.grace_pages",
	"partition.cache_pages", "partition.thrash_io",
	"extsort.sort_ms", "extsort.pages",
	"join.phase_sample_ms", "join.phase_partition_ms", "join.phase_join_ms", "join.probe_ns_per_tuple",
	"join.matches_per_probe", "join.sweep_share", "join.rereads_per_read",
	"shard.join_ms", "shard.io_pages_ratio",
	"plan2.run_ms", "plan2.bridge_ns_per_row",
	"query.parse_bind_us",
	"serve.execute_ms", "serve.http_ms", "serve.cache_hit_ratio", "serve.reject_ratio", "serve.delivery_lag_ms",
	"incremental.fold_us_per_tuple", "incremental.delta_rows_per_fold", "incremental.pages_per_fold",
	"csvio.parse_ns_per_row", "csvio.write_ns_per_row",
	"bench.gen_late_p99_ms", "bench.trace_overhead_pct", "bench.unexplained_share",
}

// checkReported fails unless the outcome reports exactly the metric
// set of its mode.
func checkReported(out *outcome, traced bool) error {
	names, got := endToEndNames, out.e2e
	if traced {
		names, got = perLayerNames, out.layers
	}
	for _, n := range names {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("metric %s not reported", n)
		}
	}
	if len(got) != len(names) {
		return fmt.Errorf("%d metrics reported, want exactly %d", len(got), len(names))
	}
	return nil
}
