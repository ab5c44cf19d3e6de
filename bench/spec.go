package main

// The fixed text of the benchmark: schema, workloads, and metric tables.
// BENCHMARK.json at the repository root repeats the workload and metric
// names (bench_test.go keeps the two in step); everything else about a
// metric — definition, layer, which end-to-end number it should move —
// lives here and in README.md.

// The independent star schema every workload runs on. Each DIMk key
// determines its dependents, FACT carries no dependency, so every write
// takes the guard fast path and every relation has a partition key.
const (
	schemaSrc = "FACT(A,B,C,D); DIM1(A,E,F,G,H,I); DIM2(B,J,K,L,M,N); DIM3(C,O,P,Q,R,S); DIM4(D,T,U,V,W,X,Y)"
	fdSrc     = "A -> E F G H I; B -> J K L M N; C -> O P Q R S; D -> T U V W X Y"
)

// relNames indexes relations the way op.rel does: 0 is FACT, k is DIMk.
var relNames = [5]string{"FACT", "DIM1", "DIM2", "DIM3", "DIM4"}

// dimAttrs[k] lists DIM(k+1)'s attributes, key first.
var dimAttrs = [4][]string{
	{"A", "E", "F", "G", "H", "I"},
	{"B", "J", "K", "L", "M", "N"},
	{"C", "O", "P", "Q", "R", "S"},
	{"D", "T", "U", "V", "W", "X", "Y"},
}

// The read state is fixed here and stays fixed when windows get faster:
// at this size a local window is ~1 ms, a join window ~150 ms, so a 20 s
// run with one reader collects about a hundred join samples.
const (
	preloadFact = 5000
	preloadDim  = 1000 // per dimension; also the Zipf key space FACT draws from
	zipfS       = 1.1
	batchOps    = 64
)

// workloadSpec names one traffic mix and records why it exists.
type workloadSpec struct {
	name string
	why  string
}

var workloads = []workloadSpec{
	{"ingest", "fsync-on batch writes, checkpoint, SIGKILL and recovery: decode, intern, guard and WAL do the work; query and router none, so read-side and router changes must not move it"},
	{"readonly", "windows over a state that never changes: the cached snapshot and plans always hit, so plan/eval/encode do the work; the bypass for versioned snapshots, the target for evaluator work"},
	{"mixed", "open-loop fsync writes beside a closed-loop reader: every write invalidates the snapshot, so reads pay the full-state clone under all stripe locks; versioned snapshots must move this one"},
	{"routed", "router in front of two in-memory shards, a write phase then a read phase: decode/re-encode/forward and full-relation scatter-gather dominate here and nowhere else"},
}

// metricSpec is one named number. better is "higher" or "lower"; bound is
// the share of the reference value by which an end-to-end metric may get
// worse before -compare (and the driver) calls it a regression, 0 for
// per-layer metrics, which are explanations, not gates.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the numbers a client of indepd sees, defined on every
// workload (the driver requires each workload to report each of them):
//
//	write_*   the workload's batch writes — the measured phase on ingest,
//	          mixed and routed (phase A), the preload on readonly
//	window_*  the workload's window reads — the measured phase on readonly,
//	          mixed and routed (phase B), a short read phase on the
//	          preloaded state before the writers start on ingest
//
// Every bound is 0.25, the widest the driver allows, and that is a
// measurement, not a default: on this 2-vCPU sandbox the spread of ten runs
// (quartile distance over median) was 5–20 % for every one of these in calm
// periods and far more while the host stole the vCPUs (RESULTS.md). A bound
// inside the spread would only reject changes at random; a change that
// claims a gain has to show it in paired runs anyway.
//
// The workload-specific numbers of the issue (p90/p99 tails, recovery rate,
// WAL bytes per tuple, peak RSS) are in extraMetrics: they are printed and
// compared by -repeat/-compare but are not defined on every workload, so
// they cannot be driver-gated end-to-end metrics. README.md has the table.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"write_tuples_per_s", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"window_qps", "1/s", "higher", 0.25},
	{"window_local_p50_ms", "ms", "lower", 0.25},
	{"window_join_p50_ms", "ms", "lower", 0.25},
}

// extraMetrics are end-to-end numbers that exist on some workloads only.
// A workload reports the ones it can support with enough samples.
var extraMetrics = []metricSpec{
	{"write_p99_ms", "ms", "lower", 0.25},
	{"window_local_p90_ms", "ms", "lower", 0.25},
	{"window_join_p90_ms", "ms", "lower", 0.25},
	{"recovery_tuples_per_s", "1/s", "higher", 0.25},
	{"wal_bytes_per_tuple", "B", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"checkpoint_stall_ms", "ms", "lower", 0}, // one sample a run: printed, never gated
	{"generator_lateness_p99_ms", "ms", "lower", 0},
}

// perLayer is the traced run's table; layers are this repository's modules.
var perLayer = []metricSpec{
	{"binwire.encode_us_per_batch", "us", "lower", 0},
	{"binwire.decode_us_per_batch", "us", "lower", 0},
	{"binwire.bytes_per_tuple", "B", "lower", 0},
	{"binwire.window_encode_ms", "ms", "lower", 0},
	{"engine.intern_us_per_batch", "us", "lower", 0},
	{"engine.insert_batch_us", "us", "lower", 0},
	{"engine.delete_us_per_op", "us", "lower", 0},
	{"engine.snapshot_cut_ms", "ms", "lower", 0},
	{"engine.snapshot_reuse_ratio", "ratio", "higher", 0},
	{"maintenance.guard_insert_ns_per_tuple", "ns", "lower", 0},
	{"maintenance.guard_reject_ns_per_tuple", "ns", "lower", 0},
	{"maintenance.guard_delete_ns_per_tuple", "ns", "lower", 0},
	{"chase.maintainer_insert_us_per_tuple", "us", "lower", 0},
	{"wal.append_wait_us_per_batch", "us", "lower", 0},
	{"wal.fsyncs_per_batch", "ratio", "lower", 0},
	{"wal.records_per_group", "ratio", "higher", 0},
	{"wal.bytes_per_tuple", "B", "lower", 0},
	{"wal.checkpoint_cut_ms", "ms", "lower", 0},
	{"wal.checkpoint_bytes_per_tuple", "B", "lower", 0},
	{"wal.checkpoint_stall_ms", "ms", "lower", 0},
	{"wal.replay_tuples_per_s", "1/s", "higher", 0},
	{"query.plan_us", "us", "lower", 0},
	{"query.plan_hit_ratio", "ratio", "higher", 0},
	{"query.eval_local_ms", "ms", "lower", 0},
	{"query.eval_join_ms", "ms", "lower", 0},
	{"query.render_ms", "ms", "lower", 0},
	{"query.rows_scanned_per_row_returned", "ratio", "lower", 0},
	{"cluster.route_us_per_batch", "us", "lower", 0},
	{"cluster.window_gather_ms", "ms", "lower", 0},
	{"cluster.bytes_gathered_per_row_returned", "B", "lower", 0},
	{"cluster.owner_ns_per_tuple", "ns", "lower", 0},
	{"indepd.cpu_us_per_tuple", "us", "lower", 0},
	{"indepd.cpu_ms_per_window", "ms", "lower", 0},
	{"indepd.http_overhead_write_us", "us", "lower", 0},
	{"indepd.http_overhead_window_us", "us", "lower", 0},
	{"indepd.rss_peak_mb", "MB", "lower", 0},
	{"bench.traced_overhead_ratio", "ratio", "higher", 0},
	{"bench.generator_lateness_ms_p99", "ms", "lower", 0},
}

func findMetric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, extraMetrics, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}
