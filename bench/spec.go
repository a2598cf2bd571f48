package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The benchmark's names: the workloads, the end-to-end metrics every
// workload reports, and the per-layer metrics every traced run reports.
// BENCHMARK.json at the repo root lists exactly these names; checkSpec
// holds the two in agreement, at every start of the program and in
// bench_test.go.

// workloadSpec names one workload and the reason it exists (printed
// above its numbers).
type workloadSpec struct {
	name string
	why  string
	run  func(*runConfig) (*outcome, error)
}

var workloads = []workloadSpec{
	{"cold_uniform", "paper Fig. 12: fresh indexes answer 1024 uniform 1% queries; cracker partitioning, piece-latch conflicts and shard first-touch do the work", runColdUniform},
	{"cold_seq", "sequential 0.05% sweep on fresh indexes, the stochastic-cracking adversary: every query re-cracks the big remaining piece and clients collide on it", runColdSeq},
	{"warm_point", "converged index, narrow 0.001% queries: shard routing, piece lookup, read latches and always-on metrics dominate; cracker and kernel do nothing", runWarmPoint},
	{"warm_scan", "converged index, 20% Sum queries: the kernel is memory-bandwidth bound and index overheads are noise", runWarmScan},
	{"mixed_rw", "80% narrow reads, 10% inserts, 10% deletes inside the queried domain: epoch chain reads, ingest routing, group-apply and shard rebuild-publish", runMixedRW},
	{"durable_rw", "the mixed_rw stream on a durable store (every write logged, group fsync every 256, one quiesced checkpoint), killed mid-write and recovered: the gap to mixed_rw is the wal and durable layers", runDurableRW},
	{"served_open", "converged index behind the TCP front, open loop at a fixed rate over pipelined connections: framing, batch window, admission and wakeups dominate", runServedOpen},
}

// metricSpec names one metric. bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which carry none); moves names the end-to-end metric and
// workload a per-layer metric is expected to move (BENCHMARK.json has
// no key for it; a traced run prints it beside the number).
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// End-to-end metrics. Every workload reports every one of them, none
// is ever zero, and each is steady enough run to run to carry a bound.
// What applies to a single workload (cold total, first query, write
// latency, recovery time, WAL bytes per write, highest passing rate),
// what can be zero (fail ratio) and what is unsteady (read p99) is a
// per-layer metric below.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_row", unit: "B/row", better: "lower", bound: 0.25},
}

// Per-layer metrics: ladder rungs (each layer's exported functions on
// fixed inputs, the same in every traced run) and workload-scoped
// spans and counters (zero on a workload that never enters the layer).
var perLayer = []metricSpec{
	// kernel rungs, on the workload's full column.
	{name: "kernel.count_range_gbps", unit: "GB/s", better: "higher", moves: "ops_per_s, read_p50_us on warm_scan; nothing on warm_point"},
	{name: "kernel.sum_range_gbps", unit: "GB/s", better: "higher", moves: "ops_per_s, read_p50_us on warm_scan"},
	{name: "kernel.sum_gbps", unit: "GB/s", better: "higher", moves: "ops_per_s on warm_scan"},
	{name: "kernel.memcpy_gbps", unit: "GB/s", better: "higher", moves: "none: the bandwidth reference"},
	{name: "kernel.workload_gbps", unit: "GB/s", better: "higher", moves: "ops_per_s on warm_scan (bytes the reads aggregated per second)"},

	// cracker rungs, on a 1 Mi-row array.
	{name: "cracker.new_mrows_s", unit: "Mrows/s", better: "higher", moves: "setup_s everywhere; crackindex.first_query_ms"},
	{name: "cracker.crack_in_two_mrows_s", unit: "Mrows/s", better: "higher", moves: "ops_per_s, crackindex.first_query_ms on cold_uniform, cold_seq"},
	{name: "cracker.crack_in_three_mrows_s", unit: "Mrows/s", better: "higher", moves: "ops_per_s, crackindex.first_query_ms on cold_uniform, cold_seq"},
	{name: "cracker.sort_mrows_s", unit: "Mrows/s", better: "higher", moves: "sort.cold_total_ms"},

	// latch rungs.
	{name: "latch.lock_unlock_ns", unit: "ns", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq"},
	{name: "latch.rlock_runlock_ns", unit: "ns", better: "lower", moves: "ops_per_s, read_p90_us on warm_point"},
	{name: "latch.contended_handoff_ns", unit: "ns", better: "lower", moves: "ops_per_s on cold_seq (collisions)"},

	// crackindex rungs, on one un-sharded 1 Mi-row index.
	{name: "crackindex.cold_first_query_ms", unit: "ms", better: "lower", moves: "crackindex.first_query_ms on cold_uniform, cold_seq"},
	{name: "crackindex.converged_count_ns", unit: "ns", better: "lower", moves: "read_p50_us on warm_point"},
	{name: "crackindex.converged_sum_ns", unit: "ns", better: "lower", moves: "read_p50_us on warm_point"},
	{name: "crackindex.pieces_after_1024", unit: "count", better: "higher", moves: "none: convergence reference"},
	// crackindex spans of the workload (Result.Wait/Refine/Conflicts).
	{name: "crackindex.cold_total_ms", unit: "ms", better: "lower", moves: "is 1024/ops_per_s on cold_uniform, cold_seq (paper Fig. 12)"},
	{name: "crackindex.first_query_ms", unit: "ms", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq: query 0 on a fresh index, the initialization cost"},
	{name: "crackindex.wait_us_sum", unit: "us", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq"},
	{name: "crackindex.refine_us_sum", unit: "us", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq"},
	{name: "crackindex.conflicts", unit: "count", better: "lower", moves: "ops_per_s on cold_seq; read_p90_us on warm_point"},
	{name: "crackindex.wait_share", unit: "ratio", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq (Fig. 15)"},
	{name: "crackindex.refine_share", unit: "ratio", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq (Fig. 15)"},
	{name: "crackindex.conflicts_first256", unit: "count", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq"},
	{name: "crackindex.conflicts_last256", unit: "count", better: "lower", moves: "none: conflicts must decay (paper claim c)"},

	// shard rungs and workload counters.
	{name: "shard.new_ms", unit: "ms", better: "lower", moves: "setup_s everywhere"},
	{name: "shard.count_ns.s1", unit: "ns", better: "lower", moves: "read_p50_us on warm_point"},
	{name: "shard.count_ns.s4", unit: "ns", better: "lower", moves: "ops_per_s on warm_point (fan-out overhead is s4 - s1)"},
	{name: "shard.critical_us_p50", unit: "us", better: "lower", moves: "read_p50_us on the workload"},
	{name: "shard.pieces_total", unit: "count", better: "higher", moves: "heap_bytes_per_row"},
	{name: "shard.cracks_total", unit: "count", better: "lower", moves: "ops_per_s on cold_uniform, cold_seq"},

	// epoch rungs and workload spans (Result.Epochs).
	{name: "epoch.insert_ns", unit: "ns", better: "lower", moves: "ingest.write_p50_us on mixed_rw"},
	{name: "epoch.count_adj_ns.d0", unit: "ns", better: "lower", moves: "read_p50_us on warm_point"},
	{name: "epoch.count_adj_ns.d4", unit: "ns", better: "lower", moves: "read_p50_us on mixed_rw, durable_rw"},
	{name: "epoch.count_adj_ns.d16", unit: "ns", better: "lower", moves: "read_p90_us on mixed_rw, durable_rw"},
	{name: "epoch.depth_p50", unit: "count", better: "lower", moves: "read_p50_us on mixed_rw, durable_rw; zero on read-only workloads"},
	{name: "epoch.depth_p99", unit: "count", better: "lower", moves: "read_p90_us on mixed_rw, durable_rw; zero on read-only workloads"},

	// ingest rungs and workload counters.
	{name: "ingest.insert_ns", unit: "ns", better: "lower", moves: "ingest.write_p50_us, ops_per_s on mixed_rw"},
	{name: "ingest.apply_batch_ns_per_op", unit: "ns", better: "lower", moves: "ops_per_s on mixed_rw"},
	{name: "ingest.group_apply_ms", unit: "ms", better: "lower", moves: "read_p90_us, ingest.write_p99_us on mixed_rw"},
	{name: "ingest.write_p50_us", unit: "us", better: "lower", moves: "ops_per_s on mixed_rw, durable_rw"},
	{name: "ingest.write_p99_us", unit: "us", better: "lower", moves: "ops_per_s on mixed_rw, durable_rw"},
	{name: "ingest.epoch_seals", unit: "count", better: "lower", moves: "read_p90_us on mixed_rw"},
	{name: "ingest.applied", unit: "count", better: "lower", moves: "read_p90_us on mixed_rw"},
	{name: "ingest.splits", unit: "count", better: "lower", moves: "read_p90_us on mixed_rw"},
	{name: "ingest.merges", unit: "count", better: "lower", moves: "read_p90_us on mixed_rw"},

	// wal rungs and workload counters.
	{name: "wal.encode_ns", unit: "ns", better: "lower", moves: "ingest.write_p50_us on durable_rw"},
	{name: "wal.append_nosync_ns", unit: "ns", better: "lower", moves: "ingest.write_p50_us on durable_rw"},
	{name: "wal.append_sync_us", unit: "us", better: "lower", moves: "ingest.write_p99_us on durable_rw"},
	{name: "wal.fsync_us_p50", unit: "us", better: "lower", moves: "ingest.write_p99_us, ops_per_s on durable_rw"},
	{name: "wal.recover_mb_s", unit: "MB/s", better: "higher", moves: "durable.recovery_ms on durable_rw"},
	{name: "wal.group_syncs", unit: "count", better: "lower", moves: "ops_per_s on durable_rw; zero on mixed_rw"},
	{name: "wal.logged_writes", unit: "count", better: "lower", moves: "wal.bytes_per_write on durable_rw"},
	{name: "wal.bytes_per_write", unit: "B/write", better: "lower", moves: "ops_per_s on durable_rw (log bytes the timed phase appended per logged write: framing, seals and applies included)"},

	// durable rungs (a 1 Mi-row store) and the durable_rw crash image.
	{name: "durable.open_fresh_ms", unit: "ms", better: "lower", moves: "setup_s on durable_rw"},
	{name: "durable.checkpoint_ms", unit: "ms", better: "lower", moves: "ingest.write_p99_us on durable_rw"},
	{name: "durable.recovery.checkpoint_load_ms", unit: "ms", better: "lower", moves: "durable.recovery_ms on durable_rw"},
	{name: "durable.recovery.wal_scan_ms", unit: "ms", better: "lower", moves: "durable.recovery_ms on durable_rw"},
	{name: "durable.recovery.replay_ms", unit: "ms", better: "lower", moves: "durable.recovery_ms on durable_rw"},
	{name: "durable.recovery_ms", unit: "ms", better: "lower", moves: "none: Open on the durable_rw crash image (a checkpoint plus the tail logged after it), median of 3 copies"},
	{name: "durable.checkpoints", unit: "count", better: "lower", moves: "durable.recovery_ms on durable_rw (1: the one the run takes itself; automatic ones are off)"},
	{name: "durable.lost_acked_writes", unit: "count", better: "lower", moves: "bench.fail_ratio on durable_rw"},

	// serve rungs and the served_open rate ladder.
	{name: "serve.frame_encode_ns", unit: "ns", better: "lower", moves: "read_p50_us on served_open"},
	{name: "serve.frame_decode_ns", unit: "ns", better: "lower", moves: "read_p50_us on served_open"},
	{name: "serve.rtt_p50_us.window_default", unit: "us", better: "lower", moves: "read_p50_us on served_open"},
	{name: "serve.rtt_p50_us.window_off", unit: "us", better: "lower", moves: "read_p50_us on served_open"},
	{name: "serve.wire_overhead_us_p50", unit: "us", better: "lower", moves: "read_p50_us on served_open"},
	{name: "serve.p99_us.r10k", unit: "us", better: "lower", moves: "read_p90_us on served_open"},
	{name: "serve.p99_us.r20k", unit: "us", better: "lower", moves: "serve.max_rate_ok"},
	{name: "serve.p99_us.r40k", unit: "us", better: "lower", moves: "serve.max_rate_ok"},
	{name: "serve.p99_us.r80k", unit: "us", better: "lower", moves: "serve.max_rate_ok"},
	{name: "serve.max_rate_ok", unit: "1/s", better: "higher", moves: "ops_per_s on served_open"},
	{name: "serve.gen_late_p99_us", unit: "us", better: "lower", moves: "none: generator honesty"},
	{name: "serve.coalesce_rate", unit: "ratio", better: "higher", moves: "ops_per_s on served_open"},
	{name: "serve.batch_p50", unit: "count", better: "higher", moves: "ops_per_s on served_open"},
	{name: "serve.rejected", unit: "count", better: "lower", moves: "bench.fail_ratio on served_open"},

	// The cold_uniform stream on the other methods (cold_uniform only).
	{name: "amerge.cold_total_ms", unit: "ms", better: "lower", moves: "none: settles the amerge-slower-than-scan anomaly"},
	{name: "hybrid.cold_total_ms", unit: "ms", better: "lower", moves: "none: settles the hybrid-slower-than-scan anomaly"},
	{name: "sort.cold_total_ms", unit: "ms", better: "lower", moves: "none: full-index baseline"},
	{name: "scan.cold_total_ms", unit: "ms", better: "lower", moves: "none: no-index baseline"},

	{name: "metrics.sampled_tracing_overhead_pct", unit: "%", better: "lower", moves: "ops_per_s on warm_point"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "none: cost of the bench's own span recorder"},
	{name: "bench.read_p99_us", unit: "us", better: "lower", moves: "none: the tail beyond read_p90_us, too unsteady on the write workloads to carry a bound"},
	{name: "bench.fail_ratio", unit: "ratio", better: "lower", moves: "none: failed / attempted"},
}

// checkSpec compares BENCHMARK.json with the lists above and with the
// limits on names and counts, and returns one line per disagreement.
func checkSpec(raw []byte) []string {
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return []string{err.Error()}
	}
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if len(bm.Workloads) > 8 || len(bm.EndToEnd) > 16 || len(bm.PerLayer) > 128 {
		badf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128", len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !valid.MatchString(n) {
			badf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			badf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bm.Workloads) != len(workloads) {
		badf("BENCHMARK.json has %d workloads, spec.go %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads[:min(len(bm.Workloads), len(workloads))] {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			badf("workload %d: BENCHMARK.json %q (%q), spec.go %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	metrics := func(kind string, got []jsonMetric, want []metricSpec) {
		if len(got) != len(want) {
			badf("BENCHMARK.json has %d %s metrics, spec.go %d", len(got), kind, len(want))
		}
		for i, m := range got[:min(len(got), len(want))] {
			name(m.Name)
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better || m.Bound != w.bound {
				badf("%s metric %d: BENCHMARK.json %+v, spec.go %s %s %s %v", kind, i, m, w.name, w.unit, w.better, w.bound)
			}
		}
	}
	metrics("end-to-end", bm.EndToEnd, endToEnd)
	metrics("per-layer", bm.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			badf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	for _, m := range perLayer {
		if m.moves == "" {
			badf("%s: names nothing it should move", m.name)
		}
	}
	return bad
}
