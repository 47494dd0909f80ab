package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// runSeconds is the window length BENCHMARK.json asks the driver for. With
// three set-ups and the answer check a run takes about 27 s on the baseline
// host; the driver makes 92 of them inside 3420 s.
const runSeconds = 20

// metricDef is one row of the metric catalogue. BENCHMARK.json carries the
// name, unit, direction and (end to end) bound; the layer, the source and
// the predicted effect live here and in README.md, which the `catalog`
// subcommand prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // function, counter or probe the number comes from
	Moves  string  // the end-to-end metric it should move, and on which workload
}

func (d metricDef) layer() string {
	if i := strings.IndexByte(d.Name, '.'); i > 0 {
		return d.Name[:i]
	}
	return "end_to_end"
}

// workloadDefs is the `workloads` list of BENCHMARK.json.
var workloadDefs = []struct{ Name, Why string }{
	{"ssb_star", "closed loop, 13 SSB queries through core.Engine.Run: the paper's regime; colstore scan and core build/probe do the work, mr shuffle and serve almost none"},
	{"hive_shuffle", "closed loop, 4 queries through hive repartition over RCFile: the paper's baseline; mr sort/shuffle/reduce, records codec and hdfs writes dominate, CIF and core probe are bypassed"},
	{"serve_mix", "open loop at 30/s then saturation through serve.Session with SQL templates: result cache, plan fingerprinting, sql and admission are hot; the engine runs only on misses"},
	{"ingest_live", "writer (Session.RollIn, compactor on) beside a closed-loop reader: colstore write path, snapshots, compaction and invalidation carry the load; a read gain bought with a write cost shows here"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every one is emitted,
// and is never 0, on every workload. Times and rates are host-speed
// normalised (refkernel.go); modeled_s_per_query is the paper's currency and
// does not depend on the host at all.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, "median of setupReps complete set-ups (generate, load, cache dimensions, build engines, warm up)", ""},
	{"queries_per_s", "1/s", higher, 0.25, "correct completions per normalised second of slice wall, upper quartile over slices; serve_mix: saturation phase", ""},
	{"query_p50_ms", "ms", lower, 0.25, "all queries of the window (serve_mix: of the saturation phase)", ""},
	{"query_p90_ms", "ms", lower, 0.25, "as query_p50_ms; p90 is the highest percentile with about 10 samples beyond it on the smallest workload (hive_shuffle, about 90 queries)", ""},
	{"flight1_p50_ms", "ms", lower, 0.25, "queries of SSB flight 1 (date join, fact predicate); serve_mix: those that ran a job, saturation phase", ""},
	{"flight2_p50_ms", "ms", lower, 0.25, "queries of SSB flight 2 (part, supplier, date)", ""},
	{"flight3_p50_ms", "ms", lower, 0.25, "queries of SSB flight 3 (customer, supplier, date)", ""},
	{"flight4_p50_ms", "ms", lower, 0.25, "queries of SSB flight 4 (all four dimensions)", ""},
	{"modeled_s_per_query", "s", lower, 0.05, "Cluster.TotalStats().ModelTime summed over the measured slices / their queries (the compactor's charges included, the side table's roll-ins not)", ""},
	{"rollin_rows_per_s", "1/s", higher, 0.25, "acknowledged fact rows per normalised second spent in roll-in calls; ingest_live: Session.RollIn beside the reader, elsewhere Snapshots.RollIn into a side table between slices", ""},
	{"rollin_p50_ms", "ms", lower, 0.25, "latency of one 2048-row roll-in call, as above", ""},
}

// perLayer are the single-layer metrics BENCHMARK.json lists: the ones that
// are defined on every workload. extraLayer below holds the ones that exist
// on some workloads only; they are written to the output file, not to the
// result line.
var perLayer = []metricDef{
	// cluster: the modeled substrate (TotalStats deltas over the window).
	{"cluster.disk_read_mb_per_query", "mb", lower, 0, "TotalStats().DiskReadBytes", "modeled_s_per_query on ssb_star"},
	{"cluster.disk_write_mb_per_query", "mb", lower, 0, "TotalStats().DiskWriteBytes", "modeled_s_per_query on hive_shuffle"},
	{"cluster.net_mb_per_query", "mb", lower, 0, "TotalStats().NetBytes", "modeled_s_per_query on hive_shuffle"},
	{"cluster.mem_peak_mb", "mb", lower, 0, "max Node.MemoryUsed over the nodes, sampled every 5 ms during the window", "none directly; OOM fallback risk"},

	// hdfs
	{"hdfs.local_read_frac", "frac", higher, 0, "Metrics().Snapshot() local / (local+remote) bytes", "flight1_p50_ms on ssb_star"},
	{"hdfs.failovers", "count", lower, 0, "Metrics().Snapshot().Failovers", "must stay 0"},
	{"hdfs.read_mb_per_s", "mb/s", higher, 0, "probe: timed ReadAll of fact column files", "flight1_p50_ms on ssb_star; nothing on serve_mix p50"},
	{"hdfs.write_mb_per_s", "mb/s", higher, 0, "probe: timed WriteFile", "rollin_rows_per_s on ingest_live, setup_s"},

	// colstore
	{"colstore.rows_scanned_frac", "frac", lower, 0, "scan.rows_scanned / fact rows offered", "flights 1-2 on ssb_star"},
	{"colstore.rows_pruned_frac", "frac", higher, 0, "scan.rows_pruned / fact rows offered", "flight1_p50_ms on ssb_star"},
	{"colstore.rows_late_skipped_frac", "frac", higher, 0, "scan.rows_late_skipped / fact rows offered", "flight1_p50_ms on ssb_star"},
	{"colstore.rows_bloom_skipped_frac", "frac", higher, 0, "scan.rows_bloom_skipped / fact rows offered", "flight3_p50_ms on ssb_star"},
	{"colstore.partitions_pruned_frac", "frac", higher, 0, "scan.partitions_pruned / (pruned+scanned)", "flight1_p50_ms on ssb_star, ingest_live"},
	{"colstore.bytes_skipped_mb_per_query", "mb", higher, 0, "scan.bytes_skipped", "modeled_s_per_query on ssb_star"},
	{"colstore.fact_bytes_per_row", "bytes", lower, 0, "hdfs size of the CIF fact table / rows", "modeled_s_per_query, flight1_p50_ms"},
	{"colstore.scan_ns_per_row", "ns", lower, 0, "probe: timed ScanCIFPartition", "flights 1-2 on ssb_star; nothing on hive_shuffle"},
	{"colstore.load_rows_per_s", "1/s", higher, 0, "probe: timed WriteCIFTable", "setup_s"},
	{"colstore.rollin_rows_per_s", "1/s", higher, 0, "rollin_rows_per_s before normalisation: the window's own roll-in calls, no second measurement", "rollin_rows_per_s"},
	{"colstore.compact_rows_per_s", "1/s", higher, 0, "probe: timed Compact of five rolled-in batches, without a session", "queries_per_s on ingest_live"},
	{"colstore.write_amp", "x", lower, 0, "(rows rolled in + rows rewritten by compaction) / rows rolled in", "rollin_rows_per_s on ingest_live"},
	{"colstore.partitions_live", "count", lower, 0, "ListPartitions(fact dir) at the end of the window", "queries_per_s, flight1_p50_ms on ingest_live"},
	{"colstore.list_partitions_us", "us", lower, 0, "probe: timed ListPartitions", "flight1_p50_ms on ingest_live"},
	{"colstore.snapshot_acquire_us", "us", lower, 0, "probe: timed Snapshots.Acquire+Release", "flight1_p50_ms on ingest_live"},

	// core
	{"core.hash_tables_built_per_query", "count", lower, 0, "CLYDESDALE_HASH_TABLES_BUILT", "flight3/4_p50_ms on ssb_star"},
	{"core.hash_reuses_per_query", "count", higher, 0, "CLYDESDALE_HASH_TABLE_REUSES", "flight3/4_p50_ms on ssb_star"},
	{"core.probe_emit_frac", "frac", lower, 0, "CLYDESDALE_PROBE_EMITS / CLYDESDALE_PROBE_ROWS", "none; selectivity check"},
	{"core.code_probes_per_row", "count", higher, 0, "CLYDESDALE_CODE_PROBE_ROWS / CLYDESDALE_PROBE_ROWS: dimension probes answered from a dictionary side table, per probed row", "flight2_p50_ms on ssb_star"},
	{"core.build_customer_ms", "ms", lower, 0, "probe: timed BuildDimHashTable(customer, Q3.1 spec)", "flight3/4_p50_ms on ssb_star; query_p90_ms on serve_mix"},
	{"core.build_supplier_ms", "ms", lower, 0, "probe: timed BuildDimHashTable(supplier, Q3.1 spec)", "flight2-4_p50_ms on ssb_star"},
	{"core.build_part_ms", "ms", lower, 0, "probe: timed BuildDimHashTable(part, Q2.1 spec)", "flight2_p50_ms on ssb_star"},
	{"core.build_date_ms", "ms", lower, 0, "probe: timed BuildDimHashTable(date, Q3.1 spec)", "every flight on ssb_star"},
	{"core.probe_lookup_ns", "ns", lower, 0, "probe: timed DimHashTable.Probe", "flight3/4_p50_ms on ssb_star"},
	{"core.dim_cache_ms", "ms", lower, 0, "probe: timed EnsureCatalogCached after DropDimCached", "setup_s; rollin_p50_ms on ingest_live (dimension batches)"},

	// mr
	{"mr.jobs_per_query", "count", lower, 0, "job results per executed query", "modeled_s_per_query"},
	{"mr.map_tasks_per_query", "count", lower, 0, "MAP_TASKS_LAUNCHED", "modeled_s_per_query (tasks x launch)"},
	{"mr.reduce_tasks_per_query", "count", lower, 0, "REDUCE_TASKS_LAUNCHED", "modeled_s_per_query"},
	{"mr.jvms_started_per_query", "count", lower, 0, "JVMS_STARTED", "modeled_s_per_query (JVMs x start)"},
	{"mr.jvm_reuse_frac", "frac", higher, 0, "JVM_REUSES / (JVM_REUSES + JVMS_STARTED)", "modeled_s_per_query"},
	{"mr.data_local_frac", "frac", higher, 0, "DATA_LOCAL_MAPS / (DATA_LOCAL_MAPS + REMOTE_MAPS)", "cluster.net_mb_per_query"},
	{"mr.map_output_records_per_query", "count", lower, 0, "MAP_OUTPUT_RECORDS", "queries_per_s on hive_shuffle"},
	{"mr.shuffle_mb_per_query", "mb", lower, 0, "SHUFFLE_BYTES: the communication cost (Afrati et al.)", "queries_per_s, modeled_s_per_query on hive_shuffle"},
	{"mr.combine_reduction", "x", higher, 0, "COMBINE_INPUT_RECORDS / COMBINE_OUTPUT_RECORDS", "mr.shuffle_mb_per_query"},
	{"mr.task_retries", "count", lower, 0, "TASK_RETRIES", "must stay 0"},
	{"mr.phase_map_ms", "ms", lower, 0, "JobResult.PhaseTotals()[map] per executed query (thread time)", "every flight on ssb_star and hive_shuffle"},
	{"mr.phase_combine_ms", "ms", lower, 0, "PhaseTotals()[combine]", "queries_per_s on hive_shuffle"},
	{"mr.phase_spill_ms", "ms", lower, 0, "PhaseTotals()[spill]", "queries_per_s on hive_shuffle"},
	{"mr.phase_sort_ms", "ms", lower, 0, "PhaseTotals()[sort]", "queries_per_s on hive_shuffle"},
	{"mr.phase_shuffle_ms", "ms", lower, 0, "PhaseTotals()[shuffle]", "queries_per_s on hive_shuffle"},
	{"mr.phase_reduce_ms", "ms", lower, 0, "PhaseTotals()[reduce]", "queries_per_s on hive_shuffle"},
	{"mr.phase_queue_wait_ms", "ms", lower, 0, "PhaseTotals()[queue-wait]", "query_p90_ms everywhere"},
	{"mr.empty_job_ms", "ms", lower, 0, "probe: timed Submit of a job over one empty split", "flight1_p50_ms on ssb_star; every stage on hive_shuffle"},
	{"mr.shuffle_ns_per_record", "ns", lower, 0, "probe: timed identity job over MemoryInput, 200 k pairs", "queries_per_s and every flight on hive_shuffle; nothing on ssb_star"},

	// records
	{"records.codec_ns_per_record", "ns", lower, 0, "probe: timed AppendRecord + DecodeRecord of fact rows", "hive_shuffle only"},

	// hive
	{"hive.stages_per_query", "count", lower, 0, "len(Report.Stages)", "modeled_s_per_query on hive_shuffle"},
	{"hive.intermediate_rows_per_query", "count", lower, 0, "HIVE_INTERMEDIATE_ROWS: rows written between stages", "queries_per_s, cluster.disk_write_mb_per_query on hive_shuffle"},

	// plan and sql
	{"plan.fingerprint_us", "us", lower, 0, "probe: timed LogicalOf + Decompose + KeyOf + Fingerprint", "query_p50_ms on serve_mix (hit path); nothing on ssb_star"},
	{"plan.lower_us", "us", lower, 0, "probe: timed LogicalOf + Decompose + Linearize (what Engine.Run lowers with)", "flight1_p50_ms everywhere, slightly"},
	{"plan.choose_ms", "ms", lower, 0, "probe: timed Engine.PlanStats + plan.Choose; on no served path yet", "none yet: baseline for the roadmap item that serves it"},
	{"sql.parse_us", "us", lower, 0, "probe: timed ParseStar of the 13 SSB statements", "query_p50_ms on serve_mix"},

	// serve (Stats deltas over the window; 0 where no session exists)
	{"serve.result_hit_frac", "frac", higher, 0, "(ResultHits + ResultSubsumedHits) / lookups", "query_p50_ms, queries_per_s on serve_mix"},
	{"serve.result_subsumed_frac", "frac", higher, 0, "ResultSubsumedHits / lookups", "query_p50_ms on serve_mix"},
	{"serve.table_hit_frac", "frac", higher, 0, "Hits / (Hits + Misses) of the dimension-table cache", "query_p90_ms on serve_mix"},
	{"serve.table_builds", "count", lower, 0, "Stats.Builds", "query_p90_ms on serve_mix"},
	{"serve.table_evictions", "count", lower, 0, "Stats.Evictions", "query_p90_ms on serve_mix"},
	{"serve.resident_mb", "mb", lower, 0, "Stats.ResidentBytes at the end of the window", "cluster.mem_peak_mb"},
	{"serve.rejected_frac", "frac", lower, 0, "Stats.Rejected / (Admitted + Rejected)", "must stay 0"},
	{"serve.peak_concurrent", "count", higher, 0, "Stats.PeakConcurrent", "queries_per_s on serve_mix"},
	{"serve.table_invalidations", "count", lower, 0, "Stats.TableInvalidations", "rollin_p50_ms on ingest_live"},
	{"serve.result_invalidations", "count", lower, 0, "Stats.ResultInvalidations", "query_p50_ms on ingest_live"},
	{"serve.compactions", "count", higher, 0, "Stats.Compactions", "colstore.partitions_live on ingest_live"},
	{"serve.hit_us", "us", lower, 0, "probe: timed Session.Query answered by the result cache", "query_p50_ms on serve_mix"},
	{"serve.dim_rollin_ms", "ms", lower, 0, "probe: timed Session.RollIn of 200 customer rows (five-store invalidation fan-out)", "rollin_p50_ms on ingest_live"},

	// obs
	{"obs.trace_overhead_frac", "frac", lower, 0, "1 - throughput of a traced slice / mean of the untraced slices before and after it, median over the run", "the cost of the program's tracer"},
	{"obs.spans_per_query", "count", lower, 0, "Profile.Spans per profiled query", "obs.trace_overhead_frac"},
	{"obs.profile_cover_frac", "frac", higher, 0, "sum Profile.PhaseWallTotal / benchmark-measured wall of the same queries", "how much of a query EXPLAIN ANALYZE explains"},
	{"obs.phase_hdfs_read_ms", "ms", lower, 0, "Profile.Phase(hdfs-read).Wall per profiled query", "flight1_p50_ms on ssb_star"},

	// bench: the harness itself
	{"bench.host_speed", "x", higher, 0, "refNominalMs / median kernel time: 1 = the baseline host", "explains raw vs normalised"},
	{"bench.host_drift", "x", lower, 0, "90th / 10th percentile of the slice factors; above 1.25 the run is flagged", "trust in this run"},
	{"bench.ref_ms", "ms", lower, 0, "median reference-kernel time", ""},
	{"bench.raw_query_p50_ms", "ms", lower, 0, "query_p50_ms before normalisation", ""},
	{"bench.raw_queries_per_s", "1/s", higher, 0, "queries_per_s before normalisation (the same upper quartile)", ""},
	{"bench.query_p99_ms", "ms", lower, 0, "normalised p99 of all queries (fewer than 10 samples beyond it on small workloads)", ""},
	{"bench.cpu_ms_per_query", "ms", lower, 0, "getrusage user+system summed over the slices / queries", "queries_per_s"},
	{"bench.alloc_mb_per_query", "mb", lower, 0, "runtime.MemStats.TotalAlloc delta summed over the slices / queries", "bench.gc_pause_ms"},
	{"bench.gc_pause_ms", "ms", lower, 0, "runtime.MemStats.PauseTotalNs delta summed over the slices", "query_p90_ms"},
	{"bench.peak_heap_mb", "mb", lower, 0, "max HeapInuse sampled at slice ends", ""},
	{"bench.span_cover_frac", "frac", higher, 0, "share of slice wall covered by the benchmark's own child spans", "trust in the ledger"},
	{"bench.verify_s", "s", lower, 0, "time spent checking answers after the window", ""},
	{"bench.golden_checked", "count", higher, 0, "answers compared with the oracle", ""},
	{"bench.fail_frac", "frac", lower, 0, "failed / attempted (errors, refusals, wrong answers, SLO misses, end-of-slice backlog)", "must stay 0"},
	{"bench.samples", "count", higher, 0, "timed queries in the window: the sample count behind every percentile", ""},
}

// extraLayer are per-layer metrics that exist on some workloads only. They
// go to the output file (and the printed table) under the same naming
// scheme.
var extraLayer = []metricDef{
	{"colstore.rc_bytes_per_row", "bytes", lower, 0, "hdfs size of the RCFile fact table / rows (hive_shuffle)", "modeled_s_per_query on hive_shuffle"},
	{"core.hash_build_ms_per_query", "ms", lower, 0, "CLYDESDALE_HASH_BUILD_NANOS (not hive_shuffle)", "flight3/4_p50_ms on ssb_star"},
	{"core.probe_ns_per_row", "ns", lower, 0, "CLYDESDALE_PROBE_NANOS / CLYDESDALE_PROBE_ROWS (not hive_shuffle)", "flight3/4_p50_ms on ssb_star"},
	{"core.driver_sort_us", "us", lower, 0, "Report.SortTime per executed query (not hive_shuffle)", "flight3_p50_ms"},
	{"core.run_self_ms", "ms", lower, 0, "Engine.Run wall - Report.Job.Duration (ssb_star)", "flight1_p50_ms on ssb_star"},
	{"mr.phase_read_ms", "ms", lower, 0, "PhaseTotals()[read]: CIF readers only", "flight1_p50_ms on ssb_star"},
	{"hive.hash_loads_per_query", "count", lower, 0, "HIVE_MAPJOIN_HASH_LOADS (mapjoin probe, hive_shuffle)", ""},
	{"hive.hash_load_ms_per_query", "ms", lower, 0, "HIVE_MAPJOIN_HASH_LOAD_NANOS (mapjoin probe, hive_shuffle)", ""},
	{"hive.mapjoin_q21_ms", "ms", lower, 0, "probe: timed Q2.1 under hive.MapJoin (hive_shuffle)", ""},
	{"hive.modeled_x_clydesdale", "x", lower, 0, "modeled seconds, Hive repartition / Clydesdale, same four queries and dataset (hive_shuffle): the paper's 5-83x", ""},
	{"hive.host_x_clydesdale", "x", lower, 0, "host seconds, same comparison (hive_shuffle)", ""},
	{"serve.open_p50_us", "us", lower, 0, "serve_mix open loop at 30/s: median latency from due time", "the hit path: sql.parse_us + plan.fingerprint_us"},
	{"serve.open_p90_ms", "ms", lower, 0, "serve_mix open loop at 30/s: 90th percentile from due time", "the miss path of flights 3-4 plus admission wait"},
	{"serve.hit_p50_us", "us", lower, 0, "serve_mix open loop: latency of result-cache hits", "query_p50_ms on serve_mix"},
	{"serve.miss_p50_ms", "ms", lower, 0, "open loop / ingest_live: latency of queries that ran a job", "query_p90_ms on serve_mix"},
	{"serve.flight1_miss_p50_ms", "ms", lower, 0, "as serve.miss_p50_ms, flight 1", ""},
	{"serve.flight2_miss_p50_ms", "ms", lower, 0, "as serve.miss_p50_ms, flight 2", ""},
	{"serve.flight3_miss_p50_ms", "ms", lower, 0, "as serve.miss_p50_ms, flight 3", ""},
	{"serve.flight4_miss_p50_ms", "ms", lower, 0, "as serve.miss_p50_ms, flight 4", ""},
	{"serve.admit_wait_p50_ms", "ms", lower, 0, "serve.admission_wait_ns histogram in Session.Metrics()", "query_p90_ms on serve_mix"},
	{"serve.admit_wait_p90_ms", "ms", lower, 0, "as above", "query_p90_ms on serve_mix"},
	{"obs.phase_prune_ms", "ms", lower, 0, "Profile.Phase(prune).Wall per profiled query (CIF scans)", ""},
	{"obs.phase_dim_cache_ms", "ms", lower, 0, "Profile.Phase(dim-cache).Wall per profiled query (core)", ""},
	{"obs.phase_admission_wait_ms", "ms", lower, 0, "Profile.Phase(admission-wait).Wall per profiled query (sessions)", ""},
	{"bench.send_lag_p90_ms", "ms", lower, 0, "open loop: how late the generator sent, p90 (serve_mix)", "trust in serve_mix latencies"},
	{"bench.backlog_end", "count", lower, 0, "open loop: arrivals still unanswered when a slice closed, its last fifth holding no arrivals, summed (serve_mix); each counts as failed", "must stay 0"},
	{"bench.slo_miss_frac", "frac", lower, 0, "serve_mix: queries over their SLO (flight 1 250 ms, flights 2-4 2 s, normalised)", "must stay 0"},
}

// unitOf finds a metric's unit in the catalogue.
func unitOf(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer, extraLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds measured values by catalogue name.
type metricSet map[string]metricValue

// set records a value; a name missing from the catalogue is a programming
// error caught by the tests.
func (m metricSet) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// pick returns the subset named by defs, failing on a missing one.
func (m metricSet) pick(defs []metricDef) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = v
	}
	return out, nil
}

// printTable writes the metrics as an aligned name / value / unit table.
func (m metricSet) printTable(w io.Writer) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printCatalog writes the catalogue as the markdown table README.md holds.
func printCatalog(w io.Writer) {
	section := func(title string, defs []metricDef, bound bool) {
		fmt.Fprintf(w, "\n### %s\n\n", title)
		if bound {
			fmt.Fprintln(w, "| metric | unit | better | bound | source |")
			fmt.Fprintln(w, "|---|---|---|---|---|")
			for _, d := range defs {
				fmt.Fprintf(w, "| `%s` | %s | %s | %.2f | %s |\n", d.Name, d.Unit, d.Better, d.Bound, d.Source)
			}
			return
		}
		fmt.Fprintln(w, "| metric | unit | layer | source | should move |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
		for _, d := range defs {
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.layer(), d.Source, d.Moves)
		}
	}
	section("End to end", endToEnd, true)
	section("Per layer (in BENCHMARK.json, measured on every workload)", perLayer, false)
	section("Per layer, some workloads only (output file)", extraLayer, false)
}

// printBenchmarkJSON writes BENCHMARK.json from the catalogue, so the file
// and the harness cannot drift apart (TestBenchmarkJSONMatchesCatalogue
// checks the copy at the repository root).
func printBenchmarkJSON(w io.Writer) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloadDefs {
		out.Workloads = append(out.Workloads, workloadJSON{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2eJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
}
