package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"clydesdale/internal/cluster"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median, so
	// one slow set-up (a GC cycle, a noisy neighbour) does not decide it.
	setupReps = 3
	// throughputPercentile is the percentile over a run's slices that
	// queries_per_s reports: the upper quartile, not the median. The host's
	// interference only ever slows a slice down, so the faster slices are
	// nearer to what the code does on a quiet host: over three sets of ten
	// runs per workload the upper quartile spread by 1.3-8.1 % of its median
	// between runs where the median spread by 2.2-14.5 % (README.md).
	throughputPercentile = 75
	// driftLimit flags a run during which the host's speed moved too much
	// for one normalisation factor per slice to be trusted.
	driftLimit = 1.25
)

// report is one run's output file.
type report struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Host      hostInfo  `json:"host"`
	Dataset   dataset   `json:"dataset"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Flagged   []string  `json:"flagged,omitempty"`
	Metrics   metricSet `json:"metrics"` // what the result line carries
	Other     metricSet `json:"other"`   // everything else that was measured
	// Samples states the sample count behind every timing.
	Samples map[string]int `json:"samples"`
	// SelfMs is the traced run's ledger: per span name, the summed duration
	// minus what child spans cover.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
	Slices []sliceRecord      `json:"slices"`
}

type dataset struct {
	FactRows     int64 `json:"fact_rows"`
	CustomerRows int64 `json:"customer_rows"`
	SupplierRows int64 `json:"supplier_rows"`
	PartRows     int64 `json:"part_rows"`
	DateRows     int64 `json:"date_rows"`
}

type sliceRecord struct {
	Phase     string  `json:"phase"`
	Traced    bool    `json:"traced,omitempty"`
	Spare     bool    `json:"spare,omitempty"` // past the measured part of the window
	WallMs    float64 `json:"wall_ms"`
	RefBefore float64 `json:"ref_before_ms"`
	RefMs     float64 `json:"ref_after_ms"`
	Factor    float64 `json:"factor"`
	Queries   int     `json:"queries"`
	RollIns   int     `json:"rollins"`
	Backlog   int     `json:"backlog,omitempty"`
	// Raw holds every sample's raw duration, so that a later analysis can
	// normalise differently without rerunning.
	Raw []rawSample `json:"raw"`
}

type rawSample struct {
	Kind   string  `json:"kind"`
	Flight int     `json:"flight,omitempty"`
	Ms     float64 `json:"ms"`
	Hit    bool    `json:"hit,omitempty"`
}

// value looks a metric up wherever the run put it.
func (r *report) value(name string) float64 {
	if m, ok := r.Metrics[name]; ok {
		return m.Value
	}
	return r.Other[name].Value
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ssb_star":
		return &ssbStar{}, nil
	case "hive_shuffle":
		return &hiveShuffle{}, nil
	case "serve_mix":
		return &serveMix{}, nil
	case "ingest_live":
		return &ingestLive{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have ssb_star, hive_shuffle, serve_mix, ingest_live)", name)
}

// run executes one benchmark run and returns its report.
func run(cfg runConfig) (*report, error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.shrink < 1 {
		cfg.shrink = 1
	}
	h := &harness{cfg: cfg, kernel: newRefKernel(), log: newSpanLog(cfg.trace)}
	h.kernel.chunks = h.kernel.chunks[:refChunks/int(cfg.shrink)]
	h.kernel.run() // first run pages the kernel's data in; not a sample

	// Set-up, setupReps times. Each is normalised by a kernel sample taken
	// right after it; the last build is the one the window runs on.
	var setups []float64
	var ref float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			wl.close()
			runtime.GC()
		}
		sp := h.log.begin("setup", 0, 0)
		t0 := time.Now()
		if err := wl.setup(h); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		h.log.end(sp)
		ref = h.sampleKernel()
		setups = append(setups, d.Seconds()*normFactor(ref, ref))
	}
	defer wl.close()
	e := wl.environment()

	var side *sideWriter
	if cfg.workload != "ingest_live" {
		if side, err = newSideWriter(e); err != nil {
			return nil, err
		}
	}

	// The measured window. Host CPU, allocation and GC pauses are summed
	// over the slices only: between them run the reference kernel and its
	// forced collection, which are the benchmark's cost, not the program's.
	var (
		before, after runtime.MemStats
		cpu           time.Duration
		allocBytes    uint64
		gcPauseNs     uint64
		peakHeap      uint64
		model         cluster.Stats // summed over the slices: the side writer's I/O is not the workload's
	)
	hdfs0 := e.fs.Metrics().Snapshot()
	stopSampler := func() {}
	if cfg.trace {
		stopSampler = h.sampleMemory(e)
	}
	windowStart := time.Now()
	window := time.Duration(cfg.seconds * float64(time.Second))
	// The window also stays open until one slice has fed queries_per_s:
	// serve_mix's two open-loop slices can outlast a very short window (the
	// smoke tests on a loaded machine).
	measured := false
	for i := 0; time.Since(windowStart) < window || !measured; i++ {
		sl := &slice{refBefore: ref}
		// In a traced run the program's tracer is on in every other slice,
		// so that its cost is measured inside one process on one seed.
		sl.traced = cfg.trace && i%2 == 0
		e.setTracing(sl.traced)
		sl.span = h.log.begin("slice", 0, 0)
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		model0 := e.cl.TotalStats()
		t0 := time.Now()
		err := wl.slice(h, sl)
		if sl.wall == 0 { // a workload whose slice ends with clean-up sets its own
			sl.wall = time.Since(t0)
		}
		model1 := e.cl.TotalStats()
		cpu1 := cpuTime()
		runtime.ReadMemStats(&after)
		h.log.end(sl.span)
		if err != nil {
			return nil, fmt.Errorf("slice %d: %w", i, err)
		}
		if !sl.spare {
			cpu += cpu1 - cpu0
			model.ModelTime += model1.ModelTime - model0.ModelTime
			model.DiskReadBytes += model1.DiskReadBytes - model0.DiskReadBytes
			model.DiskWriteBytes += model1.DiskWriteBytes - model0.DiskWriteBytes
			model.NetBytes += model1.NetBytes - model0.NetBytes
			allocBytes += after.TotalAlloc - before.TotalAlloc
			gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
			peakHeap = max(peakHeap, after.HeapInuse)
		}
		e.setTracing(false)
		ref = h.sampleKernel()
		sl.refAfter = ref
		if side != nil {
			ss, err := side.rollIn(h, 0)
			if err != nil {
				return nil, err
			}
			sl.samples = append(sl.samples, ss...)
		}
		h.slices = append(h.slices, sl)
		measured = measured || sl.throughput && !sl.spare
	}
	stopSampler()
	hdfs1 := e.fs.Metrics().Snapshot()

	all := make(metricSet)
	queries := endToEndMetrics(h, all, median(setups))
	if queries == 0 {
		return nil, fmt.Errorf("the window of %.1f s completed no query", cfg.seconds)
	}
	perQuery := func(v float64) float64 { return v / float64(queries) }
	all.set("modeled_s_per_query", perQuery(model.ModelTime.Seconds()))

	// The ledger: in a traced run only. Probes first (they perturb caches),
	// then verification.
	if cfg.trace {
		const mb = 1 << 20
		all.set("cluster.disk_read_mb_per_query", perQuery(float64(model.DiskReadBytes)/mb))
		all.set("cluster.disk_write_mb_per_query", perQuery(float64(model.DiskWriteBytes)/mb))
		all.set("cluster.net_mb_per_query", perQuery(float64(model.NetBytes)/mb))
		local := float64(hdfs1.LocalBytesRead - hdfs0.LocalBytesRead)
		remote := float64(hdfs1.RemoteBytesRead - hdfs0.RemoteBytesRead)
		all.set("hdfs.local_read_frac", ratio(local, local+remote))
		all.set("hdfs.failovers", float64(hdfs1.Failovers-hdfs0.Failovers))
		all.set("bench.cpu_ms_per_query", perQuery(ms(cpu)))
		all.set("bench.alloc_mb_per_query", perQuery(float64(allocBytes)/mb))
		all.set("bench.gc_pause_ms", float64(gcPauseNs)/1e6)
		all.set("bench.peak_heap_mb", float64(peakHeap)/mb)
		ledgerMetrics(h, all, e)
		if err := wl.ledger(h, all); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		if err := runProbes(h, e, all); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	// Answer checking, outside the window.
	if cfg.tamper != nil {
		cfg.tamper(wl)
	}
	vs := h.log.begin("verify", 0, 0)
	t0 := time.Now()
	checked, wrong, err := wl.verify(h)
	h.log.end(vs)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	all.set("bench.verify_s", time.Since(t0).Seconds())
	all.set("bench.golden_checked", float64(checked))

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostInfo{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitID(), LoadThreads: loadThreads(cfg.workload),
		},
		Dataset: dataset{
			FactRows: e.gen.LineorderRows(), CustomerRows: e.gen.CustomerRows(), SupplierRows: e.gen.SupplierRows(),
			PartRows: e.gen.PartRows(), DateRows: e.gen.DateRows(),
		},
		Samples: make(map[string]int),
	}
	for _, sl := range h.slices {
		rec := sliceRecord{Phase: sl.phase, Traced: sl.traced, Spare: sl.spare, WallMs: ms(sl.wall), RefBefore: sl.refBefore, RefMs: sl.refAfter, Factor: sl.factor(), Backlog: sl.backlog}
		attempted, failed := sl.tally()
		rep.Attempted += attempted
		rep.Failed += failed
		for _, s := range sl.samples {
			rec.Raw = append(rec.Raw, rawSample{Kind: s.kind, Flight: s.flight, Ms: ms(s.raw), Hit: s.hit})
			if s.kind == "query" {
				rec.Queries++
			} else {
				rec.RollIns++
			}
		}
		rep.Slices = append(rep.Slices, rec)
	}
	rep.Failed += wrong
	rep.Correct = wrong == 0
	all.set("bench.fail_frac", ratio(float64(rep.Failed), float64(rep.Attempted)))
	sampleCounts(h, rep.Samples)
	if cfg.trace {
		rep.SelfMs = make(map[string]float64)
		for name, d := range selfTimes(h.log.snapshot()) {
			rep.SelfMs[name] = ms(d)
		}
	}
	if d := all["bench.host_drift"].Value; d > driftLimit {
		rep.Flagged = append(rep.Flagged, fmt.Sprintf("bench.host_drift %.2f > %.2f: host speed moved during the run", d, driftLimit))
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if rep.Metrics, err = all.pick(defs); err != nil {
		return nil, err
	}
	rep.Other = make(metricSet)
	for name, v := range all {
		if _, emitted := rep.Metrics[name]; !emitted {
			rep.Other[name] = v
		}
	}
	if err := writeOutputs(cfg, rep, h); err != nil {
		return nil, err
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// loadThreads is how many goroutines of the benchmark offer load at once.
func loadThreads(workload string) int {
	switch workload {
	case "serve_mix", "ingest_live":
		return 2
	}
	return 1
}

// endToEndMetrics computes the normalised end-to-end metrics (and their raw
// twins) from the window's slices into m. It returns the number of queries
// completed in the window.
func endToEndMetrics(h *harness, m metricSet, setupS float64) int {
	var (
		lat, rawLat       []float64    // normalised / raw query latency, ms
		byFlight          [5][]float64 // normalised, per flight
		qps, rawQPS       []float64    // per slice
		rollLat           []float64
		rollRows, rollSec float64
		rawRollSec        float64
		factors, refs     []float64
		completed         int
	)
	for _, sl := range h.slices {
		f := sl.factor()
		factors = append(factors, f)
		refs = append(refs, sl.refAfter)
		if sl.spare {
			continue
		}
		done := 0
		for _, s := range sl.samples {
			switch s.kind {
			case "query":
				completed++
				if s.failed {
					continue
				}
				done++
				l := ms(s.raw) * f
				if s.roles&roleLatency != 0 {
					lat = append(lat, l)
					rawLat = append(rawLat, ms(s.raw))
				}
				if s.roles&roleFlight != 0 {
					byFlight[s.flight] = append(byFlight[s.flight], l)
				}
			case "rollin":
				if s.failed {
					continue
				}
				rollLat = append(rollLat, ms(s.raw)*f)
				rollRows += float64(s.rows)
				rollSec += s.raw.Seconds() * f
				rawRollSec += s.raw.Seconds()
			}
		}
		if sl.throughput && sl.wall > 0 {
			qps = append(qps, float64(done)/(sl.wall.Seconds()*f))
			rawQPS = append(rawQPS, float64(done)/sl.wall.Seconds())
		}
	}
	m.set("setup_s", setupS)
	m.set("queries_per_s", percentile(qps, throughputPercentile))
	m.set("query_p50_ms", percentile(lat, 50))
	m.set("query_p90_ms", percentile(lat, 90))
	for f := 1; f <= 4; f++ {
		m.set(fmt.Sprintf("flight%d_p50_ms", f), percentile(byFlight[f], 50))
	}
	m.set("rollin_rows_per_s", ratio(rollRows, rollSec))
	m.set("colstore.rollin_rows_per_s", ratio(rollRows, rawRollSec))
	m.set("rollin_p50_ms", percentile(rollLat, 50))

	m.set("bench.raw_query_p50_ms", percentile(rawLat, 50))
	m.set("bench.raw_queries_per_s", percentile(rawQPS, throughputPercentile))
	m.set("bench.query_p99_ms", percentile(lat, 99))
	m.set("bench.ref_ms", median(refs))
	m.set("bench.host_speed", refNominalMs/median(refs))
	// Drift: the 90th over the 10th percentile of the slice factors, that
	// is, max over min with the odd outlier sample left out.
	m.set("bench.host_drift", percentile(factors, 90)/percentile(factors, 10))
	m.set("bench.samples", float64(len(lat)))
	return completed
}

// sampleCounts states how many samples stand behind each timing.
func sampleCounts(h *harness, out map[string]int) {
	for _, sl := range h.slices {
		if sl.spare {
			continue
		}
		if sl.throughput {
			out["queries_per_s(slices)"]++
		}
		for _, s := range sl.samples {
			if s.failed {
				continue
			}
			if s.kind == "rollin" {
				out["rollin_p50_ms"]++
			}
			if s.kind != "query" {
				continue
			}
			if s.roles&roleLatency != 0 {
				out["query_p50_ms"]++
			}
			if s.roles&roleFlight != 0 {
				out[fmt.Sprintf("flight%d_p50_ms", s.flight)]++
			}
		}
	}
	out["query_p90_ms"] = out["query_p50_ms"]
	out["query_p90_ms(beyond)"] = samplesBeyond(out["query_p50_ms"], 90)
	out["highest_percentile_with_10_beyond"] = int(highestPercentile(out["query_p50_ms"]))
	out["setup_s"] = setupReps
}

// ledgerMetrics turns what the layers reported about themselves during the
// traced run's window into per-layer metrics.
func ledgerMetrics(h *harness, m metricSet, e *env) {
	a := &h.led
	q := float64(a.queries)
	per := func(v float64) float64 { return ratio(v, q) }
	c := func(name string) float64 { return float64(a.counters[name]) }
	const mb = 1 << 20

	offered := c("scan.rows_scanned") + c("scan.rows_pruned")
	m.set("colstore.rows_scanned_frac", ratio(c("scan.rows_scanned"), offered))
	m.set("colstore.rows_pruned_frac", ratio(c("scan.rows_pruned"), offered))
	m.set("colstore.rows_late_skipped_frac", ratio(c("scan.rows_late_skipped"), offered))
	m.set("colstore.rows_bloom_skipped_frac", ratio(c("scan.rows_bloom_skipped"), offered))
	m.set("colstore.partitions_pruned_frac", ratio(c("scan.partitions_pruned"), c("scan.partitions_pruned")+c("scan.partitions_scanned")))
	m.set("colstore.bytes_skipped_mb_per_query", per(c("scan.bytes_skipped")/mb))

	m.set("core.hash_tables_built_per_query", per(c("CLYDESDALE_HASH_TABLES_BUILT")))
	m.set("core.hash_reuses_per_query", per(c("CLYDESDALE_HASH_TABLE_REUSES")))
	m.set("core.probe_emit_frac", ratio(c("CLYDESDALE_PROBE_EMITS"), c("CLYDESDALE_PROBE_ROWS")))
	m.set("core.code_probes_per_row", ratio(c("CLYDESDALE_CODE_PROBE_ROWS"), c("CLYDESDALE_PROBE_ROWS")))
	if c("CLYDESDALE_PROBE_ROWS") > 0 {
		m.set("core.hash_build_ms_per_query", per(c("CLYDESDALE_HASH_BUILD_NANOS")/1e6))
		m.set("core.probe_ns_per_row", ratio(c("CLYDESDALE_PROBE_NANOS"), c("CLYDESDALE_PROBE_ROWS")))
		m.set("core.driver_sort_us", per(float64(a.sortTime)/1e3))
	}

	m.set("mr.jobs_per_query", per(float64(a.jobs)))
	m.set("mr.map_tasks_per_query", per(c("MAP_TASKS_LAUNCHED")))
	m.set("mr.reduce_tasks_per_query", per(c("REDUCE_TASKS_LAUNCHED")))
	m.set("mr.jvms_started_per_query", per(c("JVMS_STARTED")))
	m.set("mr.jvm_reuse_frac", ratio(c("JVM_REUSES"), c("JVM_REUSES")+c("JVMS_STARTED")))
	m.set("mr.data_local_frac", ratio(c("DATA_LOCAL_MAPS"), c("DATA_LOCAL_MAPS")+c("REMOTE_MAPS")))
	m.set("mr.map_output_records_per_query", per(c("MAP_OUTPUT_RECORDS")))
	m.set("mr.shuffle_mb_per_query", per(c("SHUFFLE_BYTES")/mb))
	m.set("mr.combine_reduction", ratio(c("COMBINE_INPUT_RECORDS"), c("COMBINE_OUTPUT_RECORDS")))
	m.set("mr.task_retries", c("TASK_RETRIES"))
	for _, ph := range []string{"map", "combine", "spill", "sort", "shuffle", "reduce", "queue-wait", "read"} {
		name := "mr.phase_" + strings.ReplaceAll(ph, "-", "_") + "_ms"
		if ph == "read" && a.phases[ph] == 0 {
			continue // only CIF readers time their reads
		}
		m.set(name, per(ms(a.phases[ph])))
	}

	// A workload without a session has no serving counters: they read 0
	// there; sessionLedger overwrites them where there is one.
	for _, name := range []string{"result_hit_frac", "result_subsumed_frac", "table_hit_frac", "table_builds", "table_evictions",
		"resident_mb", "rejected_frac", "peak_concurrent", "table_invalidations", "result_invalidations", "compactions"} {
		m.set("serve."+name, 0)
	}

	m.set("hive.stages_per_query", per(float64(a.hiveStages)))
	m.set("hive.intermediate_rows_per_query", per(c("HIVE_INTERMEDIATE_ROWS")))

	p := float64(a.profiles)
	m.set("obs.spans_per_query", ratio(float64(a.profSpans), p))
	m.set("obs.profile_cover_frac", ratio(float64(a.profPhases), float64(a.profMeasured)))
	m.set("obs.phase_hdfs_read_ms", ratio(ms(a.profPhase["hdfs-read"]), p))
	for _, ph := range []string{"prune", "dim-cache", "admission-wait"} {
		if d := a.profPhase[ph]; d > 0 {
			m.set("obs.phase_"+strings.ReplaceAll(ph, "-", "_")+"_ms", ratio(ms(d), p))
		}
	}
	m.set("cluster.mem_peak_mb", a.memPeakMB)

	// Tracing overhead: each traced slice against the mean of the untraced
	// slices on either side of it, which cancels a trend over the window
	// (ingest_live's table grows); the median over the traced slices.
	var rates []float64 // of the measured throughput slices, in order
	var traced []bool
	for _, sl := range h.slices {
		if !sl.throughput || sl.spare {
			continue
		}
		done := 0
		for _, s := range sl.samples {
			if s.kind == "query" && !s.failed {
				done++
			}
		}
		rates = append(rates, float64(done)/(sl.wall.Seconds()*sl.factor()))
		traced = append(traced, sl.traced)
	}
	var slowdown []float64
	for i := 1; i+1 < len(rates); i++ {
		if traced[i] && !traced[i-1] && !traced[i+1] {
			slowdown = append(slowdown, 1-ratio(rates[i], (rates[i-1]+rates[i+1])/2))
		}
	}
	m.set("obs.trace_overhead_frac", median(slowdown))

	spans := h.log.snapshot()
	m.set("bench.span_cover_frac", coverOf(spans, "slice"))

	parts, _ := listFactPartitions(e)
	m.set("colstore.partitions_live", float64(parts))
	if rows := e.gen.LineorderRows(); rows > 0 {
		m.set("colstore.fact_bytes_per_row", float64(dirBytes(e, e.lay.FactCIF))/float64(rows))
		if e.lay.FactRC != "" {
			m.set("colstore.rc_bytes_per_row", float64(dirBytes(e, e.lay.FactRC))/float64(rows))
		}
	}
}

// commitID names the commit being measured, when the checkout is a git
// repository (the driver's is not).
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeOutputs writes the run's report, and in a traced run its spans,
// under the output directory.
func writeOutputs(cfg runConfig, rep *report, h *harness) error {
	dir := cfg.outDir
	if dir == "" {
		dir = filepath.Join("benchmark", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if cfg.trace {
		t = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, t))
	if err := writeJSON(base+".json", rep); err != nil {
		return err
	}
	if cfg.trace {
		return writeJSON(base+".spans.json", h.log.snapshot())
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
