package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// ScanBenchConfig records the shape of the run a scan baseline came from.
type ScanBenchConfig struct {
	FactRows int64   `json:"fact_rows"`
	DimScale float64 `json:"dim_scale"`
	Workers  int     `json:"workers"`
	Seed     uint64  `json:"seed"`
}

// ScanRunStats is one query execution's scan-path measurements under one
// configuration. NsPerRow is TotalNs divided by the table's fact rows (not
// the rows actually decoded), so skipping work via pruning or late
// materialization shows up directly as a lower per-row cost.
type ScanRunStats struct {
	TotalNs          int64   `json:"total_ns"`
	NsPerRow         float64 `json:"ns_per_row"`
	RowsScanned      int64   `json:"rows_scanned"`
	RowsPruned       int64   `json:"rows_pruned"`
	RowsLateSkipped  int64   `json:"rows_late_skipped"`
	RowsBloomSkipped int64   `json:"rows_bloom_skipped"`
	PartitionsPruned int64   `json:"partitions_pruned"`
	BytesSkipped     int64   `json:"bytes_skipped"`
	ProbeRows        int64   `json:"probe_rows"`
}

// ScanQueryStats pairs the full scan path (zone-map pruning + late
// materialization + compressed execution) against the plain scan and the
// compressed-execution ablation for one query.
type ScanQueryStats struct {
	Query string       `json:"query"`
	Plain ScanRunStats `json:"plain"`
	// NoCompressed keeps pruning and late materialization on but disables
	// code-space predicates and bloom pushdown (the -no-code-preds -no-bloom
	// ablation), isolating what compressed execution itself buys.
	NoCompressed ScanRunStats `json:"no_compressed"`
	Optimized    ScanRunStats `json:"optimized"`
	// Speedup is plain ns/row over optimized ns/row (> 1 is an improvement).
	Speedup float64 `json:"speedup"`
	// CompressedSpeedup is no_compressed ns/row over optimized ns/row.
	CompressedSpeedup float64 `json:"compressed_speedup"`
}

// ScanBenchResult is the payload of BENCH_scan.json: the scan-path baseline
// (see EXPERIMENTS.md for how to read and refresh it).
type ScanBenchResult struct {
	Config  ScanBenchConfig  `json:"config"`
	Queries []ScanQueryStats `json:"queries"`
}

// WriteJSON writes the result as indented JSON.
func (r *ScanBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunScanBench measures the scan path on every SSB query three times: with
// every scan optimization disabled (every partition decoded in full), with
// only compressed execution (code-space predicates + bloom pushdown)
// disabled, and with the full scan path. All runs use the same unthrottled
// cluster and warmed engines, so the differences are decode and probe work
// actually avoided. The fact table is written by the standard
// loader, so lo_orderdate is arrival-clustered and the date-driven queries
// genuinely prune.
func RunScanBench(factRows int64, workers int, seed uint64, w io.Writer) (*ScanBenchResult, error) {
	if factRows <= 0 {
		factRows = 120_000
	}
	if workers <= 0 {
		workers = 4
	}
	gen := ssb.NewBenchGenerator(1, factRows, seed)
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 256 << 10, Seed: int64(seed)})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true})
	if err != nil {
		return nil, err
	}
	if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
		return nil, err
	}
	mrEng := mr.NewEngine(c, fs, mr.Options{})
	// All three engines share one cross-query dimension-table cache, the
	// Clydesdale resident-hash-table design the serving layer uses. Without
	// it every execution rebuilds every dimension table on every node, and
	// that fixed cost (tens of ms on the join-heavy queries) drowns the
	// scan-path differences this baseline exists to measure.
	tables := serve.NewTableProvider(0)
	plainEng := core.New(mrEng, lay.Catalog(), core.Options{
		Ablate: core.NoScanPruning | core.NoLateMaterialization | core.NoCodeSpacePreds | core.NoBloomPushdown,
		Tables: tables,
	})
	noCompEng := core.New(mrEng, lay.Catalog(), core.Options{
		Ablate: core.NoCodeSpacePreds | core.NoBloomPushdown,
		Tables: tables,
	})
	optEng := core.New(mrEng, lay.Catalog(), core.Options{Tables: tables})

	out := &ScanBenchResult{Config: ScanBenchConfig{
		FactRows: factRows,
		DimScale: 1,
		Workers:  workers,
		Seed:     seed,
	}}
	if w != nil {
		fmt.Fprintf(w, "scan-path baseline: %d fact rows, %d workers\n", factRows, workers)
		fmt.Fprintf(w, "%-6s %10s %10s %10s %8s %10s %10s %10s %8s %8s\n",
			"Query", "plain/row", "nocomp/row", "opt/row", "pruned", "rows_prn", "late_skip", "bloom_skip", "speedup", "comp_spd")
	}
	// Each configuration runs once to warm caches, then several times with
	// the median wall clock kept. A single query execution is at the mercy
	// of GC pauses and delay-scheduling luck (locality misses wait out
	// delayTolerance, so a rare perfectly-placed run is several times faster
	// than the steady state); the median tracks the steady state where the
	// minimum would report the lucky outlier. Counters are deterministic
	// across runs, so which run is kept only affects the timing.
	const benchRuns = 9
	measure := func(eng *core.Engine, q *core.Query) (ScanRunStats, error) {
		if _, _, err := eng.Run(context.Background(), q); err != nil { // warm-up
			return ScanRunStats{}, err
		}
		runs := make([]ScanRunStats, 0, benchRuns)
		for run := 0; run < benchRuns; run++ {
			_, rep, err := eng.Run(context.Background(), q)
			if err != nil {
				return ScanRunStats{}, err
			}
			ctr := rep.Job.Counters
			st := ScanRunStats{
				TotalNs:          rep.Total.Nanoseconds(),
				RowsScanned:      ctr.Get(colstore.CtrRowsScanned),
				RowsPruned:       ctr.Get(colstore.CtrRowsPruned),
				RowsLateSkipped:  ctr.Get(colstore.CtrRowsLateSkipped),
				RowsBloomSkipped: ctr.Get(colstore.CtrRowsBloomSkipped),
				PartitionsPruned: rep.PartitionsPruned,
				BytesSkipped:     rep.BytesSkipped,
				ProbeRows:        ctr.Get(core.CtrProbeRows),
			}
			st.NsPerRow = float64(st.TotalNs) / float64(factRows)
			runs = append(runs, st)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].TotalNs < runs[j].TotalNs })
		return runs[len(runs)/2], nil
	}
	for _, q := range ssb.Queries() {
		plain, err := measure(plainEng, q)
		if err != nil {
			return nil, fmt.Errorf("bench: plain scan %s: %w", q.Name, err)
		}
		noComp, err := measure(noCompEng, q)
		if err != nil {
			return nil, fmt.Errorf("bench: no-compressed scan %s: %w", q.Name, err)
		}
		opt, err := measure(optEng, q)
		if err != nil {
			return nil, fmt.Errorf("bench: optimized scan %s: %w", q.Name, err)
		}
		st := ScanQueryStats{Query: q.Name, Plain: plain, NoCompressed: noComp, Optimized: opt}
		if opt.NsPerRow > 0 {
			st.Speedup = plain.NsPerRow / opt.NsPerRow
			st.CompressedSpeedup = noComp.NsPerRow / opt.NsPerRow
		}
		out.Queries = append(out.Queries, st)
		if w != nil {
			fmt.Fprintf(w, "%-6s %10.1f %10.1f %10.1f %8d %10d %10d %10d %7.2fx %7.2fx\n",
				st.Query, plain.NsPerRow, noComp.NsPerRow, opt.NsPerRow, opt.PartitionsPruned,
				opt.RowsPruned, opt.RowsLateSkipped, opt.RowsBloomSkipped, st.Speedup, st.CompressedSpeedup)
		}
	}
	return out, nil
}
