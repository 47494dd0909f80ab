package colstore_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// Write-path benchmarks at the shapes the ingest_live workload runs:
// roll-ins of 2048 SSB fact rows into 1024-row partitions, and compactions
// that rewrite 1024-row partitions into 4096-row ones clustered by
// lo_orderdate.
const (
	benchBatchRows   = 2048
	benchRollInPart  = 1024
	benchBasePart    = 4096
	benchCompactPart = 40
)

func benchFS() *hdfs.FileSystem {
	return hdfs.New(cluster.New(cluster.Testing(2)), hdfs.Options{BlockSize: 256 << 10, Seed: 1})
}

// emitRows emits rows as a roll-in callback.
func emitRows(rows []records.Record) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for _, r := range rows {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// BenchmarkRollIn times Snapshots.RollIn of one batch, into an empty table
// and into a 300 k-row table of 4096-row partitions. The batch's
// lo_orderkey values are negated, so a retention on lo_orderkey < 0 takes
// each batch back out, untimed, and every timed roll-in meets the same
// table. B/op and allocs/op are one roll-in's on a warm writer
// (reportWarmAllocs).
func BenchmarkRollIn(b *testing.B) {
	gen := ssb.NewGenerator(0.05, 7)
	batch := make([]records.Record, benchBatchRows)
	key := ssb.LineorderSchema.Index("lo_orderkey")
	for i := range batch {
		r := gen.Lineorder(int64(i))
		vals := make([]records.Value, r.Len())
		for c := range vals {
			vals[c] = r.At(c)
		}
		vals[key] = records.Int(-vals[key].Int64() - 1)
		batch[i] = records.Make(ssb.LineorderSchema, vals...)
	}
	for _, bc := range []struct {
		name string
		rows int64
	}{{"empty", 0}, {"300k", 300_000}} {
		// One table per case, loaded once: every round of the case starts
		// from it, as every batch is taken back out.
		fs := benchFS()
		const dir = "/bench/lineorder"
		if _, err := colstore.WriteCIFTable(fs, dir, ssb.LineorderSchema, benchBasePart, func(emit func(records.Record) error) error {
			for i := int64(0); i < bc.rows; i++ {
				if err := emit(gen.Lineorder(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		reg := colstore.NewSnapshots(fs)
		b.Run(bc.name, func(b *testing.B) {
			rollIn := func() {
				if _, _, err := reg.RollIn(dir, benchRollInPart, emitRows(batch)); err != nil {
					b.Fatal(err)
				}
			}
			rollOut := func() {
				if _, err := colstore.ExpireBefore(reg, dir, "lo_orderkey", 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rollIn()
				b.StopTimer()
				rollOut()
				b.StartTimer()
			}
			b.StopTimer()
			reportWarmWriteAllocs(b, rollOut, rollIn)
			rollOut()
		})
	}
}

// BenchmarkCompact times one Compact pass over 40 partitions of 1024 SSB
// fact rows, rewritten into 4096-row partitions clustered by lo_orderdate.
// Each pass gets a fresh table, staged untimed.
func BenchmarkCompact(b *testing.B) {
	gen := ssb.NewGenerator(0.05, 7)
	rows := make([]records.Record, benchCompactPart*benchRollInPart)
	for i := range rows {
		rows[i] = gen.Lineorder(int64(i))
	}
	fs := benchFS()
	reg := colstore.NewSnapshots(fs)
	opts := colstore.CompactOptions{MinRows: benchBasePart, TargetRows: benchBasePart, ClusterBy: "lo_orderdate"}
	table := 0
	stage := func() string {
		dir := fmt.Sprintf("/bench/compact-%d", table)
		table++
		if _, err := colstore.WriteCIFTable(fs, dir, ssb.LineorderSchema, benchBasePart, emitRows(nil)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := reg.RollIn(dir, benchRollInPart, emitRows(rows)); err != nil {
			b.Fatal(err)
		}
		return dir
	}
	compact := func(dir string) {
		res, err := colstore.Compact(reg, dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Retired) != benchCompactPart {
			b.Fatalf("compaction retired %d partitions, want %d", len(res.Retired), benchCompactPart)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := stage()
		b.StartTimer()
		compact(dir)
		b.StopTimer()
		fs.DeletePrefix(dir + "/")
		b.StartTimer()
	}
	b.StopTimer()
	var dir string
	reportWarmWriteAllocs(b, func() {
		if dir != "" {
			fs.DeletePrefix(dir + "/")
		}
		dir = stage()
	}, func() { compact(dir) })
}

// reportWarmWriteAllocs is reportWarmAllocs (scan_bench_test.go) for the
// external test package and for a write that needs its table prepared: it
// replaces B/op and allocs/op with the median of five runs of f, each after
// an uncounted prepare, following five warm-up rounds, with the collector
// off.
func reportWarmWriteAllocs(b *testing.B, prepare, f func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 5 {
		prepare()
		f()
	}
	var bytes, allocs [5]uint64
	for i := range bytes {
		prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes[i], allocs[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	slices.Sort(bytes[:])
	slices.Sort(allocs[:])
	b.ReportMetric(float64(bytes[len(bytes)/2]), "B/op")
	b.ReportMetric(float64(allocs[len(allocs)/2]), "allocs/op")
}
