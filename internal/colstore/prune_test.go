package colstore

import (
	"encoding/binary"
	"fmt"
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// readBlocks drains an input through the block-iteration path (the one that
// applies zone-map pruning in Splits and late materialization in NextBlock)
// and returns the materialized rows.
func readBlocks(t *testing.T, e *env, in *CIFInput) ([]records.Record, *mr.Counters) {
	t.Helper()
	jctx := &mr.JobContext{FS: e.fs, Cluster: e.cluster, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	var rows []records.Record
	for _, s := range splits {
		r, err := in.Open(s, mr.NewTestTaskContext(jctx, e.cluster.Nodes()[0]))
		if err != nil {
			t.Fatal(err)
		}
		br := r.(BlockReader)
		for {
			blk, ok, err := br.NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i := 0; i < blk.Len(); i++ {
				rows = append(rows, blk.Row(i).Clone())
			}
		}
		r.Close()
	}
	return rows, jctx.Counters
}

var pruneSchema = records.NewSchema(
	records.F("id", records.KindInt64),
	records.F("tag", records.KindString),
	records.F("weight", records.KindFloat64),
)

// writePruneTable writes nParts partitions of pRows rows each, with id
// monotone across the table so partitions carry disjoint id ranges.
func writePruneTable(t testing.TB, e *env, dir string, nParts, pRows int) {
	t.Helper()
	if _, err := WriteCIFTable(e.fs, dir, pruneSchema, int64(pRows), func(emit func(records.Record) error) error {
		for i := 0; i < nParts*pRows; i++ {
			r := records.Make(pruneSchema,
				records.Int(int64(i)),
				records.Str(fmt.Sprintf("tag-%d", i%4)),
				records.Float(float64(i)*0.5),
			)
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestZoneMapPruningOracle: a pruned scan must return exactly the rows of an
// unpruned scan — pruning is pure I/O avoidance — while actually skipping the
// partitions whose id range is disjoint from the predicate.
func TestZoneMapPruningOracle(t *testing.T) {
	e := newEnv(2, 4096)
	const nParts, pRows = 6, 50
	writePruneTable(t, e, "/zm", nParts, pRows)

	// Rows 60..149 span partitions 1 and 2; partitions 0, 3, 4, 5 are refuted.
	pred := expr.Between(expr.Col("id"), records.Int(60), records.Int(149))

	pruned, pc := readBlocks(t, e, &CIFInput{Dir: "/zm", Schema: pruneSchema, Pred: pred, BlockRows: 32})
	full, fc := readBlocks(t, e, &CIFInput{Dir: "/zm", Schema: pruneSchema, Pred: pred, BlockRows: 32, DisablePruning: true})

	if !sameRows(pruned, full) {
		t.Fatalf("pruned scan returned %d rows, unpruned %d — results differ", len(pruned), len(full))
	}
	if len(pruned) != 90 {
		t.Fatalf("scan returned %d rows, want 90", len(pruned))
	}
	if got := pc.Get(CtrPartitionsPruned); got != 4 {
		t.Errorf("pruned %d partitions, want 4", got)
	}
	if got := pc.Get(CtrRowsPruned); got != 4*pRows {
		t.Errorf("rows_pruned = %d, want %d", got, 4*pRows)
	}
	if pc.Get(CtrBytesSkipped) <= 0 {
		t.Errorf("bytes_skipped = %d, want > 0", pc.Get(CtrBytesSkipped))
	}
	if got := fc.Get(CtrPartitionsPruned); got != 0 {
		t.Errorf("DisablePruning still pruned %d partitions", got)
	}

	// Accounting: scanned + pruned rows cover the whole table.
	total := int64(nParts * pRows)
	if got := pc.Get(CtrRowsScanned) + pc.Get(CtrRowsPruned); got != total {
		t.Errorf("rows_scanned + rows_pruned = %d, want %d", got, total)
	}
}

// TestPrunePredsAreNotRowFilters: PrunePreds may only drop whole partitions;
// rows inside surviving partitions must come back even when they violate the
// hint (hints are supersets, e.g. FK ranges over sparse keys).
func TestPrunePredsAreNotRowFilters(t *testing.T) {
	e := newEnv(2, 4096)
	writePruneTable(t, e, "/hint", 4, 50)

	// The hint keeps only partition 1 (ids 50..99); every one of its rows
	// must be returned, including those outside 60..80.
	in := &CIFInput{Dir: "/hint", Schema: pruneSchema,
		PrunePreds: []expr.Pred{expr.Between(expr.Col("id"), records.Int(60), records.Int(80))}}
	rows, c := readBlocks(t, e, in)
	if len(rows) != 50 {
		t.Fatalf("got %d rows, want all 50 rows of the surviving partition", len(rows))
	}
	if got := c.Get(CtrPartitionsPruned); got != 3 {
		t.Errorf("pruned %d partitions, want 3", got)
	}
}

// TestBlocksSkippedCounter: a block in which the selection keeps no row is
// counted in scan.blocks_skipped and costs its deferred columns nothing but
// a cursor move; they still line up with the rows of the blocks after it.
func TestBlocksSkippedCounter(t *testing.T) {
	e := newEnv(1, 1<<16)
	writePruneTable(t, e, "/skip", 1, 200) // one partition: two blocks of 100
	for _, c := range []struct {
		pred    expr.Pred
		rows    int
		skipped int64
	}{
		{expr.Ge(expr.Col("id"), expr.ConstInt(150)), 50, 1}, // nothing in the first block
		{expr.Lt(expr.Col("id"), expr.ConstInt(30)), 30, 1},  // nothing in the second
		{expr.Ge(expr.Col("id"), expr.ConstInt(90)), 110, 0}, // survivors in both
		{expr.Ge(expr.Col("id"), expr.ConstInt(1000)), 0, 2}, // none anywhere
	} {
		rows, ctr := readBlocks(t, e, &CIFInput{Dir: "/skip", Schema: pruneSchema, Pred: c.pred, BlockRows: 100, DisablePruning: true})
		if got := ctr.Get(CtrBlocksSkipped); got != c.skipped {
			t.Errorf("%v: %d blocks skipped, want %d", c.pred, got, c.skipped)
		}
		if len(rows) != c.rows {
			t.Fatalf("%v: %d rows, want %d", c.pred, len(rows), c.rows)
		}
		for _, r := range rows {
			id := r.At(0).Int64()
			if r.At(1).Str() != fmt.Sprintf("tag-%d", id%4) || r.At(2).Float64() != float64(id)*0.5 {
				t.Fatalf("%v: row %v: deferred columns out of step with id", c.pred, r)
			}
		}
	}
}

// TestCorruptedStatsFallsBack: a damaged or truncated _stats sidecar must
// disable pruning for that partition, never fail or misprune the scan.
func TestCorruptedStatsFallsBack(t *testing.T) {
	e := newEnv(2, 4096)
	const nParts, pRows = 4, 50
	writePruneTable(t, e, "/bad", nParts, pRows)

	// Damage every partition's sidecar a different way.
	parts, err := ListPartitions(e.fs, "/bad")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != nParts {
		t.Fatalf("got %d partitions, want %d", len(parts), nParts)
	}
	corrupt := [][]byte{
		[]byte("this is not a stats file"),
		{'C', 'Z', 'M', '1'},       // truncated after the magic
		{},                         // empty
		{'X', 'X', 'X', 'X', 0, 0}, // wrong magic
	}
	for i, pdir := range parts {
		path := pdir + "/" + StatsFileName
		e.fs.Delete(path)
		if err := e.fs.WriteFile(path, "", corrupt[i%len(corrupt)]); err != nil {
			t.Fatal(err)
		}
	}

	pred := expr.Between(expr.Col("id"), records.Int(60), records.Int(149))
	rows, c := readBlocks(t, e, &CIFInput{Dir: "/bad", Schema: pruneSchema, Pred: pred, BlockRows: 32})
	if got := c.Get(CtrPartitionsPruned); got != 0 {
		t.Errorf("pruned %d partitions on corrupted stats, want 0", got)
	}
	if len(rows) != 90 {
		t.Fatalf("got %d rows, want 90 (full-scan fallback with predicate)", len(rows))
	}

	// A deleted sidecar behaves the same as a corrupt one.
	e.fs.Delete(parts[0] + "/" + StatsFileName)
	rows, c = readBlocks(t, e, &CIFInput{Dir: "/bad", Schema: pruneSchema, Pred: pred, BlockRows: 32})
	if got := c.Get(CtrPartitionsPruned); got != 0 {
		t.Errorf("pruned %d partitions with missing stats, want 0", got)
	}
	if len(rows) != 90 {
		t.Fatalf("got %d rows after sidecar delete, want 90", len(rows))
	}
}

// TestDictZoneMapStatsValueOrder: dictionaries record entries in first-seen
// order, and this table is written so that first-seen order starts in the
// middle of value order for both the string (EncDict) and int (EncDictI64)
// dictionary columns. The _stats sidecar must still carry the true value
// min/max — a stats writer that took entries[0]/entries[len-1] as the bounds
// would record an inverted range here and wrongly prune a matching partition.
func TestDictZoneMapStatsValueOrder(t *testing.T) {
	e := newEnv(1, 4096)
	schema := records.NewSchema(
		records.F("k", records.KindInt64),
		records.F("tag", records.KindString),
	)
	tags := []string{"mmm", "zzz", "aaa"} // first-seen: mid, max, min
	ks := []int64{500, 900, 100}          // first-seen: mid, max, min
	const rows = 300
	if _, err := WriteCIFTable(e.fs, "/dz", schema, rows, func(emit func(records.Record) error) error {
		for i := 0; i < rows; i++ {
			if err := emit(records.Make(schema, records.Int(ks[i%3]), records.Str(tags[i%3]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Both columns must actually land on a dictionary encoding, or the test
	// would silently stop covering the dict stats path.
	for _, col := range []string{"k", "tag"} {
		data, err := e.fs.ReadAll("/dz/p-00000/"+col+".col", "")
		if err != nil {
			t.Fatal(err)
		}
		_, n := binary.Uvarint(data[len(cifMagic):]) // row count
		enc := Encoding(data[len(cifMagic)+n])
		if enc != EncDict && enc != EncDictI64 {
			t.Fatalf("column %s encoded as %s, want a dictionary encoding", col, enc)
		}
	}

	ps, err := ReadPartitionStats(e.fs, "/dz/p-00000")
	if err != nil || ps == nil {
		t.Fatalf("ReadPartitionStats: ps=%v err=%v", ps, err)
	}
	src := ps.RangeSource()
	kr, ok := src("k")
	if !ok || kr.Min.Int64() != 100 || kr.Max.Int64() != 900 {
		t.Errorf("k stats = [%v, %v] (ok=%v), want [100, 900]", kr.Min, kr.Max, ok)
	}
	tr, ok := src("tag")
	if !ok || tr.Min.Str() != "aaa" || tr.Max.Str() != "zzz" {
		t.Errorf("tag stats = [%v, %v] (ok=%v), want [aaa, zzz]", tr.Min, tr.Max, ok)
	}

	// Predicates selecting the dictionary's value extremes (the ones an
	// entry-order bug inverts) must not prune the partition away.
	for _, tc := range []struct {
		pred expr.Pred
		want int
	}{
		{expr.Eq(expr.Col("tag"), expr.ConstStr("aaa")), rows / 3},
		{expr.Eq(expr.Col("tag"), expr.ConstStr("zzz")), rows / 3},
		{expr.Between(expr.Col("k"), records.Int(850), records.Int(950)), rows / 3},
		{expr.Between(expr.Col("k"), records.Int(0), records.Int(150)), rows / 3},
	} {
		got, c := readBlocks(t, e, &CIFInput{Dir: "/dz", Schema: schema, Pred: tc.pred, BlockRows: 64})
		if len(got) != tc.want {
			t.Errorf("pred %v returned %d rows, want %d", tc.pred, len(got), tc.want)
		}
		if p := c.Get(CtrPartitionsPruned); p != 0 {
			t.Errorf("pred %v pruned %d partitions of a matching table", tc.pred, p)
		}
	}

	// And a genuinely disjoint predicate still prunes on the dict-derived range.
	_, c := readBlocks(t, e, &CIFInput{Dir: "/dz", Schema: schema,
		Pred: expr.Between(expr.Col("k"), records.Int(2000), records.Int(3000)), BlockRows: 64})
	if p := c.Get(CtrPartitionsPruned); p != 1 {
		t.Errorf("disjoint pred pruned %d partitions, want 1", p)
	}
}
