package colstore_test

import (
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// scanCounters are the counters a reader adds at Close.
var scanCounters = []string{colstore.CtrRowsScanned, colstore.CtrRowsLateSkipped, colstore.CtrRowsBloomSkipped, colstore.CtrBlocksSkipped}

// ssbFactInput is the fact scan of an SSB query as the engine pushes it
// down: the fact predicate, and one semi-join filter per dimension over the
// keys of the dimension rows its predicate keeps, every column projected.
func ssbFactInput(t *testing.T, q *ssb.Query, gen *ssb.Generator) *colstore.CIFInput {
	t.Helper()
	in := &colstore.CIFInput{Dir: "/m/" + ssb.TableLineorder, Schema: ssb.SchemaOf(ssb.TableLineorder), BlockRows: 256, Pred: q.FactPred}
	for _, d := range q.Dims {
		holds := func(records.Record) bool { return true }
		if d.Pred != nil {
			var err error
			if holds, err = expr.CompilePred(d.Pred, d.Schema); err != nil {
				t.Fatal(err)
			}
		}
		pk := d.Schema.MustIndex(d.DimPK)
		var keys []int64
		if err := gen.Each(d.Table, func(r records.Record) error {
			if holds(r) {
				keys = append(keys, r.At(pk).Int64())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		in.KeyFilters = append(in.KeyFilters, colstore.KeyFilter{Column: d.FactFK, Keys: colstore.NewKeyBloom(keys, 10)})
		in.EagerColumns = append(in.EagerColumns, d.FactFK)
	}
	return in
}

// childReaders opens split s of in and returns its per-partition readers
// and the reader to close.
func childReaders(t *testing.T, c *cluster.Cluster, jctx *mr.JobContext, in *colstore.CIFInput, s mr.InputSplit) ([]mr.RecordReader, mr.RecordReader) {
	t.Helper()
	r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if multi, ok := r.(mr.MultiReader); ok {
		children, err := multi.Readers()
		if err != nil {
			t.Fatal(err)
		}
		return children, r
	}
	return []mr.RecordReader{r}, r
}

// perBlockCounts reads the partitions of split s whole, a block at a time,
// and counts into ctr what each block of a scan of in reads and drops, block
// by block: its rows, those in.Pred drops, those it keeps that a semi-join
// filter drops, and whether no row survives. A scan with a plan adds the
// two drop counts of every block, zero or not.
func perBlockCounts(t *testing.T, c *cluster.Cluster, fs *hdfs.FileSystem, in *colstore.CIFInput, s mr.InputSplit, ctr *mr.Counters) {
	t.Helper()
	plain := &colstore.CIFInput{Dir: in.Dir, Schema: in.Schema, BlockRows: in.BlockRows}
	jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
	pred := func(*records.RowBlock, int) bool { return true }
	if in.Pred != nil {
		var err error
		if pred, err = expr.CompileBlockPred(in.Pred, in.Schema); err != nil {
			t.Fatal(err)
		}
	}
	planned := in.Pred != nil || len(in.KeyFilters) > 0
	children, closer := childReaders(t, c, jctx, plain, s)
	defer closer.Close()
	for _, rd := range children {
		for {
			blk, ok, err := rd.(colstore.BlockReader).NextBlock()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n, predKept, kept := blk.Len(), 0, 0
		rows:
			for i := range n {
				if !pred(blk, i) {
					continue
				}
				predKept++
				for _, f := range in.KeyFilters {
					if !f.Keys.MayContain(blk.Col(in.Schema.MustIndex(f.Column)).Ints[i]) {
						continue rows
					}
				}
				kept++
			}
			ctr.Add(colstore.CtrRowsScanned, int64(n))
			if planned {
				ctr.Add(colstore.CtrRowsLateSkipped, int64(n-predKept))
				ctr.Add(colstore.CtrRowsBloomSkipped, int64(predKept-kept))
			}
			if kept == 0 {
				ctr.Add(colstore.CtrBlocksSkipped, 1)
			}
		}
	}
}

// TestScanCountersAreBlockSums: for the fact scan of every SSB query, and
// for a scan with no plan, each scan counter a job's readers add when they
// are closed equals the sum over every block they read of what the block
// read and dropped, and the job has exactly the scan counter keys that
// counting block by block gives it: a counter a block adds as zero is
// there.
func TestScanCountersAreBlockSums(t *testing.T) {
	c, fs := loadSSBCIF(t)
	gen := ssb.NewGenerator(0.002, 5)
	inputs := map[string]*colstore.CIFInput{
		"full": {Dir: "/m/" + ssb.TableLineorder, Schema: ssb.SchemaOf(ssb.TableLineorder), BlockRows: 256},
	}
	for _, q := range ssb.Queries() {
		inputs[q.Name] = ssbFactInput(t, q, gen)
	}
	seen := map[string]bool{}
	for name, in := range inputs {
		jctx := &mr.JobContext{FS: fs, Cluster: c, Conf: mr.Conf{MapThreads: 2}, Counters: mr.NewCounters()}
		splits, err := in.Splits(jctx)
		if err != nil {
			t.Fatal(err)
		}
		want := mr.NewCounters()
		for _, s := range splits {
			perBlockCounts(t, c, fs, in, s, want)
			children, closer := childReaders(t, c, jctx, in, s)
			for _, rd := range children {
				for {
					_, ok, err := rd.(colstore.BlockReader).NextBlock()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
				}
				rd.Close()
			}
			closer.Close() // closes the children again: adds nothing
		}
		got, wantSnap := jctx.Counters.Snapshot(), want.Snapshot()
		for _, ctr := range scanCounters {
			gv, gok := got[ctr]
			wv, wok := wantSnap[ctr]
			if gv != wv || gok != wok {
				t.Errorf("%s: %s = %d (present %v), block by block %d (present %v)", name, ctr, gv, gok, wv, wok)
			}
			seen[ctr] = seen[ctr] || gv > 0
		}
	}
	for _, ctr := range scanCounters {
		if !seen[ctr] {
			t.Errorf("no scan counted %s above zero: that count went unchecked", ctr)
		}
	}
}

// TestClosedMidPartitionAddsWhatItRead: a reader closed after its first
// block, as a cancelled task's is, adds that block's rows and drops, and a
// second Close adds nothing more.
func TestClosedMidPartitionAddsWhatItRead(t *testing.T) {
	c, fs := loadSSBCIF(t)
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]*colstore.CIFInput{
		"full": {Dir: "/m/" + ssb.TableLineorder, Schema: ssb.SchemaOf(ssb.TableLineorder), BlockRows: 256},
		"Q1.1": {Dir: "/m/" + ssb.TableLineorder, Schema: ssb.SchemaOf(ssb.TableLineorder), BlockRows: 256, Pred: q.FactPred, DisablePruning: true},
	} {
		jctx := &mr.JobContext{FS: fs, Cluster: c, Counters: mr.NewCounters()}
		splits, err := in.Splits(jctx)
		if err != nil {
			t.Fatal(err)
		}
		children, closer := childReaders(t, c, jctx, in, splits[0])
		blk, ok, err := children[0].(colstore.BlockReader).NextBlock()
		if err != nil || !ok {
			t.Fatalf("%s: first block: %v, %v", name, ok, err)
		}
		returned := int64(blk.Len())
		if got := jctx.Counters.Get(colstore.CtrRowsScanned); got != 0 {
			t.Errorf("%s: %d rows scanned counted before the reader closed, want them added at Close", name, got)
		}
		children[0].Close()
		closer.Close()
		ctr := jctx.Counters.Snapshot()
		scanned := ctr[colstore.CtrRowsScanned]
		if scanned <= 0 || scanned%256 != 0 || scanned >= 700 {
			t.Errorf("%s: a reader closed after one block of a 700-row partition counted %d rows scanned", name, scanned)
		}
		if dropped := ctr[colstore.CtrRowsLateSkipped] + ctr[colstore.CtrRowsBloomSkipped]; dropped+returned != scanned {
			t.Errorf("%s: %d rows dropped and %d returned, %d scanned", name, dropped, returned, scanned)
		}
	}
}
