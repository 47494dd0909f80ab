package colstore_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

var ssbTables = []string{ssb.TableLineorder, ssb.TableCustomer, ssb.TableSupplier, ssb.TablePart, ssb.TableDate}

// loadSSBCIF writes every SSB table as a CIF table of 700-row partitions
// under /m on a fresh two-node filesystem.
func loadSSBCIF(t *testing.T) (*cluster.Cluster, *hdfs.FileSystem) {
	t.Helper()
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 20, Seed: 23})
	gen := ssb.NewGenerator(0.002, 5)
	for _, table := range ssbTables {
		if _, err := colstore.WriteCIFTable(fs, "/m/"+table, ssb.SchemaOf(table), 700, func(emit func(records.Record) error) error {
			return gen.Each(table, emit)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return c, fs
}

// scanCase is one way to read a table: a column list, a predicate, semi-join
// filters and eager columns.
type scanCase struct {
	name string
	in   func() *colstore.CIFInput
}

// ssbScanCases reads each table whole, projected to every other column, and
// behind a predicate on an integer and on a string column; the fact table
// also behind semi-join filters, with and without a predicate, behind a
// predicate its zone maps prune by, and behind one with pruning off.
func ssbScanCases() []scanCase {
	var cases []scanCase
	for _, table := range ssbTables {
		schema := ssb.SchemaOf(table)
		dir := "/m/" + table
		var every2, ints, strs []string
		for i, name := range schema.Names() {
			if i%2 == 0 {
				every2 = append(every2, name)
			}
			switch schema.Field(i).Kind {
			case records.KindInt64:
				ints = append(ints, name)
			case records.KindString:
				strs = append(strs, name)
			}
		}
		add := func(name string, set func(in *colstore.CIFInput)) {
			cases = append(cases, scanCase{table + "/" + name, func() *colstore.CIFInput {
				in := &colstore.CIFInput{Dir: dir, Schema: schema, BlockRows: 256}
				set(in)
				return in
			}})
		}
		add("full", func(*colstore.CIFInput) {})
		add("projected", func(in *colstore.CIFInput) { in.Columns = every2 })
		add("int-pred", func(in *colstore.CIFInput) { in.Pred = expr.Ge(expr.Col(ints[len(ints)-1]), expr.ConstInt(3)) })
		if len(strs) > 0 {
			add("string-pred", func(in *colstore.CIFInput) {
				in.Pred, in.Columns = expr.Gt(expr.Col(strs[len(strs)/2]), expr.ConstStr("M")), every2
			})
		}
		if table != ssb.TableLineorder {
			continue
		}
		bloom := func(mod int64) *colstore.KeyBloom {
			var keys []int64
			for k := int64(1); k <= 20_000_000; k += mod {
				keys = append(keys, k)
			}
			return colstore.NewKeyBloom(keys, 10)
		}
		filters := []colstore.KeyFilter{
			{Column: "lo_custkey", Keys: bloom(3)},
			{Column: "lo_suppkey", Keys: bloom(2)},
			{Column: "lo_orderdate", Keys: bloom(5)},
		}
		add("key-filters", func(in *colstore.CIFInput) {
			in.KeyFilters, in.EagerColumns = filters, []string{"lo_custkey", "lo_suppkey", "lo_orderdate"}
			in.Columns = []string{"lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue", "lo_shipmode"}
		})
		add("pred-and-key-filters", func(in *colstore.CIFInput) {
			in.KeyFilters, in.EagerColumns = filters, []string{"lo_custkey"}
			in.Pred = expr.And(expr.Le(expr.Col("lo_quantity"), expr.ConstInt(25)), expr.Ge(expr.Col("lo_discount"), expr.ConstInt(2)))
		})
		add("pruned", func(in *colstore.CIFInput) { in.Pred = expr.Le(expr.Col("lo_orderkey"), expr.ConstInt(1000)) })
		add("pred-no-pruning", func(in *colstore.CIFInput) {
			in.Pred, in.DisablePruning = expr.Le(expr.Col("lo_quantity"), expr.ConstInt(10)), true
		})
	}
	return cases
}

// renderBlock is a block as text: every row's values, and per column the
// codes and the dictionary's fingerprint it carries.
func renderBlock(blk *records.RowBlock) string {
	var b strings.Builder
	for c := 0; c < blk.Schema().Len(); c++ {
		cv := blk.Col(c)
		if cv.Dict != nil {
			fmt.Fprintf(&b, "col %d dict %x codes %v\n", c, cv.Dict.ID, cv.Codes)
		}
	}
	for i := 0; i < blk.Len(); i++ {
		for c := 0; c < blk.Schema().Len(); c++ {
			fmt.Fprintf(&b, "%v|", blk.Col(c).Value(i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanSplit reads one split of in block by block, rendered.
func scanSplit(t *testing.T, c *cluster.Cluster, jctx *mr.JobContext, in *colstore.CIFInput, s mr.InputSplit) []string {
	r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer r.Close()
	readers := []mr.RecordReader{r}
	if multi, ok := r.(mr.MultiReader); ok {
		if readers, err = multi.Readers(); err != nil {
			t.Error(err)
			return nil
		}
	}
	var out []string
	for _, rd := range readers {
		for {
			blk, ok, err := rd.(colstore.BlockReader).NextBlock()
			if err != nil {
				t.Error(err)
				return nil
			}
			if !ok {
				break
			}
			out = append(out, renderBlock(blk))
		}
		rd.Close()
	}
	return out
}

// scanInput reads every split of in, in order, and returns the rendered
// blocks and the job's counters.
func scanInput(t *testing.T, c *cluster.Cluster, fs *hdfs.FileSystem, in *colstore.CIFInput) ([]string, map[string]int64) {
	t.Helper()
	jctx := &mr.JobContext{FS: fs, Cluster: c, Conf: mr.Conf{MapThreads: 2}, Counters: mr.NewCounters()}
	splits, err := in.Splits(jctx)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range splits {
		out = append(out, scanSplit(t, c, jctx, in, s)...)
	}
	return out, jctx.Counters.Snapshot()
}

// TestWarmMemoScansLikeFreshOpens: on every SSB table, whole, projected,
// behind predicates and behind semi-join filters, the blocks a scan reads
// through a warm memo and recycled scratch — the third scan of the table on
// one filesystem — equal, with their codes and dictionaries, those of a
// scan whose every column file is opened for the first time, and so do the
// scan counters.
func TestWarmMemoScansLikeFreshOpens(t *testing.T) {
	c, warm := loadSSBCIF(t)
	total := map[string]int64{}
	for _, sc := range ssbScanCases() {
		for i := 0; i < 2; i++ {
			scanInput(t, c, warm, sc.in())
		}
		got, gotCtr := scanInput(t, c, warm, sc.in())
		fc, fresh := loadSSBCIF(t)
		want, wantCtr := scanInput(t, fc, fresh, sc.in())
		if len(want) == 0 {
			t.Fatalf("%s: the fresh scan read no block", sc.name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d blocks through the warm memo, %d fresh, and they differ", sc.name, len(got), len(want))
		}
		for name, v := range wantCtr {
			if gotCtr[name] != v {
				t.Errorf("%s: counter %s = %d warm, %d fresh", sc.name, name, gotCtr[name], v)
			}
			total[name] += v
		}
	}
	for _, name := range []string{colstore.CtrPartitionsPruned, colstore.CtrRowsLateSkipped, colstore.CtrRowsBloomSkipped, colstore.CtrBlocksSkipped} {
		if total[name] == 0 {
			t.Errorf("no case counted %s: that path went unchecked", name)
		}
	}
}

// interleaved opens two readers of split s and reads them on one goroutine
// a block from each in turn, returning what each read, rendered.
func interleaved(t *testing.T, c *cluster.Cluster, jctx *mr.JobContext, in *colstore.CIFInput, s mr.InputSplit) [2][]string {
	t.Helper()
	var children [2][]mr.RecordReader
	for k := range children {
		r, err := in.Open(s, mr.NewTestTaskContext(jctx, c.Nodes()[0]))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		children[k] = []mr.RecordReader{r}
		if multi, ok := r.(mr.MultiReader); ok {
			if children[k], err = multi.Readers(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out [2][]string
	for j := range children[0] {
		for done := [2]bool{}; !done[0] || !done[1]; {
			for k := range children {
				if done[k] {
					continue
				}
				blk, ok, err := children[k][j].(colstore.BlockReader).NextBlock()
				if err != nil {
					t.Fatal(err)
				}
				if done[k] = !ok; ok {
					out[k] = append(out[k], renderBlock(blk))
				}
			}
		}
	}
	return out
}

// TestConcurrentReadersShareTheMemo: two readers of one split taking turns
// on one goroutine, and readers of one input on several goroutines at once,
// each reading every split in its own order, read the blocks one reader
// reads alone. The column files and their dictionaries are shared; the
// cursors and the scratch are not.
func TestConcurrentReadersShareTheMemo(t *testing.T) {
	c, fs := loadSSBCIF(t)
	for _, sc := range ssbScanCases() {
		if !strings.HasPrefix(sc.name, "lineorder/") {
			continue
		}
		in := sc.in()
		jctx := &mr.JobContext{FS: fs, Cluster: c, Conf: mr.Conf{MapThreads: 2}, Counters: mr.NewCounters()}
		splits, err := in.Splits(jctx)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]string, len(splits))
		for i, s := range splits {
			want[i] = scanSplit(t, c, jctx, in, s)
		}
		if got := interleaved(t, c, jctx, in, splits[0]); !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[0]) {
			t.Errorf("%s: two readers of split 0 taking turns read it unlike a reader alone", sc.name)
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range splits {
					i := (k*(g+1) + g) % len(splits)
					if got := scanSplit(t, c, jctx, in, splits[i]); !slices.Equal(got, want[i]) {
						t.Errorf("%s: goroutine %d read split %d unlike a reader alone", sc.name, g, i)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
