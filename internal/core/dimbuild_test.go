package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// checkBuildAgainstRowwise holds BuildDimHashTable (columnar, from the
// node-local copy) to the row-wise oracle over the master copy's rows: same
// Len, same MemBytes, the same Probe answer for every key the dimension
// holds (kept by the predicate or not) and for keys it does not hold; and
// MemBytes equal to the estimate admission control charges, duplicate keys
// or not.
func checkBuildAgainstRowwise(t *testing.T, fs *hdfs.FileSystem, node *cluster.Node, dir string, spec *core.DimSpec) *core.DimHashTable {
	t.Helper()
	var rows []records.Record
	if err := colstore.ScanRowTable(fs, dir, "", func(r records.Record) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want, err := core.BuildRowwise(rows, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.BuildDimHashTable(fs, node, dir, spec)
	if err != nil {
		t.Fatalf("dim %s: %v", spec.Table, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("dim %s: Len = %d, row-wise build has %d", spec.Table, got.Len(), want.Len())
	}
	if got.MemBytes != want.MemBytes {
		t.Errorf("dim %s: MemBytes = %d, row-wise build has %d", spec.Table, got.MemBytes, want.MemBytes)
	}
	if got.Stats.RowsScanned != int64(len(rows)) || got.Stats.RowsKept < int64(got.Len()) || got.Stats.BytesRead <= 0 {
		t.Errorf("dim %s: Stats = %+v over %d rows, %d entries", spec.Table, got.Stats, len(rows), got.Len())
	}
	pkIx := spec.Schema.MustIndex(spec.DimPK)
	probe := func(k int64) {
		t.Helper()
		gotAux, gotOK := got.Probe(k)
		wantAux, wantOK := want.Probe(k)
		if gotOK != wantOK || len(gotAux) != len(wantAux) {
			t.Fatalf("dim %s: Probe(%d) = (%v, %v), row-wise build says (%v, %v)", spec.Table, k, gotAux, gotOK, wantAux, wantOK)
		}
		for i := range gotAux {
			if gotAux[i].Kind() != wantAux[i].Kind() || !gotAux[i].Equal(wantAux[i]) {
				t.Fatalf("dim %s: Probe(%d) aux %s = %v, row-wise build says %v", spec.Table, k, spec.Aux[i], gotAux[i], wantAux[i])
			}
		}
	}
	for _, r := range rows {
		k := r.At(pkIx).Int64()
		probe(k)
		probe(k + 1<<40) // absent: generated keys stay far below 2^40
		probe(-k - 7)
	}
	est, err := core.EstimateDimHashBytes([]core.DimSpec{*spec}, func(_ string, fn func(records.Record) error) error {
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.MemBytes != est[0] {
		t.Errorf("dim %s: MemBytes = %d, EstimateDimHashBytes = %d", spec.Table, got.MemBytes, est[0])
	}
	return got
}

// TestColumnarBuildMatchesRowwiseSSB: every DimSpec of the 13 SSB queries.
func TestColumnarBuildMatchesRowwiseSSB(t *testing.T) {
	e := newEnv(t, 1, 0.01)
	node := e.cluster.Nodes()[0]
	for _, q := range ssb.Queries() {
		for d := range q.Dims {
			spec := &q.Dims[d]
			h := checkBuildAgainstRowwise(t, e.fs, node, e.lay.Dims[spec.Table], spec)
			if spec.Pred != nil && h.Stats.RowsKept == h.Stats.RowsScanned {
				t.Errorf("%s dim %s: predicate %v kept all %d rows", q.Name, spec.Table, spec.Pred, h.Stats.RowsScanned)
			}
		}
	}
}

// TestColumnarBuildMatchesRowwiseSnowflake: the specs of generated
// snowflake queries — random chains, so dimensions that are parents of other
// dimensions, keyed and filtered differently from the SSB four.
func TestColumnarBuildMatchesRowwiseSnowflake(t *testing.T) {
	for _, seed := range []uint64{7, 23, 101} {
		c := cluster.New(cluster.Testing(1))
		fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: int64(seed)})
		snow := ssb.GenSnowflake(seed, 2000)
		lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
		if err != nil {
			t.Fatal(err)
		}
		cat := lay.Catalog(snow)
		specs := 0
		for qi := int64(0); qi < 4; qi++ {
			sh, err := plan.Decompose(snow.RandomSnowQuery(qi))
			if err != nil {
				t.Fatal(err)
			}
			steps, err := sh.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			for i := range steps {
				spec := core.DimSpecOf(&steps[i].JoinEdge)
				dir, err := cat.DimDir(spec.Table)
				if err != nil {
					t.Fatal(err)
				}
				checkBuildAgainstRowwise(t, fs, c.Nodes()[0], dir, &spec)
				specs++
			}
		}
		if specs == 0 {
			t.Fatalf("seed %d: no dimension specs generated", seed)
		}
	}
}

// randomDim is one generated dimension: a schema of every kind in every
// encoding the column codec chooses between, and its rows.
type randomDim struct {
	schema *records.Schema
	rows   []records.Record
}

// genRandomDim builds a dimension of n rows. Columns: the int64 key "k"
// (unique and ascending, or — dupKeys — drawn from a small pool with
// negatives, so keys repeat); "lowi" and "lows" (a dozen distinct values:
// dictionary-coded), "seqi" (ascending: delta), "wildi" (random: plain),
// "uniq" (one distinct string per row: past the 4096-entry dictionary cap
// when n is), "f", "b", and "ni"/"ns" (int and string with nulls mixed in:
// stored boxed).
func genRandomDim(rng *rand.Rand, n int, dupKeys bool) randomDim {
	schema := records.NewSchema(
		records.F("lows", records.KindString),
		records.F("k", records.KindInt64),
		records.F("lowi", records.KindInt64),
		records.F("seqi", records.KindInt64),
		records.F("wildi", records.KindInt64),
		records.F("uniq", records.KindString),
		records.F("f", records.KindFloat64),
		records.F("b", records.KindBool),
		records.F("ni", records.KindInt64),
		records.F("ns", records.KindString),
	)
	d := randomDim{schema: schema}
	for i := 0; i < n; i++ {
		k := int64(i)*3 + 1
		if dupKeys {
			k = rng.Int63n(int64(n)/2+1) - int64(n)/4
		}
		ni, ns := records.Int(rng.Int63n(50)), records.Str(fmt.Sprintf("s%d", rng.Intn(6)))
		if rng.Intn(4) == 0 {
			ni = records.Null
		}
		if rng.Intn(4) == 0 {
			ns = records.Null
		}
		d.rows = append(d.rows, records.Make(schema,
			records.Str(fmt.Sprintf("low-%d", rng.Intn(12))),
			records.Int(k),
			records.Int(rng.Int63n(12)*10),
			records.Int(int64(i)*2+5),
			records.Int(rng.Int63()-1<<62),
			records.Str(fmt.Sprintf("unique-%d-%d", i, rng.Intn(1000))),
			records.Float(rng.Float64()*100),
			records.Bool(rng.Intn(2) == 0),
			ni, ns,
		))
	}
	return d
}

// randomDimPreds: no predicate, one that keeps nothing, one that keeps
// everything, conjuncts that push down to a dictionary (string and int),
// ones that cannot (non-dictionary column; two columns compared), one on a
// boolean column, predicates over the null-bearing columns (nulls sort
// first, so "ni < 10" keeps them), and conjunctions mixing all of these.
func randomDimPreds() map[string]expr.Pred {
	lows := expr.In(expr.Col("lows"), records.Str("low-1"), records.Str("low-4"), records.Str("low-9"))
	lowi := expr.Between(expr.Col("lowi"), records.Int(20), records.Int(70))
	seqi := expr.Gt(expr.Col("seqi"), expr.ConstInt(400))
	cross := expr.Lt(expr.Col("lowi"), expr.Col("seqi"))
	bools := expr.Eq(expr.Col("b"), expr.ConstExpr{Val: records.Bool(true)})
	nulls := expr.Lt(expr.Col("ni"), expr.ConstInt(10))
	return map[string]expr.Pred{
		"none":          nil,
		"keeps-nothing": expr.Eq(expr.Col("lows"), expr.ConstStr("no such value")),
		"keeps-all":     expr.Ge(expr.Col("lowi"), expr.ConstInt(-1)),
		"dict-string":   lows,
		"dict-int":      lowi,
		"plain-range":   seqi,
		"float":         expr.Le(expr.Col("f"), expr.ConstFloat(33.3)),
		"unique-string": expr.Ge(expr.Col("uniq"), expr.ConstStr("unique-5")),
		"cross-column":  cross,
		"bool":          bools,
		"nullable-int":  nulls,
		"nullable-str":  expr.Ne(expr.Col("ns"), expr.ConstStr("s3")),
		"null-vs-typed": expr.And(nulls, expr.Lt(expr.Col("ni"), expr.Col("lowi"))),
		"mixed":         expr.And(lows, lowi, seqi, cross),
		"nested-and":    expr.And(expr.And(lowi, bools), expr.And(nulls, cross)),
	}
}

// TestColumnarBuildMatchesRowwiseRandom: random dimensions — empty, small,
// and past the dictionary cap; unique keys and duplicate, negative ones —
// under every predicate shape and a random aux projection (none, some, or
// columns the predicate also reads).
func TestColumnarBuildMatchesRowwiseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 15})
	node := c.Nodes()[0]
	preds := randomDimPreds()
	for ti, tc := range []struct {
		rows    int
		dupKeys bool
	}{{0, false}, {1, false}, {700, false}, {700, true}, {5000, false}, {5000, true}} {
		d := genRandomDim(rng, tc.rows, tc.dupKeys)
		dir := fmt.Sprintf("/dims/t%d", ti)
		if _, err := colstore.WriteRowTable(fs, dir, d.schema, func(emit func(records.Record) error) error {
			for _, r := range d.rows {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for name, pred := range preds {
			var aux []string
			for i := 0; i < d.schema.Len(); i++ {
				if f := d.schema.Field(i); f.Name != "k" && rng.Intn(3) == 0 {
					aux = append(aux, f.Name)
				}
			}
			spec := &core.DimSpec{
				Table:  fmt.Sprintf("t%d/%s", ti, name),
				Schema: d.schema, FactFK: "fk", DimPK: "k", Pred: pred, Aux: aux,
			}
			h := checkBuildAgainstRowwise(t, fs, node, dir, spec)
			switch name {
			case "keeps-nothing":
				if h.Len() != 0 {
					t.Errorf("%s: %d entries", spec.Table, h.Len())
				}
			case "none", "true", "keeps-all":
				if h.Stats.RowsKept != int64(tc.rows) {
					t.Errorf("%s: kept %d of %d rows", spec.Table, h.Stats.RowsKept, tc.rows)
				}
			}
		}
	}
}

// writeCustomers stores the SSB customer dimension alone, n·30 000 rows.
func writeCustomers(t testing.TB, fs *hdfs.FileSystem, dir string, dimScale float64) {
	t.Helper()
	gen := ssb.NewBenchGenerator(dimScale, 1, 11)
	if _, err := colstore.WriteRowTable(fs, dir, ssb.CustomerSchema, func(emit func(records.Record) error) error {
		return gen.Each(ssb.TableCustomer, emit)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCustomerBuildAllocations guards what the columnar build buys with a
// count instead of a stopwatch: building Q3.1's customer table allocates a
// fixed, small number of objects — the selection, the code and key vectors,
// the table's three arrays, two small dictionaries — however many customers
// there are. (The row-wise build allocated several per row: every record's
// values and each of its strings.)
func TestCustomerBuildAllocations(t *testing.T) {
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := q.Dim(ssb.TableCustomer)
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 1})
	node := c.Nodes()[0]
	allocs := map[string]float64{}
	for dir, scale := range map[string]float64{"/small": 0.1, "/large": 1} {
		writeCustomers(t, fs, dir, scale)
		if _, err := core.EnsureCatalogCached(fs, &core.Catalog{DimDirs: map[string]string{"customer": dir}}); err != nil {
			t.Fatal(err)
		}
		dir := dir
		allocs[dir] = testing.AllocsPerRun(5, func() {
			h, err := core.BuildDimHashTable(fs, node, dir, spec)
			if err != nil || h.Len() == 0 {
				t.Errorf("build from %s: %d entries, err %v", dir, h.Len(), err)
			}
		})
	}
	const budget = 70 // 45 when written
	if allocs["/large"] > budget {
		t.Errorf("customer build allocates %.0f objects for 30000 rows, budget %d", allocs["/large"], budget)
	}
	if allocs["/large"] != allocs["/small"] {
		t.Errorf("customer build allocations grow with the table: %.0f for 3000 rows, %.0f for 30000", allocs["/small"], allocs["/large"])
	}
}

// TestConcurrentBuildsShareOneRecopy: after the node-local copy is lost (a
// failed disk, a revived node), builds that miss it at the same time scan
// the master once and write one copy.
func TestConcurrentBuildsShareOneRecopy(t *testing.T) {
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := q.Dim(ssb.TableCustomer)
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 1})
	node := c.Nodes()[0]
	const dir = "/customer"
	writeCustomers(t, fs, dir, 0.1)
	if n, err := core.EnsureCatalogCached(fs, &core.Catalog{DimDirs: map[string]string{"customer": dir}}); err != nil || n != 1 {
		t.Fatalf("first copy: %d nodes, err %v", n, err)
	}
	blob, _ := node.GetLocal("clydesdale/dimcache" + dir + "@1")
	oneCopy := int64(len(blob))
	reads := fs.Metrics().Snapshot()
	oneScan := reads.LocalBytesRead + reads.RemoteBytesRead

	for round := 0; round < 3; round++ {
		if core.DropDimCached(c, dir) != 1 {
			t.Fatal("no copy to drop")
		}
		writesBefore := node.Stats().DiskWriteBytes
		before := fs.Metrics().Snapshot()
		const builders = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		lens := make([]int, builders)
		for i := 0; i < builders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				h, err := core.BuildDimHashTable(fs, node, dir, spec)
				if err != nil {
					t.Error(err)
					return
				}
				lens[i] = h.Len()
			}(i)
		}
		close(start)
		wg.Wait()
		if wrote := node.Stats().DiskWriteBytes - writesBefore; wrote != oneCopy {
			t.Errorf("round %d: %d builds wrote %d bytes to the node's disk, one copy is %d", round, builders, wrote, oneCopy)
		}
		after := fs.Metrics().Snapshot()
		if read := after.LocalBytesRead + after.RemoteBytesRead - before.LocalBytesRead - before.RemoteBytesRead; read != oneScan {
			t.Errorf("round %d: %d builds read %d bytes of the master, one scan is %d", round, builders, read, oneScan)
		}
		for i, n := range lens {
			if n != lens[0] || n == 0 {
				t.Errorf("round %d: build %d has %d entries, build 0 has %d", round, i, n, lens[0])
			}
		}
	}
}

// TestDamagedLocalCopyIsRecopiedOnce: a node-local copy that fails its
// checks is replaced from the master and the build succeeds (§4); when the
// replacement is no better — here, the caller's schema disagrees with the
// table, so no copy can satisfy it — the build fails with an error naming
// the cause instead of looping.
func TestDamagedLocalCopyIsRecopiedOnce(t *testing.T) {
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := q.Dim(ssb.TableCustomer)
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 1})
	node := c.Nodes()[0]
	const dir = "/customer"
	writeCustomers(t, fs, dir, 0.1)
	want, err := core.BuildDimHashTable(fs, node, dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	key := "clydesdale/dimcache" + dir + "@1"
	good, ok := node.GetLocal(key)
	if !ok {
		t.Fatal("no local copy after a build")
	}
	damage := map[string]func([]byte) []byte{
		"truncated":       func(b []byte) []byte { return b[:len(b)/2] },
		"directory flip":  func(b []byte) []byte { b[10] ^= 4; return b },
		"key column flip": func(b []byte) []byte { b[len(b)-len(b)/3] ^= 1; return b },
		"last byte flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b },
		"not a copy":      func([]byte) []byte { return []byte("rows in some older encoding") },
	}
	for name, f := range damage {
		if err := node.PutLocal(key, f(append([]byte(nil), good...))); err != nil {
			t.Fatal(err)
		}
		writesBefore := node.Stats().DiskWriteBytes
		h, err := core.BuildDimHashTable(fs, node, dir, spec)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if h.Len() != want.Len() || h.MemBytes != want.MemBytes {
			t.Errorf("%s: rebuilt table has %d entries/%d bytes, want %d/%d", name, h.Len(), h.MemBytes, want.Len(), want.MemBytes)
		}
		// "last byte flip" may land in a column Q3.1 does not read: then the
		// build never notices, and rightly does not re-copy.
		if wrote := node.Stats().DiskWriteBytes - writesBefore; wrote != int64(len(good)) && name != "last byte flip" {
			t.Errorf("%s: re-copy wrote %d bytes, one copy is %d", name, wrote, len(good))
		}
	}

	other := *spec
	other.Schema = records.NewSchema(records.F("c_custkey", records.KindInt64), records.F("c_nation", records.KindString), records.F("c_region", records.KindString))
	writesBefore := node.Stats().DiskWriteBytes
	_, err = core.BuildDimHashTable(fs, node, dir, &other)
	if !errors.Is(err, colstore.ErrBadColumnSet) {
		t.Fatalf("build against a schema the table does not have: err = %v", err)
	}
	if wrote := node.Stats().DiskWriteBytes - writesBefore; wrote != int64(len(good)) {
		t.Errorf("failed build wrote %d bytes, want exactly one re-copy of %d", wrote, len(good))
	}
}

// BenchmarkDimBuildFromLocal measures a node's §6.3 build phase end to end
// — open the node-local copy, select, decode, insert — for the four tables
// the repository benchmark times (core.build_*_ms), at its dimension sizes:
// 30 000 customers, 2 000 suppliers, 2 200 parts, 2 556 dates.
func BenchmarkDimBuildFromLocal(b *testing.B) {
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{Seed: 1})
	node := c.Nodes()[0]
	gen := ssb.NewBenchGenerator(1, 1, 11)
	for _, bc := range []struct{ query, table string }{
		{"Q3.1", ssb.TableCustomer}, {"Q3.1", ssb.TableSupplier}, {"Q3.1", ssb.TableDate}, {"Q2.1", ssb.TablePart},
	} {
		q, err := ssb.QueryByName(bc.query)
		if err != nil {
			b.Fatal(err)
		}
		spec := q.Dim(bc.table)
		dir := "/" + bc.query + "/" + bc.table
		if _, err := colstore.WriteRowTable(fs, dir, spec.Schema, func(emit func(records.Record) error) error {
			return gen.Each(bc.table, emit)
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := core.EnsureCatalogCached(fs, &core.Catalog{DimDirs: map[string]string{bc.table: dir}}); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.query+"/"+bc.table, func(b *testing.B) {
			b.ReportAllocs()
			entries := 0
			for i := 0; i < b.N; i++ {
				h, err := core.BuildDimHashTable(fs, node, dir, spec)
				if err != nil {
					b.Fatal(err)
				}
				entries += h.Len()
			}
			if entries == 0 {
				b.Fatal("empty tables")
			}
		})
	}
}
