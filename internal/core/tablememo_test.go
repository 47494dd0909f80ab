package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// pinnedDims returns the build specs the engine runs q with, at the
// versions a query pinned now would read.
func pinnedDims(t *testing.T, eng *core.Engine, q *core.Query) []core.DimSpec {
	t.Helper()
	l, err := core.LogicalOf(q, eng.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(l)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := eng.Pin(p.Shape)
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	return pin.DimSpecs(p.Steps)
}

// sameTable fails the test unless got answers as want does: the same Len,
// MemBytes and Stats, and the same Probe answer for every key want holds
// and for keys it does not.
func sameTable(t *testing.T, what string, got, want *core.DimHashTable) {
	t.Helper()
	if got.Len() != want.Len() || got.MemBytes != want.MemBytes || got.Stats != want.Stats {
		t.Fatalf("%s: %d entries, %d bytes, %+v; a fresh build has %d, %d, %+v",
			what, got.Len(), got.MemBytes, got.Stats, want.Len(), want.MemBytes, want.Stats)
	}
	var maxKey int64
	want.Each(func(k int64, wantAux []records.Value) {
		maxKey = max(maxKey, k)
		gotAux, ok := got.Probe(k)
		if !ok || len(gotAux) != len(wantAux) {
			t.Fatalf("%s: Probe(%d) = (%v, %v), a fresh build has %v", what, k, gotAux, ok, wantAux)
		}
		for i := range gotAux {
			if gotAux[i].String() != wantAux[i].String() {
				t.Fatalf("%s: Probe(%d) = %v, a fresh build has %v", what, k, gotAux, wantAux)
			}
		}
	})
	for _, k := range []int64{-1, 0, maxKey + 1} {
		_, gotOK := got.Probe(k)
		if _, wantOK := want.Probe(k); gotOK != wantOK {
			t.Fatalf("%s: Probe(%d) hit = %v, a fresh build says %v", what, k, gotOK, wantOK)
		}
	}
}

// statsSince is what a node was charged between two snapshots.
func statsSince(before, after cluster.Stats) cluster.Stats {
	return cluster.Stats{
		DiskReadBytes:  after.DiskReadBytes - before.DiskReadBytes,
		DiskWriteBytes: after.DiskWriteBytes - before.DiskWriteBytes,
		NetBytes:       after.NetBytes - before.NetBytes,
		ModelTime:      after.ModelTime - before.ModelTime,
	}
}

// TestOneBuildServesEveryNode: four nodes' builds of one (version, spec)
// make its table once, through the engine's memo, yet the job counts four
// builds and every node is charged what a build of its own costs it. A
// star job on the engine takes its tables from the same memo.
func TestOneBuildServesEveryNode(t *testing.T) {
	e := newEnv(t, 4, 0.002)
	tc := core.NewTableCache(e.cluster, 1<<30)
	defer tc.Close()
	eng := e.engine(core.Options{Tables: tc})
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	dims := pinnedDims(t, eng, q)
	cat := eng.Catalog()
	if _, err := core.EnsureCatalogCached(e.fs, cat); err != nil {
		t.Fatal(err)
	}
	nodes := e.cluster.Nodes()
	memo := &core.TableMemo{}
	for i := range dims {
		d := &dims[i]
		dir := cat.DimDirs[d.Table]
		jctx := &mr.JobContext{FS: e.fs}
		var first *core.DimHashTable
		for _, node := range nodes {
			before := node.Stats()
			h, err := core.BuildDim(mr.NewTestTaskContext(jctx, node), memo, dir, d)
			if err != nil {
				t.Fatal(err)
			}
			memoCharge := node.Stats()
			fresh, err := core.BuildDimHashTable(e.fs, node, dir, d)
			if err != nil {
				t.Fatal(err)
			}
			freshCharge := node.Stats()
			if memoBuild, ownBuild := statsSince(before, memoCharge), statsSince(memoCharge, freshCharge); memoBuild != ownBuild || memoBuild.DiskReadBytes == 0 {
				t.Errorf("%s on %s: the memoized build charged %+v, a build of its own %+v", d.Table, node.ID(), memoBuild, ownBuild)
			}
			sameTable(t, d.Table+" on "+node.ID(), h, fresh)
			if first == nil {
				first = h
			} else if !core.SameArrays(h, first) {
				t.Errorf("%s on %s: built a table of its own", d.Table, node.ID())
			}
		}
		n := int64(len(nodes))
		if got := jctx.Counters.Get(core.CtrHashTablesBuilt); got != n {
			t.Errorf("%s: %s = %d for %d nodes", d.Table, core.CtrHashTablesBuilt, got, n)
		}
		if got := jctx.Counters.Get(core.CtrDimBytesRead + "." + d.Table); got != n*first.Stats.BytesRead {
			t.Errorf("%s: %d bytes read counted, %d nodes read %d each", d.Table, got, n, first.Stats.BytesRead)
		}
	}

	rs, rep, err := eng.Run(context.Background(), q)
	if err != nil || len(rs.Rows) == 0 {
		t.Fatalf("Q3.1: %d rows, %v", len(rs.Rows), err)
	}
	if n := eng.BuiltTables(); n != len(dims) {
		t.Errorf("the engine's memo holds %d tables after Q3.1, want one per dimension (%d)", n, len(dims))
	}
	var builds int64
	for i := range dims {
		d := &dims[i]
		dir := cat.DimDirs[d.Table]
		shared := eng.BuiltTable(dir, d)
		if shared == nil {
			t.Fatalf("%s: no table in the engine's memo", d.Table)
		}
		for _, node := range nodes {
			if h := tc.Held(node.ID(), core.TableKey(dir, d)); h != nil {
				builds++
				if !core.SameArrays(h, shared) {
					t.Errorf("%s on %s: the job built a table of its own", d.Table, node.ID())
				}
			}
		}
	}
	if got := rep.Job.Counters.Get(core.CtrHashTablesBuilt); got != builds || builds == 0 {
		t.Errorf("%s = %d, the nodes' caches hold %d tables", core.CtrHashTablesBuilt, got, builds)
	}
}

// TestMemoHitMatchesFreshBuild: for every dimension spec of the 13 SSB
// queries, a node's build that takes the table another node's build put in
// the memo answers exactly as a build of its own.
func TestMemoHitMatchesFreshBuild(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	cat := eng.Catalog()
	if _, err := core.EnsureCatalogCached(e.fs, cat); err != nil {
		t.Fatal(err)
	}
	memo := &core.TableMemo{}
	n0, n1 := e.cluster.Nodes()[0], e.cluster.Nodes()[1]
	for _, q := range ssb.Queries() {
		dims := pinnedDims(t, eng, q)
		for i := range dims {
			d := &dims[i]
			dir := cat.DimDirs[d.Table]
			filled, err := core.NodeBuild(e.fs, n0, dir, d, memo)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := core.NodeBuild(e.fs, n1, dir, d, memo)
			if err != nil {
				t.Fatal(err)
			}
			if !core.SameArrays(hit, filled) {
				t.Fatalf("%s %s: the second build missed the memo", q.Name, d.Table)
			}
			fresh, err := core.BuildDimHashTable(e.fs, n1, dir, d)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, q.Name+" "+d.Table, hit, fresh)
		}
	}
}

// TestDamagedLocalCopyIsRecopiedOnMemoHit runs every case of
// TestDamagedLocalCopyIsRecopiedOnce after a warm build: the memo holds the
// table, and a damaged copy is still caught, dropped and re-copied once.
func TestDamagedLocalCopyIsRecopiedOnMemoHit(t *testing.T) {
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
	memo := &core.TableMemo{}
	want, err := core.NodeBuild(fs, node, dir, spec, memo)
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
		h, err := core.NodeBuild(fs, node, dir, spec, memo)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !core.SameArrays(h, want) {
			t.Errorf("%s: the build after the re-copy missed the memo", name)
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
	if _, err := core.NodeBuild(fs, node, dir, &other, memo); !errors.Is(err, colstore.ErrBadColumnSet) {
		t.Fatalf("build against a schema the table does not have: err = %v", err)
	}
	if wrote := node.Stats().DiskWriteBytes - writesBefore; wrote != int64(len(good)) {
		t.Errorf("failed build wrote %d bytes, want exactly one re-copy of %d", wrote, len(good))
	}
}

// memoFixture is a dimension of ten rows (k, name, city) in HDFS, cached on
// every node of a cluster of the given size, and a spec keeping its name.
func memoFixture(t *testing.T, nodes int) (*cluster.Cluster, *hdfs.FileSystem, string, *core.DimSpec) {
	t.Helper()
	schema := records.NewSchema(records.F("k", records.KindInt64), records.F("name", records.KindString), records.F("city", records.KindString))
	c := cluster.New(cluster.Testing(nodes))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 1})
	const dir = "/t/dim"
	if _, err := colstore.WriteRowTable(fs, dir, schema, func(emit func(records.Record) error) error {
		for i := int64(0); i < 10; i++ {
			if err := emit(records.Make(schema, records.Int(i), records.Str("name"), records.Str("city"))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.EnsureCatalogCached(fs, &core.Catalog{DimDirs: map[string]string{"dim": dir}}); err != nil {
		t.Fatal(err)
	}
	return c, fs, dir, &core.DimSpec{Table: "dim", Schema: schema, FactFK: "fk", DimPK: "k", Aux: []string{"name"}, Version: 1}
}

// TestMemoSeparatesSchemas: two schemas that open the same copy and share
// a fingerprint — the aux column is "name" in both, but a different column
// of the copy — never share a table.
func TestMemoSeparatesSchemas(t *testing.T) {
	c, fs, dir, spec := memoFixture(t, 1)
	node := c.Nodes()[0]
	swapped := *spec
	swapped.Schema = records.NewSchema(records.F("k", records.KindInt64), records.F("city", records.KindString), records.F("name", records.KindString))
	if spec.Fingerprint() != swapped.Fingerprint() {
		t.Fatal("fixture: the two specs' fingerprints differ")
	}
	memo := &core.TableMemo{}
	a, err := core.NodeBuild(fs, node, dir, spec, memo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NodeBuild(fs, node, dir, &swapped, memo)
	if err != nil {
		t.Fatal(err)
	}
	if core.SameArrays(a, b) || memo.Len() != 2 {
		t.Fatalf("two schemas share a table: %d tables in the memo", memo.Len())
	}
	if aux, ok := b.Probe(3); !ok || aux[0].String() != "city" {
		t.Errorf("Probe(3) under the swapped schema = %v, want the copy's second column", aux)
	}
	fresh, err := core.BuildDimHashTable(fs, node, dir, &swapped)
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, "swapped schema", b, fresh)
}

// TestDimRollInRetiresBuiltTables: the engine's memo keeps each dimension's
// newest version only, so a dimension roll-in followed by a query leaves
// the memo holding what it held before, all of it at the new version.
func TestDimRollInRetiresBuiltTables(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	old := pinnedDims(t, eng, q)
	held := eng.BuiltTables()
	if held != len(old) {
		t.Fatalf("the memo holds %d tables after one query over %d dimensions", held, len(old))
	}
	dir := eng.Catalog().DimDirs[ssb.TableCustomer]
	if _, err := eng.Snapshots().AppendRows(dir, func(emit func(records.Record) error) error {
		return emit(e.gen.Customer(0))
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := eng.BuiltTables(); n != held {
		t.Errorf("the memo holds %d tables after the roll-in and a query, %d before", n, held)
	}
	for i, d := range pinnedDims(t, eng, q) {
		if eng.BuiltTable(eng.Catalog().DimDirs[d.Table], &d) == nil {
			t.Errorf("%s@%d: not in the memo", d.Table, d.Version)
		}
		if d.Table == ssb.TableCustomer {
			if d.Version == old[i].Version {
				t.Fatal("fixture: the roll-in did not make a new customer version")
			}
			if eng.BuiltTable(dir, &old[i]) != nil {
				t.Errorf("customer@%d is still in the memo at version %d", old[i].Version, d.Version)
			}
		}
	}
}

// TestConcurrentFirstBuildsShareOne: eight nodes' first builds of one spec,
// started together through one memo, make one table and all get it.
func TestConcurrentFirstBuildsShareOne(t *testing.T) {
	c, fs, dir, spec := memoFixture(t, 8)
	memo := &core.TableMemo{}
	nodes := c.Nodes()
	tables := make([]*core.DimHashTable, len(nodes))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *cluster.Node) {
			defer wg.Done()
			<-start
			h, err := core.NodeBuild(fs, node, dir, spec, memo)
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = h
		}(i, node)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, h := range tables {
		if !core.SameArrays(h, tables[0]) || h.Len() != 10 {
			t.Errorf("node %d: %d entries, shared with node 0: %v", i, h.Len(), core.SameArrays(h, tables[0]))
		}
	}
	if memo.Len() != 1 {
		t.Errorf("the memo holds %d tables, want 1", memo.Len())
	}
}
