package core

import (
	"errors"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// tableCacheFixture is one node, one ten-row dimension in HDFS with no
// node-local copy yet, and a spec building the whole of it.
func tableCacheFixture(t *testing.T) (*cluster.Cluster, *hdfs.FileSystem, string, *DimSpec) {
	t.Helper()
	schema := records.NewSchema(records.F("k", records.KindInt64), records.F("name", records.KindString))
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 1})
	const dir = "/t/dim"
	if _, err := colstore.WriteRowTable(fs, dir, schema, func(emit func(records.Record) error) error {
		for i := int64(0); i < 10; i++ {
			if err := emit(records.Make(schema, records.Int(i), records.Str("n"))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c, fs, dir, &DimSpec{Table: "dim", Schema: schema, FactFK: "fk", DimPK: "k", Aux: []string{"name"}, Version: 1}
}

// holdFirstRead is an HDFS read hook that announces the first block read and
// holds it until released: the build that has to copy the dimension to its
// node stays in flight for as long as the test wants.
type holdFirstRead struct {
	once             sync.Once
	entered, release chan struct{}
}

func (h *holdFirstRead) BeforeBlockRead(string, int64) error {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return nil
}

// TestTableCacheSingleflight: sixteen tasks want one (node, key) while its
// build is held. The table is built once, and everyone probes the one
// instance under the one reservation: one miss, fifteen hits.
func TestTableCacheSingleflight(t *testing.T) {
	c, fs, dir, spec := tableCacheFixture(t)
	node := c.Nodes()[0]
	tc := NewTableCache(c, 1<<20)
	key := TableKey(dir, spec)
	hook := &holdFirstRead{entered: make(chan struct{}), release: make(chan struct{})}
	fs.SetReadFaultInjector(hook)

	const callers = 16
	jctx := &mr.JobContext{FS: fs}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tables []*DimHashTable
	var releases []func()
	builds := 0
	for i := 0; i < callers; i++ {
		ctx := mr.NewTestTaskContext(jctx, node)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ht, built, release, err := tc.acquire(ctx, dir, key, spec)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			tables = append(tables, ht)
			releases = append(releases, release)
			if built {
				builds++
			}
		}()
	}
	<-hook.entered // the winner is copying the dimension; the rest pile up behind it
	close(hook.release)
	wg.Wait()
	if len(tables) != callers {
		t.Fatalf("%d of %d callers got a table", len(tables), callers)
	}

	st := tc.Stats()
	if builds != 1 || st.Builds != 1 || st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("%d callers report a build; stats %+v; want one build, one miss, %d hits", builds, st, callers-1)
	}
	if n := jctx.Counters.Get(CtrHashTablesBuilt); n != 1 {
		t.Errorf("%s = %d, want one BuildDimHashTable", CtrHashTablesBuilt, n)
	}
	for _, ht := range tables {
		if ht != tables[0] {
			t.Fatal("callers got different table instances")
		}
	}
	if used := node.MemoryUsed(); used != tables[0].MemBytes || st.ResidentBytes != used {
		t.Errorf("node holds %d bytes, cache says %d resident, one table is %d", used, st.ResidentBytes, tables[0].MemBytes)
	}
	for _, release := range releases {
		release()
	}
	tc.Close()
	if used := node.MemoryUsed(); used != 0 {
		t.Errorf("node holds %d bytes after Close", used)
	}
}

// TestTableCacheRetriesAfterError: a failed build (here the node has no
// memory left to reserve the table in) is not cached. The next task retries
// it and can succeed, and the one after that shares the success.
func TestTableCacheRetriesAfterError(t *testing.T) {
	c, fs, dir, spec := tableCacheFixture(t)
	node := c.Nodes()[0]
	tc := NewTableCache(c, 1<<20)
	defer tc.Close()
	key := TableKey(dir, spec)
	ctx := mr.NewTestTaskContext(&mr.JobContext{FS: fs}, node)

	all := c.Config().MemoryPerNode
	if err := node.ReserveMemory(all); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tc.acquire(ctx, dir, key, spec); !errors.Is(err, ErrOOM) {
		t.Fatalf("acquire on a full node: %v, want ErrOOM", err)
	}
	if tc.ResidentEverywhere(key, []string{node.ID()}) || node.MemoryUsed() != all {
		t.Fatalf("the failed build left something behind: node holds %d of %d bytes", node.MemoryUsed(), all)
	}
	node.ReleaseMemory(all)

	ht, built, release, err := tc.acquire(ctx, dir, key, spec)
	if err != nil || !built || ht.Len() != 10 {
		t.Fatalf("retry after error: table %v built=%v err=%v", ht, built, err)
	}
	release()
	// And a third task on the same node now shares the cached success.
	ht2, built2, release2, err := tc.acquire(ctx, dir, key, spec)
	if err != nil || built2 || ht2 != ht {
		t.Fatalf("cached success not shared: built=%v err=%v", built2, err)
	}
	release2()
	if st := tc.Stats(); st.Misses != 2 || st.Builds != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want two misses, one build, one hit", st)
	}
}
