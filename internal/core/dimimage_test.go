package core_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// writeCharges renders what every node and the filesystem were charged
// between two snapshots, one line each, under a step name.
func writeCharges(b *strings.Builder, step string, c *cluster.Cluster, before []cluster.Stats, fsBefore hdfs.MetricsSnapshot, fs *hdfs.FileSystem) {
	for i, n := range c.Nodes() {
		d := statsSince(before[i], n.Stats())
		fmt.Fprintf(b, "%s %s disk_read=%d disk_write=%d net=%d model_ns=%d\n", step, n.ID(), d.DiskReadBytes, d.DiskWriteBytes, d.NetBytes, int64(d.ModelTime))
	}
	m := fs.Metrics().Snapshot()
	fmt.Fprintf(b, "%s hdfs local_bytes=%d remote_bytes=%d written=%d local_reads=%d remote_reads=%d failovers=%d crc_failures=%d rereplications_failed=%d\n", step,
		m.LocalBytesRead-fsBefore.LocalBytesRead, m.RemoteBytesRead-fsBefore.RemoteBytesRead, m.BytesWritten-fsBefore.BytesWritten,
		m.LocalReads-fsBefore.LocalReads, m.RemoteReads-fsBefore.RemoteReads, m.Failovers-fsBefore.Failovers,
		m.CRCFailures-fsBefore.CRCFailures, m.RereplicationsFailed-fsBefore.RereplicationsFailed)
}

func nodeStats(c *cluster.Cluster) []cluster.Stats {
	var out []cluster.Stats
	for _, n := range c.Nodes() {
		out = append(out, n.Stats())
	}
	return out
}

// rollInCustomers appends n new customers to the customer dimension as its
// next version, as a serving session's RollIn of a dimension does (the
// registry's AppendRows).
func rollInCustomers(t *testing.T, e *env, eng *core.Engine, n int64) {
	t.Helper()
	dir := eng.Catalog().DimDirs[ssb.TableCustomer]
	if _, err := eng.Snapshots().AppendRows(dir, func(emit func(records.Record) error) error {
		for i := e.gen.CustomerRows(); i < e.gen.CustomerRows()+n; i++ {
			if err := emit(e.gen.Customer(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDimImageChargesGolden pins what the dimension cache charges on a
// four-node filesystem with two engines over it: every node's cluster.Stats
// and the filesystem's hdfs.Metrics, for EnsureCatalogCached and for the
// first query on each engine after a customer roll-in (the driver's reads
// of the new version, and each node's fill of it). The golden was taken
// before the column image of a dimension version was shared on the
// filesystem, so sharing it moved no charge: each node's fill still reads
// the version through HDFS as its own client, and each engine's driver its
// own copy. Every image is encoded once, across nodes, driver and engines.
func TestDimImageChargesGolden(t *testing.T) {
	e := newEnv(t, 4, 0.002)
	eng1, eng2 := e.engine(core.Options{}), e.engine(core.Options{})
	cat := eng1.Catalog()
	var b strings.Builder

	before, fsBefore := nodeStats(e.cluster), e.fs.Metrics().Snapshot()
	if _, err := core.EnsureCatalogCached(e.fs, cat); err != nil {
		t.Fatal(err)
	}
	writeCharges(&b, "cache", e.cluster, before, fsBefore, e.fs)

	rollInCustomers(t, e, eng1, 50)
	// The query's dimension work, as a query does it but in a fixed order:
	// each engine's driver reads the new customer version (admission,
	// pushdowns), then every node builds its tables from its copy, filling
	// it from HDFS. Which nodes a real job's tasks land on varies from run
	// to run, so the job itself runs after the charges are taken.
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	before, fsBefore = nodeStats(e.cluster), e.fs.Metrics().Snapshot()
	for _, eng := range []*core.Engine{eng1, eng2} {
		dims := pinnedDims(t, eng, q)
		for i := range dims {
			if _, err := eng.DimTableBytes(&dims[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, node := range e.cluster.Nodes() {
			for i := range dims {
				if _, err := core.BuildDimHashTable(e.fs, node, cat.DimDirs[dims[i].Table], &dims[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	writeCharges(&b, "rollin-query", e.cluster, before, fsBefore, e.fs)
	for _, eng := range []*core.Engine{eng1, eng2} {
		if rs, _, err := eng.Run(context.Background(), q); err != nil || len(rs.Rows) == 0 {
			t.Fatalf("Q3.1 after the roll-in: %d rows, %v", len(rs.Rows), err)
		}
	}

	// customer, supplier, part and date at version 1, customer at 2.
	if got := core.ImagesEncoded(e.fs); got != 5 {
		t.Errorf("%d dimension images encoded for five versions", got)
	}

	const path = "testdata/dim_image_charges.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("dimension cache charges differ from %s (regenerate with -update only for an intended change)\ngot:\n%swant:\n%s", path, got, want)
	}
}

// imageFixture writes keys [lo, hi) as version 1 of a row table on a
// cluster of the given size, caching nothing, and returns the spec of a
// node build of that version.
func imageFixture(t *testing.T, nodes int, lo, hi int64) (*cluster.Cluster, *hdfs.FileSystem, string, *core.DimSpec) {
	t.Helper()
	schema := records.NewSchema(records.F("k", records.KindInt64), records.F("name", records.KindString))
	c := cluster.New(cluster.Testing(nodes))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 5})
	const dir = "/t/dim"
	if _, err := colstore.WriteRowTable(fs, dir, schema, dimRows(schema, lo, hi)); err != nil {
		t.Fatal(err)
	}
	return c, fs, dir, &core.DimSpec{Table: "dim", Schema: schema, FactFK: "fk", DimPK: "k", Aux: []string{"name"}, Version: 1}
}

func dimRows(schema *records.Schema, lo, hi int64) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for k := lo; k < hi; k++ {
			if err := emit(records.Make(schema, records.Int(k), records.Str(fmt.Sprintf("n%d", k)))); err != nil {
				return err
			}
		}
		return nil
	}
}

// holdsKeys fails the test unless node's build of spec from its copy holds
// exactly the keys [lo, hi).
func holdsKeys(t *testing.T, fs *hdfs.FileSystem, node *cluster.Node, dir string, spec *core.DimSpec, lo, hi int64) {
	t.Helper()
	h, err := core.BuildDimHashTable(fs, node, dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != int(hi-lo) {
		t.Errorf("%s: version %d's table holds %d keys, want [%d,%d)", node.ID(), spec.Version, h.Len(), lo, hi)
	}
	for k := lo; k < hi; k++ {
		if _, ok := h.Probe(k); !ok {
			t.Errorf("%s: version %d's table lacks key %d", node.ID(), spec.Version, k)
		}
	}
}

// TestMemoizedImageFillFailsOver: with the version's image already encoded,
// a node's fill still reads the part file through HDFS with every check. A
// corrupt replica it would read is caught by the CRC and failed over, and
// with every replica corrupt the fill fails.
func TestMemoizedImageFillFailsOver(t *testing.T) {
	c, fs, dir, spec := imageFixture(t, 4, 0, 10)
	if _, err := core.EnsureCatalogCached(fs, &core.Catalog{DimDirs: map[string]string{"dim": dir}}); err != nil {
		t.Fatal(err)
	}
	path := dir + "/part-00000"
	node := c.Nodes()[1]
	hosts := func() []string {
		locs, err := fs.BlockLocations(path, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return locs[0].Hosts
	}
	serving := hosts()[0]
	if slices.Contains(hosts(), node.ID()) {
		serving = node.ID()
	}
	if _, err := fs.CorruptReplica(path, 0, serving); err != nil {
		t.Fatal(err)
	}
	core.DropDimCached(c, dir)
	before := fs.Metrics().Snapshot()
	holdsKeys(t, fs, node, dir, spec, 0, 10)
	after := fs.Metrics().Snapshot()
	if crc, fo := after.CRCFailures-before.CRCFailures, after.Failovers-before.Failovers; crc != 1 || fo != 1 {
		t.Errorf("the fill over a corrupt replica counted %d CRC failures and %d failovers, want 1 and 1", crc, fo)
	}

	for _, h := range hosts() {
		if _, err := fs.CorruptReplica(path, 0, h); err != nil {
			t.Fatal(err)
		}
	}
	core.DropDimCached(c, dir)
	if _, err := core.BuildDimHashTable(fs, node, dir, spec); err == nil {
		t.Error("a fill with every replica of the part file corrupt succeeded")
	}
	if got := core.ImagesEncoded(fs); got != 1 {
		t.Errorf("%d images encoded, want the one EnsureCatalogCached encoded", got)
	}
}

// TestRewrittenDimensionGetsNewImage: a dimension deleted and written again
// with as many part files, so at the same version, is new bytes: the next
// fill's image holds the new rows, not the memoized old ones.
func TestRewrittenDimensionGetsNewImage(t *testing.T) {
	c, fs, dir, spec := imageFixture(t, 2, 0, 10)
	node := c.Nodes()[0]
	holdsKeys(t, fs, node, dir, spec, 0, 10)
	fs.DeletePrefix(dir + "/")
	if _, err := colstore.WriteRowTable(fs, dir, spec.Schema, dimRows(spec.Schema, 100, 110)); err != nil {
		t.Fatal(err)
	}
	core.DropDimCached(c, dir)
	holdsKeys(t, fs, node, dir, spec, 100, 110)
	if got := core.ImagesEncoded(fs); got != 2 {
		t.Errorf("%d images encoded, want one per content", got)
	}
}

// TestOlderVersionImageIsNotKept: a fill at a version older than the newest
// one read, as a query still pinned there makes, gets that version's rows,
// and its image is not kept beside the newest one.
func TestOlderVersionImageIsNotKept(t *testing.T) {
	c, fs, dir, v1 := imageFixture(t, 3, 0, 10)
	if _, err := colstore.NewSnapshots(fs).AppendRows(dir, dimRows(v1.Schema, 10, 20)); err != nil {
		t.Fatal(err)
	}
	v2 := *v1
	v2.Version = 2
	nodes := c.Nodes()
	holdsKeys(t, fs, nodes[0], dir, &v2, 0, 20)
	for i, node := range nodes[1:] {
		holdsKeys(t, fs, node, dir, v1, 0, 10)
		if got, want := core.ImagesEncoded(fs), int64(2+i); got != want {
			t.Errorf("after %d fills at version 1: %d images encoded, want %d (one each: none is kept)", i+1, got, want)
		}
	}
	holdsKeys(t, fs, nodes[2], dir, &v2, 0, 20)
	if got := core.ImagesEncoded(fs); got != 3 {
		t.Errorf("%d images encoded, want version 2's image still kept", got)
	}
}

// TestRacingFillsEncodeOnce: eight nodes' first fills of one version, all
// at once, encode its image once and store the same bytes.
func TestRacingFillsEncodeOnce(t *testing.T) {
	c, fs, dir, spec := imageFixture(t, 8, 0, 500)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, node := range c.Nodes() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := core.BuildDimHashTable(fs, node, dir, spec); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := core.ImagesEncoded(fs); got != 1 {
		t.Errorf("8 racing fills encoded %d images, want 1", got)
	}
	var first []byte
	for _, node := range c.Nodes() {
		data, ok := node.GetLocal("clydesdale/dimcache" + dir + "@1")
		if !ok {
			t.Fatalf("%s holds no copy", node.ID())
		}
		if first == nil {
			first = data
		} else if &data[0] != &first[0] {
			t.Errorf("%s stores a copy of its own", node.ID())
		}
	}
}

// BenchmarkEnsureCatalogCached times copying the four SSB dimensions of the
// repository benchmark's cluster (30 000 customers, 2 000 suppliers, 2 200
// parts, 2 556 dates) to four nodes. cold-image runs on a filesystem whose
// dimension images no one has read, so the first node's fill of each
// encodes it; warm-image after every node dropped its copies
// (DropDimCached), so each fill reads the files and stores the kept image.
// B/op and allocs/op are the median of five runs after five warm-up runs,
// with the collector off; ns/op is the timed runs'.
func BenchmarkEnsureCatalogCached(b *testing.B) {
	gen := ssb.NewBenchGenerator(1, 1, 11)
	tables := []string{ssb.TableCustomer, ssb.TableSupplier, ssb.TablePart, ssb.TableDate}
	rows := map[string][]records.Record{}
	for _, table := range tables {
		if err := gen.Each(table, func(r records.Record) error {
			rows[table] = append(rows[table], r)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	load := func() (*hdfs.FileSystem, *core.Catalog) {
		fs := hdfs.New(cluster.New(cluster.Testing(4)), hdfs.Options{Seed: 1})
		cat := &core.Catalog{DimDirs: map[string]string{}}
		for _, table := range tables {
			dir := "/ssb/" + table
			if _, err := colstore.WriteRowTable(fs, dir, ssb.SchemaOf(table), func(emit func(records.Record) error) error {
				for _, r := range rows[table] {
					if err := emit(r); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			cat.DimDirs[table] = dir
		}
		return fs, cat
	}
	cache := func(fs *hdfs.FileSystem, cat *core.Catalog) {
		if n, err := core.EnsureCatalogCached(fs, cat); err != nil || n != 4*len(tables) {
			b.Fatalf("%d copies made, %v", n, err)
		}
	}
	b.Run("cold-image", func(b *testing.B) {
		var fs *hdfs.FileSystem
		var cat *core.Catalog
		reportWarmAllocs(b, func() { fs, cat = load() }, func() { cache(fs, cat) })
	})
	b.Run("warm-image", func(b *testing.B) {
		fs, cat := load()
		cache(fs, cat)
		reportWarmAllocs(b, func() {
			for _, dir := range cat.DimDirs {
				core.DropDimCached(fs.Cluster(), dir)
			}
		}, func() { cache(fs, cat) })
	})
}

// reportWarmAllocs runs prep then f b.N times, timing f alone, and reports
// as B/op and allocs/op the median of five runs of f counted with the
// collector off, after five warm-up runs: what one run costs once the
// pools it draws on are full. One collection after each prep keeps the heap
// to one run's garbage (a pool survives one collection in its victim cache).
func reportWarmAllocs(b *testing.B, prep, f func()) {
	for range b.N {
		b.StopTimer()
		prep()
		b.StartTimer()
		f()
	}
	b.StopTimer()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 5 {
		prep()
		runtime.GC()
		f()
	}
	var bytes, allocs [5]uint64
	for i := range bytes {
		prep()
		runtime.GC()
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
