package serve

import (
	"context"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// blockReads is a read hook counting the reads of a set of blocks.
type blockReads struct {
	mu     sync.Mutex
	blocks map[int64]bool // nil: learn the set instead, every block read joins it
	learnt map[int64]bool
	n      int
}

func (b *blockReads) BeforeBlockRead(_ string, id int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.blocks == nil:
		b.learnt[id] = true
		b.n++
	case b.blocks[id]:
		b.n++
	}
	return nil
}

// TestOneDriverScanPerDimensionVersion: the admission estimate and the scan
// pushdowns of a dimension come out of the table the driver builds from one
// read of the version the query pinned. With every node holding its local
// copy, so that only the driver reads the master, a session's first miss
// reads the customer table once, a second statement with the same customer
// predicate and a third with another one not at all, and the first statement
// again after a customer roll-in once more. That roll-in repeats a key, and
// what admission charges and an estimate returns are still what a node's
// build reserves.
func TestOneDriverScanPerDimensionVersion(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cat := lay.Catalog()
	s := New(mr.NewEngine(c, fs, mr.Options{}), cat, Options{ResultCacheBudget: -1})
	defer s.Close()
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	again := *q // the same three dimension specs under another fact predicate
	again.Name, again.FactPred = "Q3.1-small-orders", expr.Lt(expr.Col("lo_quantity"), expr.ConstInt(25))
	other := *q // another customer predicate
	other.Name, other.Dims = "Q3.1-europe", append([]core.DimSpec(nil), q.Dims...)
	for i := range other.Dims {
		if other.Dims[i].Table == ssb.TableCustomer {
			other.Dims[i].Pred = expr.Eq(expr.Col("c_region"), expr.ConstStr("EUROPE"))
		}
	}

	// watchCustomer gives every node its copy of the current customer
	// version, learns which blocks one scan of the master reads and how
	// many reads that is, and returns a hook counting reads of those blocks.
	customer := cat.DimDirs[ssb.TableCustomer]
	watchCustomer := func() (hook *blockReads, perScan int) {
		t.Helper()
		if _, err := core.EnsureCatalogCached(fs, cat); err != nil {
			t.Fatal(err)
		}
		dry := &blockReads{learnt: map[int64]bool{}}
		fs.SetReadFaultInjector(dry)
		if err := colstore.ScanRowTable(fs, customer, "", func(records.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if dry.n == 0 {
			t.Fatal("fixture: a scan of the customer table reads no block")
		}
		hook = &blockReads{blocks: dry.learnt}
		fs.SetReadFaultInjector(hook)
		return hook, dry.n
	}
	defer fs.SetReadFaultInjector(nil)
	run := func(q *core.Query) *core.Report {
		t.Helper()
		_, rep, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		return rep
	}

	hook, perScan := watchCustomer()
	rep := run(q)
	if hook.n != perScan {
		t.Errorf("first miss read %d customer blocks on the driver, one scan is %d", hook.n, perScan)
	}
	if n := s.eng.DimScansHeld(); n != 2*len(q.Dims) {
		t.Errorf("the engine holds %d images and scans after a query over %d dimensions, want one of each per dimension", n, len(q.Dims))
	}
	// What admission charged and what the fact scan was handed are that one
	// scan's products: the bytes cost no further read, and the query pruned.
	l, err := core.LogicalOf(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(l)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := s.eng.Pin(p.Shape)
	if err != nil {
		t.Fatal(err)
	}
	dims := pin.DimSpecs(p.Steps)
	pin.Release()
	want, err := core.BuildDimTables(dims, gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dims {
		if got, err := s.eng.DimTableBytes(&dims[i]); err != nil || got != want[i].MemBytes || got == 0 {
			t.Errorf("%s: admission charges %d bytes (%v), its table takes %d", dims[i].Table, got, err, want[i].MemBytes)
		}
	}
	if hook.n != perScan || rep.Job.Counters.Get(colstore.CtrRowsBloomSkipped) == 0 {
		t.Errorf("%d customer block reads after re-reading the sizes, %d fact rows dropped by blooms; want %d reads and a pushdown",
			hook.n, rep.Job.Counters.Get(colstore.CtrRowsBloomSkipped), perScan)
	}

	run(&again)
	if hook.n != perScan {
		t.Errorf("a second statement with the same customer predicate read the master again: %d block reads, were %d", hook.n, perScan)
	}
	run(&other)
	if hook.n != perScan {
		t.Errorf("a statement with another customer predicate read the master again: %d block reads, were %d", hook.n, perScan)
	}

	if _, err := s.RollIn(ssb.TableCustomer, func(emit func(records.Record) error) error {
		return emit(gen.Customer(0))
	}); err != nil {
		t.Fatal(err)
	}
	hook, perScan = watchCustomer()
	run(q)
	if hook.n != perScan {
		t.Errorf("first query after the roll-in read %d customer blocks on the driver, one scan is %d", hook.n, perScan)
	}

	// The roll-in re-appended customer 1, so the newest customer version
	// holds that key twice and a build keeps its last row: every SSB spec,
	// and one keeping every customer, at the current versions.
	fs.SetReadFaultInjector(nil)
	var specs []core.DimSpec
	for _, sq := range ssb.Queries() {
		specs = append(specs, sq.Dims...)
	}
	everyone := *q.Dim(ssb.TableCustomer)
	everyone.Pred = nil
	specs = append(specs, everyone)
	for i := range specs {
		d := &specs[i]
		dir := cat.DimDirs[d.Table]
		d.Version = colstore.RowTableVersion(fs, dir)
		built, err := core.BuildDimHashTable(fs, c.Nodes()[0], dir, d)
		if err != nil {
			t.Fatal(err)
		}
		admits, err := s.eng.DimTableBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		est, err := core.BuildDimTables([]core.DimSpec{*d}, func(_ string, fn func(records.Record) error) error {
			return colstore.ScanRowTable(fs, dir, "", fn)
		})
		if err != nil {
			t.Fatal(err)
		}
		if admits != built.MemBytes || est[0].MemBytes != built.MemBytes {
			t.Errorf("%s@%d %v: admission charges %d bytes, an estimate says %d, a node build reserves %d",
				d.Table, d.Version, d.Pred, admits, est[0].MemBytes, built.MemBytes)
		}
	}
}
