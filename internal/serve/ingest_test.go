package serve_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// lineorderWith returns generated fact row i with one column overridden: the
// retention tests need a batch whose every lo_orderdate provably predates a
// cutoff, the late-arriving-dimension tests one whose lo_custkey references
// customers of their choosing.
func lineorderWith(gen *ssb.Generator, i int64, col string, v int64) records.Record {
	r := gen.Lineorder(i)
	vals := append([]records.Value(nil), r.Values()...)
	vals[ssb.LineorderSchema.MustIndex(col)] = records.Int(v)
	return records.Make(ssb.LineorderSchema, vals...)
}

// emitRows emits the rows in order.
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

// materialize returns generated lineorder rows [lo, hi); datekey >= 0
// overrides every row's lo_orderdate.
func materialize(gen *ssb.Generator, lo, hi int64, datekey int64) []records.Record {
	var out []records.Record
	for i := lo; i < hi; i++ {
		r := gen.Lineorder(i)
		if datekey >= 0 {
			r = lineorderWith(gen, i, "lo_orderdate", datekey)
		}
		out = append(out, r)
	}
	return out
}

// refOver runs the reference executor over the generator's tables plus
// extra rows per table.
func refOver(t *testing.T, e *env, q *core.Query, extras map[string][]records.Record) *results.ResultSet {
	t.Helper()
	l, err := core.LogicalOf(q, e.lay.Catalog())
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	rs, err := refexec.RunLogical(l, func(table string, fn func(records.Record) error) error {
		if err := e.gen.Each(table, fn); err != nil {
			return err
		}
		return emitRows(extras[table])(fn)
	})
	if err != nil {
		t.Fatalf("%s ref: %v", q.Name, err)
	}
	return rs
}

// TestServeDimRollInRebuildsTables is the regression test for the stale
// serving caches: after a dimension roll-in the cross-query table cache
// must not serve hash tables built from the old dimension contents, nor the
// result cache old sums. Both key on the table version, so the next query
// — pinned at the new one — rebuilds on every node and recomputes,
// observable as the build counter incrementing instead of a warm hit; the
// superseded tables and result are reclaimed on the way and every
// reservation comes back.
func TestServeDimRollInRebuildsTables(t *testing.T) {
	const workers = 3
	e := newEnv(t, workers, 0.002, mr.Options{})
	// Pruning off so builds are exactly tables x nodes, as in the headline
	// concurrency test.
	s := e.session(serve.Options{MaxConcurrent: 4, Engine: core.Options{Ablate: core.NoScanPruning}})

	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.Run(e.gen, q)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		rs, _, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Fatal(why)
		}
	}

	run()
	cold := s.Stats().Builds
	if cold == 0 {
		t.Fatal("first query built no tables")
	}
	// Warm: the result cache answers, nothing rebuilds.
	run()
	if got := s.Stats(); got.Builds != cold || got.ResultHits == 0 {
		t.Fatalf("warm re-run: builds %d (want %d), result hits %d", got.Builds, cold, got.ResultHits)
	}

	// Roll duplicate rows into a dimension Q2.1 joins. Duplicates keep the
	// answer identical, which isolates what this test is about: the caches
	// must *rebuild*, not merely happen to be right.
	n, err := s.RollIn("supplier", func(emit func(records.Record) error) error {
		for i := int64(0); i < 4; i++ {
			if err := emit(e.gen.Supplier(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("rolled in %d rows", n)
	}
	st := s.Stats()
	if st.RollIns != 1 || st.RollInRows != 4 {
		t.Fatalf("roll-in stats = %+v", st)
	}
	if st.TableInvalidations != 0 || st.ResultInvalidations != 0 || st.Builds != cold {
		t.Fatalf("the roll-in itself touched a cache: %+v", st)
	}

	// Next query must rebuild the rolled-in dimension's table on every node
	// (the other dimensions stay warm) and recompute rather than hit the
	// result cache.
	hitsBefore := st.ResultHits
	run()
	st = s.Stats()
	if wantBuilds := cold + workers; st.Builds != wantBuilds {
		t.Fatalf("post-roll-in builds = %d, want %d (stale tables served?)", st.Builds, wantBuilds)
	}
	if st.ResultHits != hitsBefore {
		t.Fatal("post-roll-in query hit the result cache of the older version")
	}
	if st.TableInvalidations != workers || st.ResultInvalidations != 1 {
		t.Fatalf("reclaimed %d superseded tables and %d results, want the supplier table on each of %d nodes and the one Q2.1 entry",
			st.TableInvalidations, st.ResultInvalidations, workers)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)
}

// TestServeSnapshotIsolationOracle is the acceptance oracle: all 13 SSB
// queries, twice over, run concurrently with a late-arriving dimension (a
// fact batch whose rows reference customers not yet published, then the
// customer batch, then a fact batch referencing the customers just
// published), a compaction pass, a backdated fact batch and date retention,
// then once more against one batch the background compactor folds behind the
// writer — under -race via make check. Every answer, computed or served from
// the result cache, must equal the reference executor over exactly the
// {table → version} vector its report names, and that vector must be one the
// mutation sequence went through: every table's version is pinned at plan
// time under one lock, so no query sees the customers without the fact rows
// that preceded them, a half-published batch, or a blend of two states.
func TestServeSnapshotIsolationOracle(t *testing.T) {
	e := newEnv(t, 3, 0.002, mr.Options{})
	s := e.session(serve.Options{MaxConcurrent: 8, IngestPartitionRows: 200})
	defer s.Close()

	gen := e.gen
	base := gen.LineorderRows()
	firstNew := gen.CustomerRows() // customer row i has key i+1
	const (
		newCustomers = 40
		batchO       = 600 // rows referencing customers not yet published
		batchJ       = 400 // rows referencing the customers just published
		batchB       = 500 // backdated rows, all on the retention boundary
		batchC       = 500 // rows rolled in under the background compactor
		oldDate      = 19920101
		cutoff       = 19920102
		queryGap     = 3 * time.Millisecond
		rounds       = 2
	)
	var customers, rowsO, rowsJ []records.Record
	for i := int64(0); i < newCustomers; i++ {
		customers = append(customers, gen.Customer(firstNew+i))
	}
	lateRows := func(lo, n int64) []records.Record {
		rows := make([]records.Record, n)
		for i := range rows {
			rows[i] = lineorderWith(gen, lo+int64(i), "lo_custkey", firstNew+1+int64(i)%newCustomers)
		}
		return rows
	}
	rowsO = lateRows(base, batchO)
	rowsJ = lateRows(base+batchO, batchJ)
	rowsB := materialize(gen, base+batchO+batchJ, base+batchO+batchJ+batchB, oldDate)
	rowsC := materialize(gen, base+batchO+batchJ+batchB, base+batchO+batchJ+batchB+batchC, -1)

	// The states the mutation sequence goes through, as the version vector
	// a query pins: lineorder's content version, customer's file count.
	type vector struct{ lineorder, customer uint64 }
	factAt := [][]records.Record{
		0: nil,
		1: rowsO,
		2: append(append([]records.Record(nil), rowsO...), rowsJ...),
		3: append(append(append([]records.Record(nil), rowsO...), rowsJ...), rowsB...),
	}
	factAt = append(factAt,
		factAt[2], // 4: batch B retired again
		append(append([]records.Record(nil), factAt[2]...), rowsC...), // 5: batch C
	)
	valid := []vector{{0, 1}, {1, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 2}, {5, 2}}
	queries := ssb.Queries()
	refs := map[string]*results.ResultSet{}
	refKey := func(q *core.Query, v vector) string {
		return fmt.Sprintf("%s/%d/%d", q.Name, v.lineorder, v.customer)
	}
	for _, v := range valid {
		extras := map[string][]records.Record{ssb.TableLineorder: factAt[v.lineorder]}
		if v.customer == 2 {
			extras[ssb.TableCustomer] = customers
		}
		for _, q := range queries {
			refs[refKey(q, v)] = refOver(t, e, q, extras)
		}
	}
	want := func(q *core.Query, v vector) *results.ResultSet { return refs[refKey(q, v)] }
	// check holds one answer to the reference at the vector its report names.
	check := func(q *core.Query, rs *results.ResultSet, rep *core.Report) {
		t.Helper()
		v := vector{rep.Read.Of(ssb.TableLineorder), 1}
		if q.Dim(ssb.TableCustomer) != nil {
			v.customer = rep.Read.Of(ssb.TableCustomer)
		} else if v.lineorder > 0 {
			v.customer = 2 // not read: any state the fact version occurs in
		}
		known := false
		for _, ok := range valid {
			known = known || v == ok
		}
		if !known {
			t.Errorf("%s read %s: a vector the tables never went through", q.Name, rep.Read)
			return
		}
		if ok, why := results.Equivalent(rs, want(q, v), 1e-9); !ok {
			t.Errorf("%s read %s but does not equal the reference over it (torn snapshot?): %s", q.Name, rep.Read, why)
		}
	}
	// The case the oracle exists for must be a real one: publishing the
	// customers changes the answer of queries over the orphan rows.
	moved := 0
	for _, q := range queries {
		if ok, _ := results.Equivalent(want(q, vector{1, 1}), want(q, vector{1, 2}), 1e-9); !ok {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("fixture: the late customers change no answer; nothing is raced")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := range queries {
				// Last flights first: they join customer, and the customer
				// batch lands early in the mutation sequence.
				q := queries[len(queries)-1-i]
				wg.Add(1)
				go func(q *core.Query) {
					defer wg.Done()
					rs, rep, err := s.Query(context.Background(), q)
					if err != nil {
						t.Errorf("%s: %v", q.Name, err)
						return
					}
					check(q, rs, rep)
				}(q)
				time.Sleep(queryGap) // stagger so plan times straddle the mutations
			}
		}
	}()

	// The mutation sequence, racing the queries. Every step is atomic, so a
	// query planned at any instant sees exactly one of the valid vectors.
	rollIn := func(table string, rows []records.Record) {
		t.Helper()
		if n, err := s.RollIn(table, emitRows(rows)); err != nil || n != int64(len(rows)) {
			t.Fatalf("roll-in of %d %s rows: %d, %v", len(rows), table, n, err)
		}
		time.Sleep(2 * queryGap)
	}
	rollIn(ssb.TableLineorder, rowsO)
	rollIn(ssb.TableCustomer, customers)
	rollIn(ssb.TableLineorder, rowsJ)
	// Compact the two late batches' small partitions (base partitions are
	// full-size); the row multiset is unchanged, so no new state appears.
	compactOpts := colstore.CompactOptions{MinRows: 500, TargetRows: 1000, ClusterBy: "lo_orderdate"}
	res, err := s.CompactFact(compactOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != batchO+batchJ || len(res.Retired) != 5 {
		t.Fatalf("compaction = %+v, want all %d late rows from 5 small partitions", res, batchO+batchJ)
	}
	time.Sleep(queryGap)
	rollIn(ssb.TableLineorder, rowsB)
	// Retention: exactly batch B's partitions have Max(lo_orderdate) below
	// the cutoff; every base partition straddles it or postdates it.
	retired, err := s.RetainFact("lo_orderdate", cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if len(retired) != 3 { // 500 rows at 200 per partition
		t.Fatalf("retention retired %v, want batch B's 3 partitions", retired)
	}
	wg.Wait()

	// Quiesced end state: every acknowledged, unexpired row and nothing
	// uncommitted, every query at the last vector.
	endState := func(wantRows int64, version uint64) {
		t.Helper()
		var rows int64
		if err := colstore.ScanCIFTable(e.fs, e.lay.Catalog().FactDir, "", func(records.Record) error {
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rows != wantRows {
			t.Fatalf("final table has %d rows, want %d", rows, wantRows)
		}
		for _, q := range queries {
			rs, rep, err := s.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if got := rep.Read.Of(ssb.TableLineorder); got != version {
				t.Errorf("%s read %s, want lineorder@%d", q.Name, rep.Read, version)
			}
			check(q, rs, rep)
		}
	}
	// Base + both late batches, batch B retired.
	endState(base+batchO+batchJ, 4)
	st := s.Stats()
	if st.RollIns != 4 || st.Compactions != 1 || st.PartitionsRetired != 5+3 {
		t.Errorf("ingest stats = %+v", st)
	}

	// The same under the background compactor, as a deployment runs it: one
	// more batch races the queries while the compactor folds the batch's
	// small partitions behind the writer.
	stop := s.StartCompactor(time.Millisecond, compactOpts)
	for _, q := range queries {
		wg.Add(1)
		go func(q *core.Query) {
			defer wg.Done()
			rs, rep, err := s.Query(context.Background(), q)
			if err != nil {
				t.Errorf("%s: %v", q.Name, err)
				return
			}
			check(q, rs, rep)
		}(q)
	}
	rollIn(ssb.TableLineorder, rowsC)
	for deadline := time.Now().Add(30 * time.Second); s.Stats().Compactions < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the background compactor never folded batch C's partitions")
		}
	}
	stop()
	wg.Wait()
	endState(base+batchO+batchJ+batchC, 5)
	if st := s.Stats(); st.RollIns != 5 || st.RollInFailures != 0 || st.CompactedRows < batchO+batchJ+batchC {
		t.Errorf("ingest stats = %+v", st)
	}
}

// lateStar is a star schema small enough to reason about by hand, on two
// nodes that each replicate every block: dimension d holds keys 1..8, and
// every fact partition holds one row per key 1..12 with measure = key, so
// rows 9..12 of every partition reference keys d does not hold yet.
type lateStar struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	cat     *core.Catalog
	session *serve.Session
	query   *core.Query // SUM(f_m) over f JOIN d
}

const (
	lateStarParts = 12 // fact partitions, one row per key in each
	lateStarOld   = 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8
	lateStarLate  = 9 + 10 + 11 + 12 // per partition, once keys 9..12 publish
)

func (ls *lateStar) dimRows(lo, hi int64) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for pk := lo; pk <= hi; pk++ {
			if err := emit(records.Make(ls.cat.DimSchemas["d"], records.Int(pk), records.Str("x"))); err != nil {
				return err
			}
		}
		return nil
	}
}

func (ls *lateStar) factRows(parts int, lo, hi int64) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for p := 0; p < parts; p++ {
			for fk := lo; fk <= hi; fk++ {
				if err := emit(records.Make(ls.cat.FactSchema, records.Int(fk), records.Int(fk))); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func newLateStar(t *testing.T, opts serve.Options) *lateStar {
	t.Helper()
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 7})
	factSchema := records.NewSchema(records.F("f_fk", records.KindInt64), records.F("f_m", records.KindInt64))
	dimSchema := records.NewSchema(records.F("d_pk", records.KindInt64), records.F("d_x", records.KindString))
	ls := &lateStar{cluster: c, fs: fs, cat: &core.Catalog{
		FactName: "f", FactDir: "/star/f", FactSchema: factSchema,
		DimDirs:    map[string]string{"d": "/star/d"},
		DimSchemas: map[string]*records.Schema{"d": dimSchema},
	}}
	if _, err := colstore.WriteRowTable(fs, "/star/d", dimSchema, ls.dimRows(1, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.WriteCIFTable(fs, "/star/f", factSchema, 12, ls.factRows(lateStarParts, 1, 12)); err != nil {
		t.Fatal(err)
	}
	if _, err := core.EnsureCatalogCached(fs, ls.cat); err != nil {
		t.Fatal(err)
	}
	ls.session = serve.New(mr.NewEngine(c, fs, mr.Options{}), ls.cat, opts)
	t.Cleanup(func() { ls.session.Close() })
	ls.query = &core.Query{
		Name:    "late-sum",
		Dims:    []core.DimSpec{{Table: "d", Schema: dimSchema, FactFK: "f_fk", DimPK: "d_pk"}},
		AggExpr: expr.Col("f_m"),
		AggName: "total",
	}
	return ls
}

func (ls *lateStar) sum(t *testing.T) (float64, string) {
	t.Helper()
	rs, rep, err := ls.session.Query(context.Background(), ls.query)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("result = %s", rs)
	}
	return rs.Rows[0].At(0).Float64(), rep.Read.String()
}

// blockRecorder is a read hook that remembers which blocks were read.
type blockRecorder struct {
	mu     sync.Mutex
	blocks map[int64]bool
}

func (r *blockRecorder) BeforeBlockRead(_ string, id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blocks[id] = true
	return nil
}

// blocksRead returns the blocks reading does.
func blocksRead(fs *hdfs.FileSystem, read func() error) (map[int64]bool, error) {
	rec := &blockRecorder{blocks: map[int64]bool{}}
	fs.SetReadFaultInjector(rec)
	defer fs.SetReadFaultInjector(nil)
	return rec.blocks, read()
}

// holdCopy is a read hook for the late-arriving-dimension race. The first
// read of the dimension's master copy (a node re-copying the dimension for
// its hash-table build) is held until some task reads a fact column block —
// that is, until another node has built its tables and started probing —
// and then, still before the held read proceeds, runs land.
type holdCopy struct {
	dim, fact map[int64]bool
	probing   chan struct{}
	probe     sync.Once
	held      atomic.Bool // set by the one read that is held
	land      func()
}

func (h *holdCopy) BeforeBlockRead(_ string, id int64) error {
	switch {
	case h.fact[id]:
		h.probe.Do(func() { close(h.probing) })
	case h.dim[id] && h.held.CompareAndSwap(false, true):
		<-h.probing
		h.land()
	}
	return nil
}

// TestServeLateDimensionBatchMidQuery is the deterministic regression for
// the one wrong answer the invalidation fan-out could still give. Fact rows
// referencing dimension keys 9..12 are already in the table when the batch
// publishing those keys lands in the middle of a query: after one node has
// built its dimension table and begun probing, while the other is still
// re-copying the dimension for its own build. With unversioned dimensions
// the second node built from the post-batch master, so rows 9..12 joined on
// one node's splits and not on the other's and the sum equalled neither
// table state. The query pins d's version at plan time: both nodes build
// from that version, the answer is the pre-batch sum exactly, and the next
// query sees the batch whole.
func TestServeLateDimensionBatchMidQuery(t *testing.T) {
	// No result cache, and a table cache that keeps nothing once a query
	// unpins it: the second query below builds its tables afresh. The first
	// leaves the admission estimate behind, so that during the second the
	// only readers of d's master copy are the nodes' builds.
	ls := newLateStar(t, serve.Options{ResultCacheBudget: -1, CacheBudget: 1, AdmissionBudget: 1 << 30})
	s := ls.session
	if got, read := ls.sum(t); got != lateStarParts*lateStarOld || read != "f@0 d@1" {
		t.Fatalf("before the batch: total %v reading %s", got, read)
	}

	dimBlocks, err := blocksRead(ls.fs, func() error {
		return colstore.ScanRowTable(ls.fs, "/star/d", "", func(records.Record) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	factBlocks, err := blocksRead(ls.fs, func() error {
		for _, p := range ls.fs.List("/star/f/") {
			if strings.HasSuffix(p, ".col") {
				if _, err := ls.fs.ReadAll(p, ""); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dimBlocks) == 0 || len(factBlocks) == 0 {
		t.Fatalf("fixture: %d dimension and %d fact blocks read", len(dimBlocks), len(factBlocks))
	}

	// Both nodes' local copies of d fail their checksum (a bad disk), so
	// each node's first build re-copies d from the master: whichever gets
	// there first is held, the other builds, probes and releases it.
	for _, n := range ls.cluster.Nodes() {
		for _, key := range n.LocalPaths("clydesdale/dimcache/star/d") {
			n.PutLocal(key, []byte("not a column set"))
		}
	}
	landed := false
	ls.fs.SetReadFaultInjector(&holdCopy{
		dim: dimBlocks, fact: factBlocks, probing: make(chan struct{}),
		land: func() {
			landed = true
			if _, err := s.RollIn("d", ls.dimRows(9, 12)); err != nil {
				t.Error(err)
			}
			// Fact rows referencing the keys just published: no part of
			// what the running query pinned either.
			if _, err := s.RollIn("f", ls.factRows(1, 9, 12)); err != nil {
				t.Error(err)
			}
		},
	})
	got, read := ls.sum(t)
	ls.fs.SetReadFaultInjector(nil)
	if !landed {
		t.Fatal("fixture: no node re-copied the dimension during the query; nothing was raced")
	}
	if want := float64(lateStarParts * lateStarOld); got != want || read != "f@0 d@1" {
		t.Errorf("query racing the batch: total %v reading %s, want %v reading f@0 d@1 (%v would be the post-batch table; anything else is a blend)",
			got, read, want, lateStarParts*(lateStarOld+lateStarLate))
	}
	got, read = ls.sum(t)
	if want := float64(lateStarParts*(lateStarOld+lateStarLate) + lateStarLate); got != want || read != "f@1 d@2" {
		t.Errorf("query after the batch: total %v reading %s, want %v reading f@1 d@2", got, read, want)
	}
}

// TestServeEmptyRollInIsNoOp: a batch with no rows publishes nothing, for
// the fact table and a dimension alike — no file, no new version, no roll-in
// counted, and so no cached state superseded: the next query is the same
// result-cache hit it would have been.
func TestServeEmptyRollInIsNoOp(t *testing.T) {
	for _, table := range []string{"f", "d"} {
		t.Run(table, func(t *testing.T) {
			ls := newLateStar(t, serve.Options{})
			s := ls.session
			total, read := ls.sum(t)
			files := ls.fs.List("/star/")
			before := s.Stats()

			n, err := s.RollIn(table, func(func(records.Record) error) error { return nil })
			if n != 0 || err != nil {
				t.Fatalf("empty roll-in = (%d, %v)", n, err)
			}
			if got := ls.fs.List("/star/"); !reflect.DeepEqual(got, files) {
				t.Errorf("empty roll-in changed the files under /star:\n%v\nwas\n%v", got, files)
			}
			if got, gotRead := ls.sum(t); got != total || gotRead != read {
				t.Errorf("after the empty roll-in: total %v reading %s, was %v reading %s", got, gotRead, total, read)
			}
			want := before
			want.ResultHits++
			if got := s.Stats(); got != want {
				t.Errorf("stats after an empty roll-in and a repeat query:\n%+v\nwant the repeat's result-cache hit and nothing else:\n%+v", got, want)
			}
		})
	}
}

// TestSessionsShareTableVersions: two sessions over one engine see one set
// of table versions, because both read the filesystem's one registry. The
// second rolls fact rows in and compacts the whole fact table while the
// first has Q4.1 pinned mid-job: the pinned query still reads the partitions
// the compaction retired and equals the reference at its vector. The first
// session's next Q4.1 misses its result cache and reads lineorder@1; once
// the second rolls in the customers those rows reference, the first
// session's next Q4.1 reads the new customer version and counts them.
func TestSessionsShareTableVersions(t *testing.T) {
	hold := &holdOnSpan{name: obs.PhaseMap, held: make(chan struct{}), release: make(chan struct{})}
	e := newEnv(t, 2, 0.002, mr.Options{Tracer: obs.NewTracer(hold)})
	first := e.session(serve.Options{})
	defer first.Close()
	second := e.session(serve.Options{IngestPartitionRows: 500})
	defer second.Close()

	gen, base, firstNew := e.gen, e.gen.LineorderRows(), e.gen.CustomerRows()
	const newCustomers, lateRows = 40, 2000
	var customers, facts []records.Record
	for i := range int64(newCustomers) {
		customers = append(customers, gen.Customer(firstNew+i)) // key firstNew+i+1
	}
	for i := range int64(lateRows) {
		facts = append(facts, lineorderWith(gen, base+i, "lo_custkey", firstNew+1+i%newCustomers))
	}
	q, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	atZero := refOver(t, e, q, nil)
	atOne := refOver(t, e, q, map[string][]records.Record{ssb.TableLineorder: facts})
	withCustomers := refOver(t, e, q, map[string][]records.Record{ssb.TableLineorder: facts, ssb.TableCustomer: customers})
	if ok, _ := results.Equivalent(atOne, withCustomers, 1e-9); ok {
		t.Fatal("fixture: the late customers change no answer")
	}
	holds := func(what string, rs, want *results.ResultSet, rep *core.Report) {
		t.Helper()
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s read %s and does not equal the reference over it: %s", what, rep.Read, why)
		}
	}

	hold.armed.Store(true)
	type answer struct {
		rs  *results.ResultSet
		rep *core.Report
		err error
	}
	pinned := make(chan answer, 1)
	go func() {
		rs, rep, err := first.Query(context.Background(), q)
		pinned <- answer{rs, rep, err}
	}()
	<-hold.held
	if _, err := second.RollIn(ssb.TableLineorder, emitRows(facts)); err != nil {
		t.Fatal(err)
	}
	res, err := second.CompactFact(colstore.CompactOptions{MinRows: 1 << 30, TargetRows: 4000})
	if err != nil || len(res.Retired) == 0 {
		t.Fatalf("compaction = %+v (%v), want every partition rewritten", res, err)
	}
	close(hold.release)
	a := <-pinned
	if a.err != nil {
		t.Fatalf("query pinned across the other session's writes: %v", a.err)
	}
	if got := a.rep.Read.Of(ssb.TableLineorder); got != 0 {
		t.Errorf("pinned query read %s, want lineorder@0", a.rep.Read)
	}
	holds("pinned query", a.rs, atZero, a.rep)

	run := func() (*results.ResultSet, *core.Report) {
		t.Helper()
		rs, rep, err := first.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return rs, rep
	}
	misses := first.Stats().ResultMisses
	rs, rep := run()
	if got := first.Stats().ResultMisses; got != misses+1 || rep.Read.Of(ssb.TableLineorder) != 1 {
		t.Errorf("after the other session's roll-in: %d result-cache misses (was %d) reading %s, want a miss reading lineorder@1", got, misses, rep.Read)
	}
	holds("query after the fact roll-in", rs, atOne, rep)

	customerAt := rep.Read.Of(ssb.TableCustomer)
	if _, err := second.RollIn(ssb.TableCustomer, emitRows(customers)); err != nil {
		t.Fatal(err)
	}
	rs, rep = run()
	if got := rep.Read.Of(ssb.TableCustomer); got != customerAt+1 {
		t.Errorf("after the other session's customer roll-in the first read %s, want customer@%d", rep.Read, customerAt+1)
	}
	holds("query after the customer roll-in", rs, withCustomers, rep)
}

// TestServeMalformedRollInFails: a fact roll-in whose batch holds a row the
// table cannot store — a null, a float in an integer column, too few
// values — fails with an error instead of taking the process down. It
// publishes nothing and leaves no file, counts one roll-in failure, and
// leaves the writer lock free: the next good roll-in publishes.
func TestServeMalformedRollInFails(t *testing.T) {
	ls := newLateStar(t, serve.Options{IngestPartitionRows: 6})
	s := ls.session
	schema := ls.cat.FactSchema
	total, read := ls.sum(t)
	for i, bad := range []records.Record{
		records.Make(schema, records.Int(1), records.Null),
		records.Make(schema, records.Float(2.5), records.Int(1)),
		records.Make(records.NewSchema(records.F("f_fk", records.KindInt64)), records.Int(1)),
	} {
		files := ls.fs.List("/star/")
		failures := s.Stats().RollInFailures
		n, err := s.RollIn("f", func(emit func(records.Record) error) error {
			if err := ls.factRows(1, 1, 12)(emit); err != nil { // two partitions staged first
				return err
			}
			return emit(bad)
		})
		if err == nil || n != 0 {
			t.Fatalf("row %d (%v): roll-in = (%d, %v), want an error", i, bad, n, err)
		}
		if got := ls.fs.List("/star/"); !reflect.DeepEqual(got, files) {
			t.Errorf("row %d: the failed roll-in changed the files under /star:\n%v\nwas\n%v", i, got, files)
		}
		if got := s.Stats().RollInFailures; got != failures+1 {
			t.Errorf("row %d: %d roll-in failures, want %d", i, got, failures+1)
		}
		if got, gotRead := ls.sum(t); got != total || gotRead != read {
			t.Errorf("row %d: after the failed roll-in: total %v reading %s, was %v reading %s", i, got, gotRead, total, read)
		}
	}
	if n, err := s.RollIn("f", ls.factRows(1, 1, 8)); err != nil || n != 8 {
		t.Fatalf("the good roll-in after them = (%d, %v)", n, err)
	}
	if got, _ := ls.sum(t); got != total+lateStarOld {
		t.Errorf("after the good roll-in: total %v, want %v", got, total+lateStarOld)
	}
}
