package hive_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

type env struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	mr      *mr.Engine
	gen     *ssb.Generator
	lay     *ssb.Layout
}

func newEnv(t *testing.T, workers int, sf float64) *env {
	t.Helper()
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 31})
	gen := ssb.NewGenerator(sf, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{PartitionRows: 1000, RCGroupRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &env{cluster: c, fs: fs, mr: mr.NewEngine(c, fs, mr.Options{}), gen: gen, lay: lay}
}

func (e *env) engine(strategy hive.JoinStrategy) *hive.Engine {
	return hive.New(e.mr, e.lay.RCCatalog(), hive.Options{Strategy: strategy})
}

// TestAllQueriesMatchReference holds both Hive plans to the reference
// executor's answers on every SSB query.
func TestAllQueriesMatchReference(t *testing.T) {
	e := newEnv(t, 3, 0.001)
	for _, strategy := range []hive.JoinStrategy{hive.Repartition, hive.MapJoin} {
		eng := e.engine(strategy)
		for _, q := range ssb.Queries() {
			rs, rep, err := eng.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%s: %v", strategy, q.Name, err)
			}
			want, err := refexec.Run(e.gen, q)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
				t.Errorf("%s/%s: %s\nhive:\n%svs reference:\n%s", strategy, q.Name, why, rs, want)
			}
			// Plan shape: one join stage per dimension + group-by (+
			// order-by when the query orders).
			wantStages := len(q.Dims) + 1
			if len(q.OrderBy) > 0 {
				wantStages++
			}
			if int(rep.Counters.Get(hive.CtrStages)) != wantStages {
				t.Errorf("%s/%s: %d stages, want %d", strategy, q.Name,
					rep.Counters.Get(hive.CtrStages), wantStages)
			}
		}
	}
}

// TestMapJoinLoadsHashPerTask verifies the baseline's signature redundancy:
// every map task of every mapjoin stage re-loads the broadcast hash table.
func TestMapJoinLoadsHashPerTask(t *testing.T) {
	e := newEnv(t, 2, 0.001)
	q, _ := ssb.QueryByName("Q2.1")
	_, rep, err := e.engine(hive.MapJoin).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	loads := rep.Counters.Get(hive.CtrHashLoads)
	// Join stages' map tasks all load; count those stages' tasks.
	var joinMapTasks int64
	for _, st := range rep.Stages {
		if st.Kind == "join" {
			joinMapTasks += st.Job.Counters.Get(mr.CtrMapTasks)
		}
	}
	if loads != joinMapTasks {
		t.Errorf("hash loads = %d, join map tasks = %d; expected one load per task", loads, joinMapTasks)
	}
	if rep.Counters.Get(hive.CtrHashBroadcasts) != int64(len(q.Dims)) {
		t.Errorf("broadcasts = %d, want %d", rep.Counters.Get(hive.CtrHashBroadcasts), len(q.Dims))
	}
}

// TestRepartitionShufflesBothTables checks that the repartition plan moves
// the fact data through the shuffle while mapjoin does not.
func TestRepartitionShufflesBothTables(t *testing.T) {
	e := newEnv(t, 2, 0.001)
	q, _ := ssb.QueryByName("Q1.1")

	_, repRep, err := e.engine(hive.Repartition).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	_, repMap, err := e.engine(hive.MapJoin).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	shufRep := repRep.Counters.Get(mr.CtrShuffleBytes)
	shufMap := repMap.Counters.Get(mr.CtrShuffleBytes)
	if shufRep <= shufMap*2 {
		t.Errorf("repartition shuffle %d should dwarf mapjoin shuffle %d", shufRep, shufMap)
	}
}

// TestMapJoinOOMOnConstrainedCluster reproduces the §6.4 failure: with a
// memory budget that cannot hold one hash-table copy per slot, the mapjoin
// plan fails while repartition succeeds — and Clydesdale, which shares one
// copy per node, also succeeds.
func TestMapJoinOOMOnConstrainedCluster(t *testing.T) {
	gen := ssb.NewGenerator(0.001, 42)
	q, _ := ssb.QueryByName("Q3.1")

	// One copy of Q3.1's hash tables.
	tables, err := core.BuildDimTables(q.Dims, func(tbl string, fn func(r records.Record) error) error {
		return gen.Each(tbl, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	var oneCopy int64
	for _, h := range tables {
		oneCopy += h.MemBytes
	}

	slots := 3
	// Budget: fits 1 copy (Clydesdale/one per node) but not `slots` copies.
	budget := oneCopy*2 - oneCopy/2 // 1.5 copies
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: slots, ReduceSlots: 1, MemoryPerNode: budget})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 3})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{PartitionRows: 500, RCGroupRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	eng := mr.NewEngine(c, fs, mr.Options{})

	// Mapjoin: each map task needs oneCopy within allowance budget/slots →
	// OOM.
	_, _, err = hive.New(eng, lay.RCCatalog(), hive.Options{Strategy: hive.MapJoin}).Execute(context.Background(), q)
	if !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Errorf("mapjoin: expected OOM, got %v", err)
	}

	// Repartition succeeds (no big hash tables).
	rs, _, err := hive.New(eng, lay.RCCatalog(), hive.Options{Strategy: hive.Repartition}).Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("repartition: %v", err)
	}
	want, _ := refexec.Run(gen, q)
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("repartition under memory pressure: %s", why)
	}

	// Clydesdale succeeds: one shared copy per node fits.
	crs, _, err := core.New(eng, lay.Catalog(), core.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatalf("clydesdale: %v", err)
	}
	if ok, why := results.Equivalent(crs, want, 1e-9); !ok {
		t.Errorf("clydesdale under memory pressure: %s", why)
	}
}

// TestMapJoinDuplicateKeysReserveTheTable rolls in date rows that repeat
// every 1993 key with d_year 1999. The driver's table holds one entry per
// key, the last row's (as core's build does), so a task reserves exactly
// MapJoinTableBytes of it: an allowance of that size runs the join and one
// byte less runs out of memory. The answer equals Clydesdale's over the same
// catalog, with the repeated keys counted under 1999.
func TestMapJoinDuplicateKeysReserveTheTable(t *testing.T) {
	gen := ssb.NewGenerator(0.001, 42)
	q := &core.Query{
		Name: "revenue-by-year",
		Dims: []core.DimSpec{{Table: ssb.TableDate, Schema: ssb.DateSchema, FactFK: "lo_orderdate",
			DimPK: "d_datekey", Aux: []string{"d_year"}}},
		AggExpr: expr.Col("lo_revenue"), AggName: "revenue",
		GroupBy: []string{"d_year"},
	}
	yearIx := ssb.DateSchema.MustIndex("d_year")
	var moved []records.Record
	if err := gen.Each(ssb.TableDate, func(r records.Record) error {
		if r.At(yearIx).Int64() == 1993 {
			moved = append(moved, r.Clone().Set(yearIx, records.Int(1999)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rollIn := func(emit func(records.Record) error) error {
		for _, r := range moved {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
	tables, err := core.BuildDimTables(q.Dims, func(tbl string, fn func(records.Record) error) error {
		if err := gen.Each(tbl, fn); err != nil {
			return err
		}
		return rollIn(fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 || tables[0].Stats.RowsKept != int64(tables[0].Len()+len(moved)) {
		t.Fatalf("%d rows kept for %d keys: the roll-in repeats no key", tables[0].Stats.RowsKept, tables[0].Len())
	}
	table := hive.MapJoinTableBytes(tables[0])

	// run loads the star on one worker whose two map slots each get
	// allowance bytes, rolls the moved dates in, and runs the mapjoin.
	run := func(allowance int64) (*results.ResultSet, *core.Engine, error) {
		t.Helper()
		c := cluster.New(cluster.Config{Workers: 1, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: 2 * allowance})
		fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 5})
		lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{PartitionRows: 1000, RCGroupRows: 1000})
		if err != nil {
			t.Fatal(err)
		}
		eng := mr.NewEngine(c, fs, mr.Options{})
		clyde := core.New(eng, lay.Catalog(), core.Options{})
		if _, err := clyde.Snapshots().AppendRows(lay.Dims[ssb.TableDate], rollIn); err != nil {
			t.Fatal(err)
		}
		rs, _, err := hive.New(eng, lay.RCCatalog(), hive.Options{Strategy: hive.MapJoin}).Execute(context.Background(), q)
		return rs, clyde, err
	}

	rs, clyde, err := run(table)
	if err != nil {
		t.Fatalf("mapjoin with an allowance of MapJoinTableBytes (%d): %v", table, err)
	}
	want, _, err := clyde.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("mapjoin over repeated keys: %s\nhive:\n%svs clydesdale:\n%s", why, rs, want)
	}
	if !slices.ContainsFunc(want.Rows, func(r records.Record) bool { return r.At(0).Int64() == 1999 }) {
		t.Errorf("no 1999 group: the roll-in did not replace the 1993 rows\n%s", want)
	}
	if _, _, err := run(table - 1); !errors.Is(err, cluster.ErrOutOfMemory) {
		t.Errorf("mapjoin with an allowance one byte short of its table: %v, want out of memory", err)
	}
}

// TestIntermediateResultsRoundTripHDFS confirms the staged plan writes its
// intermediates to the filesystem (the extra I/O §6.3 charges Hive for) and
// cleans them up afterwards.
func TestIntermediateResultsRoundTripHDFS(t *testing.T) {
	e := newEnv(t, 2, 0.001)
	q, _ := ssb.QueryByName("Q2.1")
	before := e.fs.Metrics().Snapshot()
	_, rep, err := e.engine(hive.MapJoin).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after := e.fs.Metrics().Snapshot()
	if after.BytesWritten <= before.BytesWritten {
		t.Error("no intermediate bytes written to HDFS")
	}
	if rep.Counters.Get(hive.CtrIntermediateRows) == 0 {
		t.Error("no intermediate rows recorded")
	}
	// Intermediates are cleaned up.
	if files := e.fs.List("/tmp/hive/"); len(files) != 0 {
		t.Errorf("leftover intermediates: %v", files)
	}
}

// cancelAtFactRead cancels a query at the first read of the fact table by a
// task (the driver's footer reads name no node), the first stage's map
// phase, and counts the task reads of the fact table that follow it.
type cancelAtFactRead struct {
	fact   string // the fact table's directory, slash-terminated
	cancel context.CancelFunc

	mu       sync.Mutex
	canceled bool
	after    int
}

func (s *cancelAtFactRead) Emit(sp obs.Span) {
	if sp.Name != obs.PhaseHDFSRead || sp.Node == "" || !strings.HasPrefix(sp.Attrs["path"], s.fact) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		s.after++
		return
	}
	s.canceled = true
	s.cancel()
}

// TestRepartitionCancelDuringMap cancels Q4.1 while its first stage maps the
// fact table. The query returns context.Canceled and leaves nothing under
// the intermediates' root, and the map attempts running at the cancel stop
// at the runner's next poll, within 128 records, instead of reading the
// rest of their splits: with 16-row RC groups, each reads at most nine more
// groups, one read per fact column the stage keeps.
func TestRepartitionCancelDuringMap(t *testing.T) {
	const groupRows, factCols = 16, 6 // Q4.1 reads lo_custkey, suppkey, partkey, orderdate, revenue and supplycost
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 31})
	lay, err := ssb.Load(fs, ssb.NewGenerator(0.001, 42), "/ssb", ssb.LoadOptions{PartitionRows: 1000, RCGroupRows: groupRows})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAtFactRead{fact: lay.RCCatalog().FactDir + "/", cancel: cancel}
	fs.Observe(obs.NewTracer(sink), nil)
	eng := hive.New(mr.NewEngine(c, fs, mr.Options{}), lay.RCCatalog(), hive.Options{Strategy: hive.Repartition})
	q, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Execute(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Q4.1 returned %v, want context.Canceled", err)
	}
	if !sink.canceled {
		t.Fatal("the query read no fact row group")
	}
	if left := fs.List("/tmp/hive"); len(left) > 0 {
		t.Errorf("the canceled query left %v", left)
	}
	// Every map slot of the one worker may have been mid-split at the cancel.
	limit := c.Config().MapSlots * (128/groupRows + 2) * factCols
	if sink.after > limit {
		t.Errorf("%d fact reads after the cancel, want at most %d: the map runner did not poll", sink.after, limit)
	}
}
