package hive_test

import (
	"context"
	"errors"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
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
	perDim, err := core.EstimateDimHashBytes(q.Dims, func(tbl string, fn func(r records.Record) error) error {
		return gen.Each(tbl, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	var oneCopy int64
	for _, b := range perDim {
		oneCopy += b
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
