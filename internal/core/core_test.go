package core_test

import (
	"context"
	"strings"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
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
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(sf, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &env{cluster: c, fs: fs, mr: mr.NewEngine(c, fs, mr.Options{}), gen: gen, lay: lay}
}

func (e *env) engine(opts core.Options) *core.Engine {
	return core.New(e.mr, e.lay.Catalog(), opts)
}

// TestAllQueriesMatchReference is the headline integration test: every SSB
// query on the full Clydesdale stack must agree with the in-memory
// reference executor.
func TestAllQueriesMatchReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	for _, q := range ssb.Queries() {
		rs, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			t.Fatalf("%s ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s: %s\nclydesdale:\n%svs reference:\n%s", q.Name, why, rs, want)
		}
		// Every fact row is accounted for exactly once: probed, dropped by
		// the late-materialization selection vector, dropped by a semi-join
		// bloom filter, or in a partition the zone maps pruned.
		c := rep.Job.Counters
		accounted := c.Get(core.CtrProbeRows) +
			c.Get(colstore.CtrRowsLateSkipped) +
			c.Get(colstore.CtrRowsBloomSkipped) +
			c.Get(colstore.CtrRowsPruned)
		if accounted != e.gen.LineorderRows() {
			t.Errorf("%s: probed %d + late-skipped %d + bloom-skipped %d + pruned %d = %d rows, want %d",
				q.Name, c.Get(core.CtrProbeRows), c.Get(colstore.CtrRowsLateSkipped),
				c.Get(colstore.CtrRowsBloomSkipped), c.Get(colstore.CtrRowsPruned),
				accounted, e.gen.LineorderRows())
		}
	}
}

// TestAblationConfigsAgree reruns a grouped query under every Figure 9
// configuration; results must be identical.
func TestAblationConfigsAgree(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.Run(e.gen, q)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]core.Ablate{
		"all":          0,
		"no-block":     core.NoBlockIteration | core.NoInMapperCombining,
		"no-columnar":  core.NoColumnarStorage | core.NoInMapperCombining,
		"no-threading": core.NoMultiThreading | core.NoInMapperCombining,
		"none":         core.NoColumnarStorage | core.NoBlockIteration | core.NoMultiThreading | core.NoInMapperCombining,
	}
	for name, ab := range configs {
		eng := e.engine(core.Options{Ablate: ab})
		rs, _, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("config %s: %s", name, why)
		}
	}
}

// TestHashTablesBuiltOncePerNode verifies §5's headline property: with
// multi-threading + JVM reuse + one-task-per-node, the dimension hash
// tables are computed exactly once per node per query.
func TestHashTablesBuiltOncePerNode(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, _ := ssb.QueryByName("Q3.1")

	eng := e.engine(core.Options{})
	_, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// One build per dimension on every node that ran a map task; the
	// scheduler may leave a node without one, so the nodes are read from the
	// job report.
	builds := rep.Job.Counters.Get(core.CtrHashTablesBuilt)
	nodes := map[string]bool{}
	for _, task := range rep.Job.Tasks {
		if strings.HasPrefix(task.TaskID, "m-") {
			nodes[task.Node] = true
		}
	}
	if wantBuilds := int64(3 * len(nodes)); builds != wantBuilds || len(nodes) == 0 {
		t.Errorf("multi-threaded: %d hash builds, want %d (3 dims × the %d nodes that ran a map task)",
			builds, wantBuilds, len(nodes))
	}

	// Without multi-threading every map task builds privately.
	_, rep2, err := e.engine(core.Options{Ablate: core.NoMultiThreading | core.NoInMapperCombining}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds2 := rep2.Job.Counters.Get(core.CtrHashTablesBuilt)
	mapTasks := rep2.Job.Counters.Get(mr.CtrMapTasks)
	if builds2 != 3*mapTasks {
		t.Errorf("single-threaded: %d builds for %d tasks, want %d", builds2, mapTasks, 3*mapTasks)
	}
	if builds2 <= builds {
		t.Errorf("single-threaded should build more tables (%d vs %d)", builds2, builds)
	}
}

// TestColumnarPruningReadsFewerBytes checks the I/O saving of CIF pruning.
func TestColumnarPruningReadsFewerBytes(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	q, _ := ssb.QueryByName("Q1.1")
	// Warm the dimension cache so the one-time copy doesn't skew the
	// measured scan bytes.
	if _, err := core.EnsureCatalogCached(e.fs, e.lay.Catalog()); err != nil {
		t.Fatal(err)
	}

	readDelta := func(ab core.Ablate) int64 {
		before := e.fs.Metrics().Snapshot()
		// Zone-map pruning and bloom pushdown off: this test isolates the
		// saving of column projection alone (pruning has its own tests, and
		// bloom derivation adds driver-side dimension reads that would skew
		// the scan-byte comparison).
		eng := e.engine(core.Options{Ablate: ab | core.NoScanPruning | core.NoBloomPushdown})
		if _, _, err := eng.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		after := e.fs.Metrics().Snapshot()
		return (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
	}
	pruned := readDelta(0)
	full := readDelta(core.NoColumnarStorage | core.NoInMapperCombining)
	if pruned*2 >= full {
		t.Errorf("pruned scan read %d bytes, full %d; expected a large saving", pruned, full)
	}
}

// TestMultiThreadedRunsOneTaskPerNode inspects the scheduling behaviour.
func TestMultiThreadedRunsOneTaskPerNode(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, _ := ssb.QueryByName("Q2.1")
	_, rep, err := e.engine(core.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// JVM reuse means at most one JVM started per node for the map side
	// (reducers may add their own; count map JVMs via reuse counter).
	jvms := rep.Job.Counters.Get(mr.CtrJVMsStarted)
	maxJVMs := int64(len(e.cluster.Nodes())) * 2 // map + reduce pools
	if jvms > maxJVMs {
		t.Errorf("JVMs started = %d, want <= %d", jvms, maxJVMs)
	}
	if rep.Job.Counters.Get(core.CtrHashReuses)+rep.Job.Counters.Get(core.CtrHashTablesBuilt) == 0 {
		t.Error("no hash table activity recorded")
	}
	// Probe threads per task should equal the packed split count (up to map
	// slots).
	threads := rep.Job.Counters.Get(core.CtrProbeThreads)
	tasks := rep.Job.Counters.Get(mr.CtrMapTasks)
	if threads <= tasks {
		t.Errorf("probe threads %d should exceed map tasks %d (multi-threading)", threads, tasks)
	}
}

// TestDimCache verifies the node-local dimension cache lifecycle, including
// recovery after a node loses its local storage.
func TestDimCache(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	cat := e.lay.Catalog()
	n, err := core.EnsureCatalogCached(e.fs, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*3 { // 4 dims × 3 nodes
		t.Errorf("copied %d, want 12", n)
	}
	// Second call is a no-op.
	n, err = core.EnsureCatalogCached(e.fs, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("recopied %d", n)
	}
	// A node that dies and revives lost its local copies; queries must
	// still work (re-copy from the HDFS master, §4).
	e.cluster.Node("node-1").Kill()
	if _, _, err := e.fs.OnNodeFailure("node-1"); err != nil {
		t.Fatal(err)
	}
	e.cluster.Node("node-1").Revive()
	q, _ := ssb.QueryByName("Q1.2")
	rs, _, err := e.engine(core.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refexec.Run(e.gen, q)
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("after node bounce: %s", why)
	}
}

// TestMemoryReservedDuringQuery ensures hash-table memory is accounted and
// released.
func TestMemoryReservedDuringQuery(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	q, _ := ssb.QueryByName("Q4.1")
	if _, _, err := e.engine(core.Options{}).Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
}

// TestQueryOOMWhenHashTablesExceedNode forces a tiny node memory budget.
func TestQueryOOMWhenHashTablesExceedNode(t *testing.T) {
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: 2048})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 5})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{})
	q, _ := ssb.QueryByName("Q3.1") // large-ish customer hash
	if _, _, err := eng.Run(context.Background(), q); err == nil {
		t.Error("expected OOM with a 2 KB node budget")
	}
}

func TestEstimateHashTableBytes(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q31, _ := ssb.QueryByName("Q3.1")
	q32, _ := ssb.QueryByName("Q3.2")
	each := func(table string, fn func(records.Record) error) error { return gen.Each(table, fn) }
	total := func(dims []core.DimSpec) (sum int64) {
		t.Helper()
		tables, err := core.BuildDimTables(dims, each)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range tables {
			sum += h.MemBytes
		}
		return sum
	}
	b31, b32 := total(q31.Dims), total(q32.Dims)
	if b31 <= 0 || b32 <= 0 {
		t.Fatal("estimates must be positive")
	}
	// Q3.1 (region predicate, 1/5 of customers) needs more memory than Q3.2
	// (nation predicate, 1/25) — the asymmetry behind the §6.4 OOMs.
	if b31 <= b32 {
		t.Errorf("Q3.1 estimate %d should exceed Q3.2 estimate %d", b31, b32)
	}
}

func TestValidationErrors(t *testing.T) {
	e := newEnv(t, 1, 0.002)
	eng := e.engine(core.Options{})
	bad := &core.Query{Name: "no-agg"}
	if _, _, err := eng.Run(context.Background(), bad); err == nil {
		t.Error("expected validation error")
	}
}

// TestCombinerShrinksShuffle checks the partial aggregation Figure 4
// mentions: the combiner collapses per-task duplicate group keys, so the
// shuffle moves less data than the raw map output. In-mapper combining is
// disabled here so the combiner actually has duplicates to collapse — with
// it on, map output is already one record per group per task and the
// combiner is a no-op (TestInMapperCombiningShrinksMapOutput covers that).
func TestCombinerShrinksShuffle(t *testing.T) {
	e := newEnv(t, 2, 0.005)
	q, _ := ssb.QueryByName("Q1.1") // grand aggregate: every task combines to one pair
	_, rep, err := e.engine(core.Options{Ablate: core.NoInMapperCombining}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctr := rep.Job.Counters
	mapOut := ctr.Get(mr.CtrMapOutputBytes)
	shuffled := ctr.Get(mr.CtrShuffleBytes)
	if mapOut == 0 {
		t.Fatal("no map output recorded")
	}
	if shuffled*2 > mapOut {
		t.Errorf("shuffle %d bytes vs map output %d; combiner ineffective", shuffled, mapOut)
	}
	if ctr.Get(mr.CtrCombineInput) <= ctr.Get(mr.CtrCombineOutput) {
		t.Errorf("combiner in=%d out=%d; no collapsing",
			ctr.Get(mr.CtrCombineInput), ctr.Get(mr.CtrCombineOutput))
	}
}

// TestInMapperCombiningShrinksMapOutput runs the same queries with in-mapper
// combining on and off and checks three things: the answers are identical,
// the probe counters are identical — CtrProbeRows/CtrProbeEmits count fact
// rows scanned and joined rows, not collector calls, so aggregating before
// the collector must not change them — and the map output actually shrinks
// to (at most) one record per group per probe thread.
func TestInMapperCombiningShrinksMapOutput(t *testing.T) {
	e := newEnv(t, 3, 0.005)
	for _, name := range []string{"Q1.1", "Q2.1"} { // grand aggregate + grouped
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rsOn, repOn, err := e.engine(core.Options{}).Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s combining on: %v", name, err)
		}
		rsOff, repOff, err := e.engine(core.Options{Ablate: core.NoInMapperCombining}).Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s combining off: %v", name, err)
		}
		if ok, why := results.Equivalent(rsOn, rsOff, 1e-9); !ok {
			t.Errorf("%s: combining changed answers: %s", name, why)
		}
		cOn, cOff := repOn.Job.Counters, repOff.Job.Counters
		for _, ctr := range []string{core.CtrProbeRows, core.CtrProbeEmits} {
			if cOn.Get(ctr) != cOff.Get(ctr) {
				t.Errorf("%s: %s = %d with combining, %d without; must not depend on the emit path",
					name, ctr, cOn.Get(ctr), cOff.Get(ctr))
			}
		}
		mapOn, mapOff := cOn.Get(mr.CtrMapOutputRecords), cOff.Get(mr.CtrMapOutputRecords)
		if mapOff != cOff.Get(core.CtrProbeEmits) {
			t.Errorf("%s: without combining map output %d records, want one per emit (%d)",
				name, mapOff, cOff.Get(core.CtrProbeEmits))
		}
		if mapOn >= mapOff {
			t.Errorf("%s: map output %d records with combining vs %d without; no shrink",
				name, mapOn, mapOff)
		}
	}
}
