package chaos_test

import (
	"context"
	"testing"

	"clydesdale/internal/chaos"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// factFingerprint scans the visible fact table and returns (rows, sum of
// lo_orderkey) — a cheap multiset fingerprint the ingestion chaos tests
// compare across fault recovery.
func factFingerprint(t *testing.T, e *env) (int64, int64) {
	t.Helper()
	var rows, sum int64
	oki := ssb.LineorderSchema.Index("lo_orderkey")
	if err := colstore.ScanCIFTable(e.fs, e.lay.Catalog().FactDir, "", func(r records.Record) error {
		rows++
		sum += r.At(oki).Int64()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows, sum
}

// TestChaosKillMidRollIn kills a datanode while a roll-in batch is being
// staged. The two-phase protocol's contract under test: an acknowledged
// (nil-error) roll-in is complete — every row visible — and a failed one is
// invisible, leaving the exact pre-batch table with no uncommitted debris a
// later reader could trip over. Either way, a retry lands the batch.
func TestChaosKillMidRollIn(t *testing.T) {
	e := newEnv(t, 4, 0.002)
	reg := colstore.NewSnapshots(e.fs)
	preRows, preSum := factFingerprint(t, e)

	gen := e.gen
	base := gen.LineorderRows()
	const batch = 1000
	batchSum := int64(0)
	oki := ssb.LineorderSchema.Index("lo_orderkey")
	for i := base; i < base+batch; i++ {
		batchSum += gen.Lineorder(i).At(oki).Int64()
	}

	// The node dies partway through staging: writes already placed on it
	// are mid-pipeline, the rest of the batch must place elsewhere (or the
	// whole roll-in must fail cleanly).
	victim := e.cluster.Node("node-1")
	emitted := 0
	_, _, err := reg.RollIn(e.lay.Catalog().FactDir, 200, func(emit func(records.Record) error) error {
		for i := base; i < base+batch; i++ {
			if emitted == batch*2/5 {
				victim.Kill()
			}
			if err := emit(gen.Lineorder(i)); err != nil {
				return err
			}
			emitted++
		}
		return nil
	})
	if victim.IsAlive() {
		t.Fatal("victim survived its own kill")
	}

	rows, sum := factFingerprint(t, e)
	if err != nil {
		// Failed roll-in: invisible, and no debris left behind.
		if rows != preRows || sum != preSum {
			t.Fatalf("failed roll-in changed the table: %d rows (was %d)", rows, preRows)
		}
		if swept := reg.SweepUncommitted(e.lay.Catalog().FactDir); len(swept) != 0 {
			t.Fatalf("failed roll-in left uncommitted debris: %v", swept)
		}
		// Retry on the degraded cluster must succeed (3 nodes still alive).
		if _, _, err := reg.RollIn(e.lay.Catalog().FactDir, 200, func(emit func(records.Record) error) error {
			for i := base; i < base+batch; i++ {
				if err := emit(gen.Lineorder(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("retry after clean failure: %v", err)
		}
		rows, sum = factFingerprint(t, e)
	}
	// Acknowledged state: the full batch, exactly once.
	if rows != preRows+batch || sum != preSum+batchSum {
		t.Fatalf("acknowledged roll-in lost rows: %d rows / sum %d, want %d / %d",
			rows, sum, preRows+batch, preSum+batchSum)
	}
	if swept := reg.SweepUncommitted(e.lay.Catalog().FactDir); len(swept) != 0 {
		t.Fatalf("uncommitted partitions visible on disk after ack: %v", swept)
	}
}

// TestChaosKillMidCompaction runs a compaction pass under a read-triggered
// node kill: the gather phase serves enough block reads to fire the plan's
// trigger mid-compaction. Reads must fail over to surviving replicas, the
// swap must stay atomic, and the row multiset must be byte-for-byte
// preserved — compaction can lose work to a fault, never data.
func TestChaosKillMidCompaction(t *testing.T) {
	e := newEnv(t, 4, 0.002)
	preRows, preSum := factFingerprint(t, e)

	ctl := chaos.New(e.cluster, e.fs, chaos.Plan{
		Name: "kill-mid-compaction",
		Seed: 5,
		// The gather scan reads every fact partition; node-1 dies after
		// serving a handful of those block reads.
		Kills: []chaos.NodeKill{{Node: "node-1", AfterBlockReads: 10}},
	}, e.reg)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	// Every loaded partition holds 1000 rows, so MinRows 2000 makes the
	// whole table "small": the pass gathers everything (lots of reads — the
	// kill fires mid-gather) and rewrites it re-clustered.
	reg := colstore.NewSnapshots(e.fs)
	res, err := colstore.Compact(reg, e.lay.Catalog().FactDir, colstore.CompactOptions{
		MinRows:    2000,
		TargetRows: 4000,
		ClusterBy:  "lo_orderdate",
	})
	rows, sum := factFingerprint(t, e)
	if err != nil {
		// A failed pass must leave the pre-compaction table untouched.
		if rows != preRows || sum != preSum {
			t.Fatalf("failed compaction changed the table: %d rows (was %d)", rows, preRows)
		}
	} else {
		if res.Rows != preRows {
			t.Fatalf("compaction rewrote %d rows, table had %d", res.Rows, preRows)
		}
		if rows != preRows || sum != preSum {
			t.Fatalf("compaction lost data: %d rows / sum %d, want %d / %d", rows, sum, preRows, preSum)
		}
	}
	if !e.cluster.Node("node-1").IsAlive() {
		if got := e.fs.Metrics().Snapshot().Failovers; got == 0 {
			t.Error("mid-read kill caused no hdfs failovers")
		}
	}
	if swept := reg.SweepUncommitted(e.lay.Catalog().FactDir); len(swept) != 0 {
		t.Fatalf("compaction left uncommitted partitions visible: %v", swept)
	}

	// The cluster is degraded but whole; a clean retry must converge.
	ctl.Stop()
	if _, err := colstore.Compact(reg, e.lay.Catalog().FactDir, colstore.CompactOptions{
		MinRows:    2000,
		TargetRows: 4000,
		ClusterBy:  "lo_orderdate",
	}); err != nil {
		t.Fatalf("compaction retry after faults: %v", err)
	}
	rows, sum = factFingerprint(t, e)
	if rows != preRows || sum != preSum {
		t.Fatalf("post-retry multiset drifted: %d rows / sum %d, want %d / %d", rows, sum, preRows, preSum)
	}
}

// TestChaosKillMidDimRollIn kills a node while a customer batch is being
// staged into the dimension's master copy, then revives it. The contract is
// the fact table's: an acknowledged roll-in is one new version holding the
// whole batch, a failed one is invisible — same version, no new part file,
// no debris a reader could trip over — and a retry lands it. The revived
// node comes back with no local copies and serves whatever version a query
// pinned: the newest for the next query, and the older one, re-copied from
// the master's file prefix, for a build still pinned there.
func TestChaosKillMidDimRollIn(t *testing.T) {
	e := newEnv(t, 4, 0.002)
	cat := e.lay.Catalog()
	eng := core.New(e.mr, cat, core.Options{})
	reg := eng.Snapshots()
	custDir := cat.DimDirs[ssb.TableCustomer]
	custSchema := cat.DimSchemas[ssb.TableCustomer]

	// Fact rows referencing customers the dimension does not hold yet, so
	// the customer batch visibly changes the answer below.
	gen := e.gen
	firstNew := gen.CustomerRows() // customer row i has key i+1
	const newCustomers, lateRows = 40, 400
	cki := ssb.LineorderSchema.MustIndex("lo_custkey")
	var late, customers []records.Record
	for i := int64(0); i < lateRows; i++ {
		vals := append([]records.Value(nil), gen.Lineorder(gen.LineorderRows()+i).Values()...)
		vals[cki] = records.Int(firstNew + 1 + i%newCustomers)
		late = append(late, records.Make(ssb.LineorderSchema, vals...))
	}
	for i := int64(0); i < newCustomers; i++ {
		customers = append(customers, gen.Customer(firstNew+i))
	}
	emitAll := func(rows []records.Record) func(emit func(records.Record) error) error {
		return func(emit func(records.Record) error) error {
			for _, r := range rows {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if _, _, err := reg.RollIn(cat.FactDir, 200, emitAll(late)); err != nil {
		t.Fatal(err)
	}

	q := &core.Query{
		Name: "revenue-by-region",
		Dims: []core.DimSpec{{
			Table: ssb.TableCustomer, Schema: custSchema,
			FactFK: "lo_custkey", DimPK: "c_custkey", Aux: []string{"c_region"},
		}},
		AggExpr: expr.Col("lo_revenue"),
		AggName: "revenue",
		GroupBy: []string{"c_region"},
	}
	l, err := core.LogicalOf(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	// check holds the engine to the reference over base + late fact rows,
	// with or without the customer batch, and to the version it must read.
	check := func(version uint64) {
		t.Helper()
		rs, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Read.Of(ssb.TableCustomer); got != version {
			t.Fatalf("query read %s, want customer@%d", rep.Read, version)
		}
		want, err := refexec.RunLogical(l, func(table string, fn func(records.Record) error) error {
			if err := gen.Each(table, fn); err != nil {
				return err
			}
			switch {
			case table == cat.FactName:
				return emitAll(late)(fn)
			case table == ssb.TableCustomer && version == 2:
				return emitAll(customers)(fn)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Fatalf("customer@%d: %s", version, why)
		}
	}
	check(1)

	// The node dies partway through staging the batch.
	victim := e.cluster.Node("node-1")
	emitted := 0
	_, err = reg.AppendRows(custDir, func(emit func(records.Record) error) error {
		for _, r := range customers {
			if emitted == newCustomers*2/5 {
				victim.Kill()
			}
			if err := emit(r); err != nil {
				return err
			}
			emitted++
		}
		return nil
	})
	if victim.IsAlive() {
		t.Fatal("victim survived its own kill")
	}
	if err != nil {
		// Failed roll-in: invisible, and no debris left behind.
		if got := colstore.RowTableVersion(e.fs, custDir); got != 1 {
			t.Fatalf("failed roll-in left the dimension at version %d", got)
		}
		if files := e.fs.List(custDir + "/"); len(files) != 2 { // _schema, part-00000
			t.Fatalf("failed roll-in left debris: %v", files)
		}
		check(1)
		// Retry on the degraded cluster must succeed (3 nodes still alive).
		if _, err := reg.AppendRows(custDir, emitAll(customers)); err != nil {
			t.Fatalf("retry after clean failure: %v", err)
		}
	}
	// Acknowledged state: the whole batch, as exactly one new version.
	if got := colstore.RowTableVersion(e.fs, custDir); got != 2 {
		t.Fatalf("acknowledged roll-in left the dimension at version %d, want 2", got)
	}
	if files := e.fs.List(custDir + "/"); len(files) != 3 {
		t.Fatalf("dimension files after the ack: %v", files)
	}
	check(2)

	// The node comes back empty. The next query pins customer@2 and gives
	// the node that version's copy; a build still pinned at customer@1 gets
	// the first file's rows, not the batch.
	victim.Revive()
	if copies := victim.LocalPaths("clydesdale/dimcache"); len(copies) != 0 {
		t.Fatalf("revived node kept local files: %v", copies)
	}
	check(2)
	if copies := victim.LocalPaths("clydesdale/dimcache" + custDir + "@"); len(copies) != 1 || copies[0] != "clydesdale/dimcache"+custDir+"@2" {
		t.Errorf("revived node holds customer copies %v, want the version-2 copy alone", copies)
	}
	spec := q.Dims[0]
	for version, rows := range map[uint64]int{1: int(firstNew), 2: int(firstNew) + newCustomers} {
		spec.Version = version
		h, err := core.BuildDimHashTable(e.fs, victim, custDir, &spec)
		if err != nil {
			t.Fatalf("build at customer@%d on the revived node: %v", version, err)
		}
		if h.Len() != rows {
			t.Errorf("revived node built %d entries at customer@%d, want %d", h.Len(), version, rows)
		}
	}
}
