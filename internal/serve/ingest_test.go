package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/ssb"
)

// lineorderAt returns generated fact row i with lo_orderdate overridden —
// the retention tests need a batch whose every date provably predates a
// cutoff.
func lineorderAt(gen *ssb.Generator, i int64, datekey int64) records.Record {
	r := gen.Lineorder(i)
	idx := ssb.LineorderSchema.Index("lo_orderdate")
	vals := make([]records.Value, r.Len())
	for j := 0; j < r.Len(); j++ {
		vals[j] = r.At(j)
	}
	vals[idx] = records.Int(datekey)
	return records.Make(ssb.LineorderSchema, vals...)
}

// emitRange emits generated lineorder rows [lo, hi); datekey >= 0 overrides
// every row's lo_orderdate.
func emitRange(gen *ssb.Generator, lo, hi int64, datekey int64) func(emit func(records.Record) error) error {
	return func(emit func(records.Record) error) error {
		for i := lo; i < hi; i++ {
			r := gen.Lineorder(i)
			if datekey >= 0 {
				r = lineorderAt(gen, i, datekey)
			}
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// refWith runs the reference executor over the generator plus extra fact
// rows.
func refWith(t *testing.T, e *env, q *core.Query, extras ...[]records.Record) *results.ResultSet {
	t.Helper()
	cat := e.lay.Catalog()
	l, err := core.LogicalOf(q, cat)
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	rs, err := refexec.RunLogical(l, func(table string, fn func(records.Record) error) error {
		if err := e.gen.Each(table, fn); err != nil {
			return err
		}
		if table == cat.FactName {
			for _, batch := range extras {
				for _, r := range batch {
					if err := fn(r); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s ref: %v", q.Name, err)
	}
	return rs
}

func materialize(gen *ssb.Generator, lo, hi int64, datekey int64) []records.Record {
	var out []records.Record
	emitRange(gen, lo, hi, datekey)(func(r records.Record) error {
		out = append(out, r)
		return nil
	})
	return out
}

// TestServeDimRollInRebuildsTables is the regression test for the stale
// serving caches: before the fix, a dimension roll-in left the cross-query
// table cache serving hash tables built from the old dimension contents and
// the result cache serving old sums. RollIn must evict both — observable as
// the build counter incrementing on the next query instead of a warm hit —
// and every evicted table's memory reservation must come back.
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
	if st.TableInvalidations == 0 {
		t.Fatal("roll-in invalidated no cached tables")
	}
	if st.ResultInvalidations == 0 {
		t.Fatal("roll-in invalidated no cached results")
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
		t.Fatal("post-roll-in query hit the invalidated result cache")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	e.checkNoLeak(t)
}

// TestServeSnapshotIsolationOracle is the acceptance oracle: all 13 SSB
// queries run concurrently with a fact roll-in, a compaction pass, a second
// (backdated) roll-in, and date retention — under -race via make check.
// Every query's result must equal the reference executor over one of the
// consistent table states (base; base+A; base+A+B), never a blend: the
// partition-list snapshot is pinned at plan time and every swap is atomic.
func TestServeSnapshotIsolationOracle(t *testing.T) {
	e := newEnv(t, 3, 0.002, mr.Options{})
	s := e.session(serve.Options{MaxConcurrent: 8, IngestPartitionRows: 200})
	defer s.Close()

	gen := e.gen
	base := gen.LineorderRows()
	const (
		batchA   = 1000 // fresh rows, natural dates
		batchB   = 500  // backdated rows, all on the retention boundary
		oldDate  = 19920101
		cutoff   = 19920102
		statesN  = 3
		queryGap = 3 * time.Millisecond
	)
	batchARows := materialize(gen, base, base+batchA, -1)
	batchBRows := materialize(gen, base+batchA, base+batchA+batchB, oldDate)

	// Reference results for every consistent state each query may observe.
	queries := ssb.Queries()
	wants := make([][statesN]*results.ResultSet, len(queries))
	for i, q := range queries {
		wants[i][0] = refWith(t, e, q)
		wants[i][1] = refWith(t, e, q, batchARows)
		wants[i][2] = refWith(t, e, q, batchARows, batchBRows)
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	sets := make([]*results.ResultSet, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q *core.Query) {
			defer wg.Done()
			sets[i], _, errs[i] = s.Query(context.Background(), q)
		}(i, q)
		time.Sleep(queryGap) // stagger so plan times straddle the mutations
	}

	// The mutation sequence, racing the queries. Every step is atomic, so
	// a query planned at any instant sees exactly one of the three states.
	if _, err := s.RollIn("lineorder", emitRange(gen, base, base+batchA, -1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(queryGap)
	// Compact batch A's small partitions (base partitions are full-size);
	// the row multiset is unchanged, so no fourth state appears.
	res, err := s.CompactFact(colstore.CompactOptions{MinRows: 500, TargetRows: 1000, ClusterBy: "lo_orderdate"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != batchA || len(res.Retired) != 5 {
		t.Fatalf("compaction = %+v, want all %d batch-A rows from 5 small partitions", res, batchA)
	}
	time.Sleep(queryGap)
	if _, err := s.RollIn("lineorder", emitRange(gen, base+batchA, base+batchA+batchB, oldDate)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(queryGap)
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

	for i, q := range queries {
		if errs[i] != nil {
			t.Fatalf("%s: %v", q.Name, errs[i])
		}
		matched := false
		for st := 0; st < statesN; st++ {
			if ok, _ := results.Equivalent(sets[i], wants[i][st], 1e-9); ok {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s matches no consistent table state (torn snapshot?):\n%s", q.Name, sets[i])
		}
	}

	// Quiesced end state: base + A, batch B retired, nothing uncommitted.
	var rows int64
	if err := colstore.ScanCIFTable(e.fs, e.lay.Catalog().FactDir, "", func(records.Record) error {
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != base+batchA {
		t.Fatalf("final table has %d rows, want %d", rows, base+batchA)
	}
	for i, q := range queries {
		rs, _, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(rs, wants[i][1], 1e-9); !ok {
			t.Errorf("%s after retention: %s", q.Name, why)
		}
	}

	st := s.Stats()
	if st.RollIns != 2 || st.Compactions != 1 || st.PartitionsRetired != 5+3 {
		t.Errorf("ingest stats = %+v", st)
	}
}
