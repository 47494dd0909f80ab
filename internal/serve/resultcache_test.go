package serve_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// jobsSubmitted reads mr.jobs_submitted: the jobs of the engine the
// registry observes, counted since it was made.
func jobsSubmitted(reg *obs.Registry) int64 { return reg.Snapshot().Counters["mr.jobs_submitted"] }

// TestServeResultCacheSingleflight: concurrent identical queries coalesce
// into ONE MapReduce job — the first becomes the builder, the rest block on
// the in-flight entry — and every caller gets the reference answer.
func TestServeResultCacheSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Metrics: reg})
	s := e.session(serve.Options{MaxConcurrent: 8})
	defer s.Close()

	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	before := jobsSubmitted(reg)
	var wg sync.WaitGroup
	sets := make([]*results.ResultSet, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sets[i], _, errs[i] = s.Query(context.Background(), q)
		}(i)
	}
	wg.Wait()

	want, err := refexec.Run(e.gen, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if ok, why := results.Equivalent(sets[i], want, 1e-9); !ok {
			t.Errorf("caller %d: %s", i, why)
		}
	}
	if jobs := jobsSubmitted(reg) - before; jobs != 1 {
		t.Errorf("%d concurrent identical queries submitted %d MR jobs, want 1", callers, jobs)
	}
	st := s.Stats()
	if st.ResultMisses != 1 || st.ResultHits != callers-1 {
		t.Errorf("misses=%d hits=%d, want 1 miss and %d piggybacked hits",
			st.ResultMisses, st.ResultHits, callers-1)
	}
}

// narrowedQ41 clones Q4.1 with an extra date-dimension predicate reading
// only a group-by column (d_year) — the shape the subsumption rule serves by
// post-filtering the cached broad result's group rows.
func narrowedQ41(t *testing.T) *core.Query {
	t.Helper()
	broad, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	q := *broad
	q.Dims = append([]core.DimSpec(nil), broad.Dims...)
	d := &q.Dims[0] // date dimension: no predicate in broad Q4.1
	if d.Table != "date" || d.Pred != nil {
		t.Fatalf("Q4.1 dim 0 = %s pred %v; the narrowing below needs updating", d.Table, d.Pred)
	}
	d.Pred = expr.Eq(expr.Col("d_year"), expr.ConstInt(1997))
	return &q
}

// TestServeResultCacheSubsumption: after the broad Q4.1 is cached, the
// strictly-narrower d_year=1997 variant is answered from the cached rows —
// no MapReduce job — and still matches the reference executor run on the
// narrow query itself.
func TestServeResultCacheSubsumption(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Metrics: reg})
	s := e.session(serve.Options{})
	defer s.Close()

	broad, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), broad); err != nil {
		t.Fatal(err)
	}
	coldJobs := jobsSubmitted(reg)
	if coldJobs == 0 {
		t.Fatal("cold Q4.1 submitted no MR jobs")
	}

	narrow := narrowedQ41(t)
	rs, _, err := s.Query(context.Background(), narrow)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := jobsSubmitted(reg); jobs != coldJobs {
		t.Errorf("narrow query submitted %d MR jobs; subsumption must serve from cache", jobs-coldJobs)
	}
	if st := s.Stats(); st.ResultSubsumedHits != 1 {
		t.Errorf("subsumption hits = %d, want 1", st.ResultSubsumedHits)
	}
	want, err := refexec.Run(e.gen, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("subsumed answer vs reference: %s", why)
	}
}

// TestServeResultCacheExternalWriter: when a writer outside the session
// appends fact partitions, InvalidateTable gives the table a new version and
// the next identical query recomputes against the grown table instead of
// serving the cached sum of the older version. Duplicating the whole fact
// table makes the staleness arithmetic exact: the fresh Q1.1 revenue must be
// exactly twice the cached one.
func TestServeResultCacheExternalWriter(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Metrics: reg})
	s := e.session(serve.Options{})
	defer s.Close()

	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 1 {
		t.Fatalf("Q1.1 returned %d rows, want 1", len(before.Rows))
	}
	jobsBefore := jobsSubmitted(reg)

	// Append a full copy of the fact data behind the session's back (no
	// rewrite of existing partitions), then tell the session.
	w, err := colstore.AppendPartitions(e.fs, e.lay.FactCIF, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.gen.Each(ssb.TableLineorder, w.Append); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.InvalidateTable(ssb.TableLineorder); err != nil {
		t.Fatal(err)
	}

	after, _, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := jobsSubmitted(reg); jobs == jobsBefore {
		t.Error("query after the append served from cache; a new table version must force recompute")
	}
	got := after.Rows[0].Get(q.AggName).Float64()
	want := 2 * before.Rows[0].Get(q.AggName).Float64()
	if got != want {
		t.Errorf("post-roll-in revenue = %v, want exactly doubled %v", got, want)
	}
	if st := s.Stats(); st.ResultInvalidations != 1 {
		t.Errorf("%d superseded results reclaimed, want the one stale Q1.1 entry", st.ResultInvalidations)
	}
}

// TestServeResultCacheCloseReleases: cached result bytes are reserved like
// table bytes and must be zero after Close.
func TestServeResultCacheCloseReleases(t *testing.T) {
	e := newEnv(t, 2, 0.002, mr.Options{})
	s := e.session(serve.Options{})

	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultBytes == 0 {
		t.Fatal("no resident result bytes after a cacheable query")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ResultBytes != 0 {
		t.Errorf("%d result bytes still resident after Close", st.ResultBytes)
	}
	e.checkNoLeak(t)
}

// TestServeTellsConstantListsApart: Q3.3's customer filter is a list of two
// cities; the same statement with the one city whose name is that list's
// text asks for a customer no table holds. Both the result-cache key and the
// table-cache key are built from a predicate's text, so with either cache on
// the second statement must still get its own answer, not Q3.3's.
func TestServeTellsConstantListsApart(t *testing.T) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(0.005, 48) // a seed whose Q3.3 answer is not empty
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	const q33 = `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_year >= 1992 AND d_year <= 1997
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC`
	one := strings.Replace(q33, "c_city IN ('UNITED KI1', 'UNITED KI5')", "c_city IN ('UNITED KI1, UNITED KI5')", 1)
	for _, budget := range []int64{0, -1} {
		s := serve.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), serve.Options{ResultCacheBudget: budget})
		for i, text := range []string{q33, one} {
			l, err := sql.Parse(text, lay.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			want, err := refexec.RunLogical(l, gen.Each)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && len(want.Rows) == 0 {
				t.Fatal("fixture: Q3.3 answers no row, so nothing tells the statements apart")
			}
			rs, _, err := s.QueryPlan(context.Background(), l)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
				t.Errorf("result cache budget %d, statement %d: %s\ngot:\n%swant:\n%s", budget, i+1, why, rs, want)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeProfileNamesResultCacheOutcome: a served statement's profile says
// what the result cache did for it, on the root span's result_cache
// attribute and on EXPLAIN ANALYZE's header line: the first statement a
// miss, its repeat a hit, a statement it narrows subsumed, and every
// statement "off" in a session without the cache.
func TestServeProfileNamesResultCacheOutcome(t *testing.T) {
	e := newEnv(t, 2, 0.002, mr.Options{})
	broad, err := ssb.QueryByName("Q4.1")
	if err != nil {
		t.Fatal(err)
	}
	again := *broad
	again.Name = "Q4.1-again"
	narrow := narrowedQ41(t)
	narrow.Name = "Q4.1-narrow"
	for _, c := range []struct {
		budget int64
		want   map[string]string
	}{
		{0, map[string]string{"Q4.1": "miss", "Q4.1-again": "hit", "Q4.1-narrow": "subsumed"}},
		{-1, map[string]string{"Q4.1": "off", "Q4.1-again": "off", "Q4.1-narrow": "off"}},
	} {
		s := e.session(serve.Options{ResultCacheBudget: c.budget})
		for _, q := range []*core.Query{broad, &again, narrow} {
			if _, _, err := s.Query(context.Background(), q); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
		got := map[string]string{}
		for _, p := range s.Profiles().Recent() {
			got[p.Query] = p.ResultCache
			if root := p.Root.Span.Attrs["result_cache"]; root != p.ResultCache {
				t.Errorf("%s: profile says %q, root span %q", p.Query, p.ResultCache, root)
			}
			var text strings.Builder
			p.WriteText(&text)
			header, _, _ := strings.Cut(text.String(), "\n")
			if want := ", result cache " + c.want[p.Query] + ")"; !strings.HasSuffix(header, want) {
				t.Errorf("%s: EXPLAIN ANALYZE header %q does not end in %q", p.Query, header, want)
			}
		}
		for name, want := range c.want {
			if got[name] != want {
				t.Errorf("result cache budget %d: %s profiled result_cache=%q, want %q", c.budget, name, got[name], want)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeHitKeepsEachStatementsOrder: ordering is not part of the cache
// identity, so two statements that differ only in ORDER BY share one entry,
// and a third narrows it. After the first computes the entry, each of the
// three is answered from the cache, and each gets its rows in its own
// order: the reference executor's answer sorted the same way, row for row.
func TestServeHitKeepsEachStatementsOrder(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, 2, 0.002, mr.Options{Metrics: reg})
	s := e.session(serve.Options{})
	defer s.Close()

	byYear, err := ssb.QueryByName("Q3.1") // ORDER BY d_year ASC, revenue DESC
	if err != nil {
		t.Fatal(err)
	}
	byNation := *byYear
	byNation.Name = "Q3.1-by-nation"
	byNation.OrderBy = []core.OrderKey{{Col: "c_nation"}, {Col: "s_nation", Desc: true}, {Col: "d_year", Desc: true}}
	in1995 := byNation
	in1995.Name = "Q3.1-1995"
	in1995.Dims = append([]core.DimSpec(nil), byYear.Dims...)
	for i := range in1995.Dims {
		if d := &in1995.Dims[i]; d.Table == ssb.TableDate {
			d.Pred = expr.And(d.Pred, expr.Eq(expr.Col("d_year"), expr.ConstInt(1995)))
		}
	}
	in1995.OrderBy = []core.OrderKey{{Col: "revenue"}}

	if _, _, err := s.Query(context.Background(), byYear); err != nil {
		t.Fatal(err)
	}
	jobs := jobsSubmitted(reg)
	for _, q := range []*core.Query{&byNation, byYear, &in1995} {
		got, _, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.Run(e.gen, q)
		if err != nil {
			t.Fatal(err)
		}
		orders := make([]results.Order, len(q.OrderBy))
		for i, k := range q.OrderBy {
			orders[i] = results.Order(k)
		}
		if err := want.Sort(orders); err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) || len(want.Rows) < 2 {
			t.Fatalf("%s: %d rows, reference %d (the order check needs two or more)", q.Name, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			g := &results.ResultSet{Schema: got.Schema, Rows: got.Rows[i : i+1]}
			w := &results.ResultSet{Schema: want.Schema, Rows: want.Rows[i : i+1]}
			if ok, why := results.Equivalent(g, w, 1e-9); !ok {
				t.Errorf("%s row %d: %s", q.Name, i, why)
			}
		}
	}
	if n := jobsSubmitted(reg); n != jobs {
		t.Errorf("%d jobs ran after the first statement; all three must be answered from the cache", n-jobs)
	}
	if st := s.Stats(); st.ResultHits != 2 || st.ResultSubsumedHits != 1 {
		t.Errorf("hits=%d subsumed=%d, want 2 and 1", st.ResultHits, st.ResultSubsumedHits)
	}
}
