package serve

import (
	"context"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// ssbVariant is the named SSB query with its dimension list copied and edit
// applied.
func ssbVariant(tb testing.TB, base string, edit func(q *core.Query)) *core.Query {
	tb.Helper()
	q, err := ssb.QueryByName(base)
	if err != nil {
		tb.Fatal(err)
	}
	v := *q
	v.Dims = append([]core.DimSpec(nil), q.Dims...)
	if edit != nil {
		edit(&v)
	}
	return &v
}

// withDimPred ANDs p onto the predicate of q's dimension table.
func withDimPred(q *core.Query, table string, p expr.Pred) {
	for i := range q.Dims {
		d := &q.Dims[i]
		if d.Table != table {
			continue
		}
		if d.Pred == nil {
			d.Pred = p
		} else {
			d.Pred = expr.And(d.Pred, p)
		}
	}
}

// keyOf is the result-cache key of q over the SSB schemas.
func keyOf(tb testing.TB, cat *core.Catalog, q *core.Query) (plan.CacheKey, *plan.Shape) {
	tb.Helper()
	l, err := core.LogicalOf(q, cat)
	if err != nil {
		tb.Fatal(err)
	}
	sh, err := plan.Decompose(l)
	if err != nil {
		tb.Fatal(err)
	}
	return plan.KeyOf(sh), sh
}

// seed caches rows under key as computed at versions at.
func seed(tb testing.TB, rc *resultCache, key plan.CacheKey, at core.Versions, rows *results.ResultSet) {
	tb.Helper()
	_, kind, _, publish, err := rc.lookup(context.Background(), &key, nil, at)
	if err != nil || kind != "miss" {
		tb.Fatalf("seeding %s: %s, %v", key.Fingerprint(), kind, err)
	}
	publish(rows, at)
}

// TestResultCacheSubsumerIsDeterministic: when several finished entries
// subsume a statement, the answer comes from the one with the fewest rows,
// and between equally small ones from the one whose fingerprint sorts
// first, whatever order the cache holds them in. The rows are made up so
// that each entry's answer is told apart by its sum.
func TestResultCacheSubsumerIsDeterministic(t *testing.T) {
	cat := &core.Catalog{
		FactName:   ssb.TableLineorder,
		FactSchema: ssb.LineorderSchema,
		DimSchemas: map[string]*records.Schema{
			ssb.TableCustomer: ssb.CustomerSchema,
			ssb.TableSupplier: ssb.SupplierSchema,
			ssb.TablePart:     ssb.PartSchema,
			ssb.TableDate:     ssb.DateSchema,
		},
	}
	year := expr.Eq(expr.Col("d_year"), expr.ConstInt(1997))
	canada := expr.Eq(expr.Col("c_nation"), expr.ConstStr("CANADA"))
	// Q4.1 groups by d_year, c_nation: the broad statement, one narrowed by
	// year, one by nation, and the statement narrowed by both, which all
	// three subsume.
	broad, _ := keyOf(t, cat, ssbVariant(t, "Q4.1", nil))
	byYear, _ := keyOf(t, cat, ssbVariant(t, "Q4.1", func(q *core.Query) { withDimPred(q, ssb.TableDate, year) }))
	byNation, _ := keyOf(t, cat, ssbVariant(t, "Q4.1", func(q *core.Query) { withDimPred(q, ssb.TableCustomer, canada) }))
	narrow, sh := keyOf(t, cat, ssbVariant(t, "Q4.1", func(q *core.Query) {
		withDimPred(q, ssb.TableDate, year)
		withDimPred(q, ssb.TableCustomer, canada)
	}))
	if byNation.Fingerprint() >= byYear.Fingerprint() {
		t.Fatalf("fixture: the nation entry's fingerprint must sort first:\n%s\n%s", byNation.Fingerprint(), byYear.Fingerprint())
	}
	// Each entry's made-up rows hold to its own predicates and include one
	// (1997, CANADA) group, whose sum tells the entries apart.
	schema := sh.ResultSchema()
	rowsOf := func(sum float64, groups ...string) *results.ResultSet {
		rs := &results.ResultSet{Schema: schema}
		for _, g := range groups {
			year, nation := int64(1997), g
			if g == "CANADA-1998" {
				year, nation = 1998, "CANADA"
			}
			rs.Rows = append(rs.Rows, records.Make(schema, records.Int(year), records.Str(nation), records.Float(sum)))
		}
		return rs
	}
	rows := map[string]*results.ResultSet{
		broad.Fingerprint():    rowsOf(1, "CANADA", "PERU", "CANADA-1998"),
		byYear.Fingerprint():   rowsOf(2, "CANADA", "PERU"),
		byNation.Fingerprint(): rowsOf(3, "CANADA", "CANADA-1998"),
	}
	at := core.Versions{Tables: narrow.Tables, At: make([]uint64, len(narrow.Tables))}

	// A lookup seeds no entry a cached one subsumes, so each walk seeds its
	// entries narrow first.
	walk := func(want float64, why string, entries ...plan.CacheKey) {
		t.Helper()
		cache := newResultCache(1<<20, obs.NewRegistry())
		for _, k := range entries {
			seed(t, cache, k, at, rows[k.Fingerprint()])
		}
		for i := 0; i < 20; i++ { // map order varies per walk
			rs, kind, _, publish, err := cache.lookup(context.Background(), &narrow, nil, at)
			if err != nil || kind != "subsumed" {
				if publish != nil {
					publish(nil, core.Versions{})
				}
				t.Fatalf("lookup: %s, %v; want a subsumed hit", kind, err)
			}
			if len(rs.Rows) != 1 {
				t.Fatalf("subsumed answer has %d rows, want the one (1997, CANADA) row", len(rs.Rows))
			}
			if got := rs.Rows[0].At(2).Float64(); got != want {
				t.Fatalf("lookup %d answered from the entry summing %v, want %s", i, got, why)
			}
		}
	}
	walk(2, "the year entry (2 rows, not 3)", byYear, broad)
	walk(3, "the nation entry (2 rows, the first fingerprint)", byYear, byNation, broad)
}

// BenchmarkServeHit is the driver-side cost of a result-cache answer through
// Session.Query, over a cache that also holds 300 entries of another
// skeleton: exact, a repeat of a cached statement; subsumed, a statement a
// cached broader one answers after a post-filter; miss-scan, the lookup of a
// statement nothing cached answers (the exact miss and the search for a
// subsumer, then the placeholder given back, without the job a miss runs).
func BenchmarkServeHit(b *testing.B) {
	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		b.Fatal(err)
	}
	cat := lay.Catalog()
	s := New(mr.NewEngine(c, fs, mr.Options{}), cat, Options{ProfileDepth: -1})
	defer s.Close()
	ctx := context.Background()

	for i := 0; i < 300; i++ {
		key, sh := keyOf(b, cat, ssbVariant(b, "Q3.1", func(q *core.Query) {
			q.FactPred = expr.Lt(expr.Col("lo_quantity"), expr.ConstInt(int64(i)))
		}))
		at, err := s.eng.CurrentVersions(key.Tables)
		if err != nil {
			b.Fatal(err)
		}
		seed(b, s.rcache, key, at, &results.ResultSet{Schema: sh.ResultSchema()})
	}
	exact := ssbVariant(b, "Q2.1", nil)
	broad := ssbVariant(b, "Q4.1", nil)
	narrow := ssbVariant(b, "Q4.1", func(q *core.Query) {
		withDimPred(q, ssb.TableDate, expr.Eq(expr.Col("d_year"), expr.ConstInt(1997)))
	})
	for _, q := range []*core.Query{exact, broad} {
		if _, _, err := s.Query(ctx, q); err != nil { // computes and caches the answer
			b.Fatal(err)
		}
	}
	hit := func(q *core.Query, subsumed bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			st := s.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Query(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			after := s.Stats()
			if got := after.ResultHits + after.ResultSubsumedHits - st.ResultHits - st.ResultSubsumedHits; got != int64(b.N) || after.ResultMisses != st.ResultMisses {
				b.Fatalf("%d of %d lookups hit, %d missed", got, b.N, after.ResultMisses-st.ResultMisses)
			}
			if subsumed && after.ResultSubsumedHits-st.ResultSubsumedHits != int64(b.N) {
				b.Fatalf("%d of %d lookups subsumed", after.ResultSubsumedHits-st.ResultSubsumedHits, b.N)
			}
		}
	}
	b.Run("exact", hit(exact, false))
	b.Run("subsumed", hit(narrow, true))
	b.Run("miss-scan", func(b *testing.B) {
		key, _ := keyOf(b, cat, ssbVariant(b, "Q1.1", nil))
		at, err := s.eng.CurrentVersions(key.Tables)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, kind, _, publish, err := s.rcache.lookup(ctx, &key, nil, at)
			if err != nil || kind != "miss" {
				b.Fatalf("lookup: %s, %v; want a miss", kind, err)
			}
			publish(nil, core.Versions{})
		}
	})
}
