package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestDimRollInReachesNextQuery is the regression test for the
// stale-pushdown bug: the engine memoizes the FK-range prune hint and
// semi-join bloom derived from a filtered dimension scan, and the node-local
// dimension copies feed every hash-table build. Serving either from the
// state before a dimension roll-in prunes every new fact partition, drops
// every new fact row, or builds tables missing the new keys, so queries
// silently return the old answer forever. All of it is keyed by the version
// of the dimension it was derived from: the very next query pins the new
// version, must see the new rows, and every node ends up holding the new
// version's copy alone.
func TestDimRollInReachesNextQuery(t *testing.T) {
	e := newEnv(t, 3, 0.002)

	factSchema := records.NewSchema(
		records.F("f_fk", records.KindInt64),
		records.F("f_m", records.KindInt64),
	)
	dimSchema := records.NewSchema(
		records.F("d_pk", records.KindInt64),
		records.F("d_x", records.KindString),
	)
	dimRow := func(pk int64, x string) records.Record {
		return records.Make(dimSchema, records.Int(pk), records.Str(x))
	}
	factRow := func(fk int64) records.Record {
		return records.Make(factSchema, records.Int(fk), records.Int(fk))
	}

	// Dimension: keys 1..8, "hot" on 1..4 — exactly half, within
	// bloomMaxSelectivity, so the engine derives both pushdowns: the range
	// hint BETWEEN(f_fk, 1, 4) and a bloom over {1..4}.
	if _, err := colstore.WriteRowTable(e.fs, "/star/d", dimSchema, func(emit func(records.Record) error) error {
		for pk := int64(1); pk <= 8; pk++ {
			x := "hot"
			if pk > 4 {
				x = "cold"
			}
			if err := emit(dimRow(pk, x)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fact: one row per key 1..8, measure = key, in small partitions so the
	// rolled-in batch later lands in its own partitions with its own zone
	// maps — the state a stale hint would prune wholesale.
	if _, err := colstore.WriteCIFTable(e.fs, "/star/f", factSchema, 4, func(emit func(records.Record) error) error {
		for fk := int64(1); fk <= 8; fk++ {
			if err := emit(factRow(fk)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cat := &core.Catalog{
		FactName:   "f",
		FactDir:    "/star/f",
		FactSchema: factSchema,
		DimDirs:    map[string]string{"d": "/star/d"},
		DimSchemas: map[string]*records.Schema{"d": dimSchema},
	}
	eng := core.New(e.mr, cat, core.Options{})
	q := &core.Query{
		Name: "hot-sum",
		Dims: []core.DimSpec{{
			Table: "d", Schema: dimSchema, FactFK: "f_fk", DimPK: "d_pk",
			Pred: expr.Eq(expr.Col("d_x"), expr.ConstStr("hot")),
		}},
		AggExpr: expr.Col("f_m"),
		AggName: "total",
	}
	sum := func(wantRead string) float64 {
		t.Helper()
		rs, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("result = %s", rs)
		}
		if got := rep.Read.String(); got != wantRead {
			t.Errorf("query read %q, want %q", got, wantRead)
		}
		return rs.Rows[0].At(0).Float64()
	}

	// Pre-roll-in: hot keys {1..4}, total 1+2+3+4. This run populates the
	// hint memo, the bloom, and every node's local dimension copy.
	if got := sum("f@0 d@1"); got != 10 {
		t.Fatalf("pre-roll-in total = %v, want 10", got)
	}

	// Roll in: dimension keys 9..12 (all hot) and matching fact rows. A
	// stale bloom {1..4} would drop the new fact rows; a stale hint [1,4]
	// would prune their partitions before the bloom even ran; a stale
	// node-local dimension copy would build hash tables missing 9..12.
	if _, err := eng.Snapshots().AppendRows("/star/d", func(emit func(records.Record) error) error {
		for pk := int64(9); pk <= 12; pk++ {
			if err := emit(dimRow(pk, "hot")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Snapshots().RollIn("/star/f", 4, func(emit func(records.Record) error) error {
		for fk := int64(9); fk <= 12; fk++ {
			if err := emit(factRow(fk)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Post-roll-in: hot keys {1..4, 9..12}, total 10 + (9+10+11+12).
	if got := sum("f@1 d@2"); got != 52 {
		t.Fatalf("post-roll-in total = %v, want 52 (stale pushdown state?)", got)
	}
	// Every node re-copied the dimension at its new version and dropped the
	// copy that version superseded.
	for _, n := range e.cluster.Nodes() {
		if got := n.LocalPaths("clydesdale/dimcache/star/d@"); len(got) != 1 || got[0] != "clydesdale/dimcache/star/d@2" {
			t.Errorf("%s holds dimension copies %v, want the version-2 copy alone", n.ID(), got)
		}
	}
}

// TestFactRollInMatchesReference rolls an extra SSB batch into the fact
// table through the snapshot registry and holds the engine to the in-memory
// reference over base+batch: an acknowledged roll-in is fully visible to
// the very next query, with exact results. (The concurrent version of this
// property — queries racing the roll-in under -race — lives in the serve
// oracle test.)
func TestFactRollInMatchesReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	cat := e.lay.Catalog()

	// Generated lineorder dates are clustered by row position, so indexes
	// past LineorderRows() land on the calendar's last year — a 1998 filter
	// is the query the batch must visibly change.
	q1998 := &core.Query{
		Name: "rollin-1998",
		Dims: []core.DimSpec{{
			Table: "date", Schema: cat.DimSchemas["date"],
			FactFK: "lo_orderdate", DimPK: "d_datekey",
			Pred: expr.Eq(expr.Col("d_year"), expr.ConstInt(1998)),
		}},
		AggExpr: expr.Col("lo_revenue"),
		AggName: "revenue",
	}
	before, _, err := eng.Run(context.Background(), q1998)
	if err != nil {
		t.Fatal(err)
	}

	// Roll extra generated lineorder rows into the fact table; per-row
	// seeding makes indexes past LineorderRows() valid fresh rows.
	base := e.gen.LineorderRows()
	const extra = 2000
	if _, _, err := eng.Snapshots().RollIn(cat.FactDir, 1000, func(emit func(records.Record) error) error {
		for i := base; i < base+extra; i++ {
			if err := emit(e.gen.Lineorder(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	each := func(table string, fn func(records.Record) error) error {
		if err := e.gen.Each(table, fn); err != nil {
			return err
		}
		if table == cat.FactName {
			for i := base; i < base+extra; i++ {
				if err := fn(e.gen.Lineorder(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	q11, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*core.Query{q1998, q11} {
		after, _, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refexec.RunLogical(l, each)
		if err != nil {
			t.Fatalf("%s ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(after, want, 1e-9); !ok {
			t.Fatalf("%s post-roll-in mismatch: %s\ngot:\n%swant:\n%s", q.Name, why, after, want)
		}
		if q == q1998 && before.Rows[0].At(0).Float64() >= after.Rows[0].At(0).Float64() {
			t.Fatalf("roll-in did not grow the 1998 aggregate: %s then %s", before, after)
		}
	}
}
