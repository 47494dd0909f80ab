package core_test

import (
	"context"
	"fmt"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
)

// TestSameNamedJoinKeys runs a star whose fact FKs are spelled like the
// dimension PKs they reference (sales.store_id = store.store_id, the
// examples/retail schema) through every lowering — Run, the forced staged
// plan and the Hive baseline — against the logical-plan oracle, including a
// GROUP BY on the shared key name.
func TestSameNamedJoinKeys(t *testing.T) {
	sales := records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("item_id", records.KindInt64),
		records.F("units", records.KindInt64),
	)
	store := records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("region", records.KindString),
	)
	item := records.NewSchema(
		records.F("item_id", records.KindInt64),
		records.F("dept", records.KindString),
	)
	tables := map[string][]records.Record{}
	for i := int64(0); i < 8; i++ {
		tables["store"] = append(tables["store"], records.Make(store, records.Int(i), records.Str([]string{"WEST", "EAST"}[i%2])))
	}
	for i := int64(0); i < 30; i++ {
		tables["item"] = append(tables["item"], records.Make(item, records.Int(i), records.Str(fmt.Sprintf("dept-%d", i%3))))
	}
	for i := int64(0); i < 3000; i++ {
		tables["sales"] = append(tables["sales"], records.Make(sales, records.Int(i*7%8), records.Int(i*11%30), records.Int(i%9+1)))
	}
	each := func(table string, fn func(records.Record) error) error {
		for _, r := range tables[table] {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	rows := func(table string) func(emit func(records.Record) error) error {
		return func(emit func(records.Record) error) error { return each(table, emit) }
	}

	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 3})
	if _, err := colstore.WriteCIFTable(fs, "/t/sales", sales, 500, rows("sales")); err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.WriteRCTable(fs, "/t/sales.rc", sales, 500, rows("sales")); err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.WriteRowTable(fs, "/t/store", store, rows("store")); err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.WriteRowTable(fs, "/t/item", item, rows("item")); err != nil {
		t.Fatal(err)
	}
	cat := &core.Catalog{
		FactName: "sales", FactDir: "/t/sales", FactSchema: sales,
		DimDirs:    map[string]string{"store": "/t/store", "item": "/t/item"},
		DimSchemas: map[string]*records.Schema{"store": store, "item": item},
	}
	rcCat := *cat
	rcCat.FactDir = "/t/sales.rc"
	mrEng := mr.NewEngine(c, fs, mr.Options{})
	eng := core.New(mrEng, cat, core.Options{})
	hv := hive.New(mrEng, &rcCat, hive.Options{Strategy: hive.MapJoin})

	west := expr.Eq(expr.Col("region"), expr.ConstStr("WEST"))
	queries := []*core.Query{
		{
			Name: "west-units-by-dept",
			Dims: []core.DimSpec{
				{Table: "store", Schema: store, FactFK: "store_id", DimPK: "store_id", Pred: west},
				{Table: "item", Schema: item, FactFK: "item_id", DimPK: "item_id", Aux: []string{"dept"}},
			},
			AggExpr: expr.Col("units"), AggName: "units_sum", GroupBy: []string{"dept"},
		},
		{
			Name: "west-units-by-store",
			Dims: []core.DimSpec{
				{Table: "store", Schema: store, FactFK: "store_id", DimPK: "store_id", Pred: west, Aux: []string{"store_id"}},
			},
			AggExpr: expr.Col("units"), AggName: "units_sum", GroupBy: []string{"store_id"},
		},
	}
	for _, q := range queries {
		l, err := core.LogicalOf(q, cat)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.RunLogical(l, each)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.Name, err)
		}
		if len(want.Rows) < 2 {
			t.Fatalf("%s: oracle has %d rows; the fixture should produce several groups", q.Name, len(want.Rows))
		}
		check := func(how string, got *results.ResultSet, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s via %s: %v", q.Name, how, err)
				return
			}
			if ok, why := results.Equivalent(got, want, 1e-9); !ok {
				t.Errorf("%s via %s: %s\ngot:\n%swant:\n%s", q.Name, how, why, got, want)
			}
		}
		rs, _, err := eng.Run(context.Background(), q)
		check("Run", rs, err)
		rs, _, err = runStaged(eng, q)
		check("staged RunPlan", rs, err)
		rs, _, err = hv.Execute(context.Background(), q)
		check("hive.Execute", rs, err)
	}
}
