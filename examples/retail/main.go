// Retail analytics: a multi-dimension star schema (sales fact; store, item
// and calendar dimensions) queried by both engines. Demonstrates the
// workload the paper's introduction motivates — warehouse-style reporting
// on a MapReduce cluster — and shows the same query running as one
// Clydesdale job versus Hive's chain of jobs.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

var (
	salesSchema = records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("item_id", records.KindInt64),
		records.F("day_id", records.KindInt64),
		records.F("units", records.KindInt64),
		records.F("revenue", records.KindFloat64),
	)
	storeSchema = records.NewSchema(
		records.F("store_id", records.KindInt64),
		records.F("store_name", records.KindString),
		records.F("region", records.KindString),
	)
	itemSchema = records.NewSchema(
		records.F("item_id", records.KindInt64),
		records.F("item_name", records.KindString),
		records.F("dept", records.KindString),
	)
	calSchema = records.NewSchema(
		records.F("day_id", records.KindInt64),
		records.F("month", records.KindInt64),
		records.F("quarter", records.KindString),
	)
)

const (
	stores = 40
	items  = 500
	days   = 360
	facts  = 80_000
)

func main() {
	c := cluster.New(cluster.Testing(4))
	fs := hdfs.New(c, hdfs.Options{Seed: 7})
	if err := load(fs); err != nil {
		log.Fatal(err)
	}

	cat := &core.Catalog{
		FactDir:    "/retail/sales",
		FactSchema: salesSchema,
		DimDirs: map[string]string{
			"store": "/retail/store", "item": "/retail/item", "calendar": "/retail/calendar",
		},
		DimSchemas: map[string]*records.Schema{
			"store": storeSchema, "item": itemSchema, "calendar": calSchema,
		},
	}
	// Hive reads the same fact data from an RCFile copy.
	rcCat := *cat
	rcCat.FactDir = "/retail/sales.rc"

	engine := mr.NewEngine(c, fs, mr.Options{})
	cly := core.New(engine, cat, core.Options{})
	hv := hive.New(engine, &rcCat, hive.Options{Strategy: hive.MapJoin})

	queries := []*core.Query{
		{
			// Quarterly revenue of the WEST region's grocery department.
			Name: "grocery-west-by-quarter",
			Dims: []core.DimSpec{
				{Table: "store", Schema: storeSchema, FactFK: "store_id", DimPK: "store_id",
					Pred: expr.Eq(expr.Col("region"), expr.ConstStr("WEST"))},
				{Table: "item", Schema: itemSchema, FactFK: "item_id", DimPK: "item_id",
					Pred: expr.Eq(expr.Col("dept"), expr.ConstStr("grocery"))},
				{Table: "calendar", Schema: calSchema, FactFK: "day_id", DimPK: "day_id",
					Aux: []string{"quarter"}},
			},
			AggExpr: expr.Col("revenue"), AggName: "revenue",
			GroupBy: []string{"quarter"},
			OrderBy: []core.OrderKey{{Col: "quarter"}},
		},
		{
			// Units moved per department in Q2, big departments first.
			Name: "q2-units-by-dept",
			Dims: []core.DimSpec{
				{Table: "item", Schema: itemSchema, FactFK: "item_id", DimPK: "item_id",
					Aux: []string{"dept"}},
				{Table: "calendar", Schema: calSchema, FactFK: "day_id", DimPK: "day_id",
					Pred: expr.Eq(expr.Col("quarter"), expr.ConstStr("Q2"))},
			},
			AggExpr: expr.Col("units"), AggName: "units",
			GroupBy: []string{"dept"},
			OrderBy: []core.OrderKey{{Col: "units", Desc: true}},
		},
		{
			// Total revenue of high-volume rows (fact predicate only).
			Name: "bulk-revenue",
			Dims: []core.DimSpec{
				{Table: "store", Schema: storeSchema, FactFK: "store_id", DimPK: "store_id"},
			},
			FactPred: expr.Ge(expr.Col("units"), expr.ConstInt(8)),
			AggExpr:  expr.Col("revenue"), AggName: "revenue",
		},
	}

	for _, q := range queries {
		fmt.Printf("\n== %s\n", q.Name)
		rs, crep, err := cly.Run(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		for _, row := range rs.Rows {
			fmt.Println("  ", row)
		}
		hrs, hrep, err := hv.Execute(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, hrs, 1e-9); !ok {
			log.Fatalf("engines disagree on %s: %s", q.Name, why)
		}
		fmt.Printf("   clydesdale: %8v (1 job)    hive-mapjoin: %8v (%d jobs)  — answers agree\n",
			crep.Total.Round(time.Millisecond), hrep.Total.Round(time.Millisecond), len(hrep.Stages))
	}
}

func load(fs *hdfs.FileSystem) error {
	quarterOf := func(month int64) string {
		return []string{"Q1", "Q2", "Q3", "Q4"}[(month-1)/3]
	}
	if _, err := colstore.WriteCIFTable(fs, "/retail/sales", salesSchema, 8192, genSales); err != nil {
		return err
	}
	if _, err := colstore.WriteRCTable(fs, "/retail/sales.rc", salesSchema, 8192, genSales); err != nil {
		return err
	}
	if _, err := colstore.WriteRowTable(fs, "/retail/store", storeSchema, func(emit func(records.Record) error) error {
		regions := []string{"WEST", "EAST", "NORTH", "SOUTH"}
		for i := int64(0); i < stores; i++ {
			if err := emit(records.Make(storeSchema,
				records.Int(i), records.Str(fmt.Sprintf("store-%02d", i)),
				records.Str(regions[i%4]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := colstore.WriteRowTable(fs, "/retail/item", itemSchema, func(emit func(records.Record) error) error {
		depts := []string{"grocery", "electronics", "apparel", "home", "garden"}
		for i := int64(0); i < items; i++ {
			if err := emit(records.Make(itemSchema,
				records.Int(i), records.Str(fmt.Sprintf("item-%03d", i)),
				records.Str(depts[i%5]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err := colstore.WriteRowTable(fs, "/retail/calendar", calSchema, func(emit func(records.Record) error) error {
		for d := int64(0); d < days; d++ {
			month := d/30 + 1
			if err := emit(records.Make(calSchema,
				records.Int(d), records.Int(month), records.Str(quarterOf(month)))); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// genSales produces a deterministic synthetic fact stream.
func genSales(emit func(records.Record) error) error {
	state := uint64(99)
	next := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64((state >> 33) % uint64(n))
	}
	for i := 0; i < facts; i++ {
		units := next(10) + 1
		if err := emit(records.Make(salesSchema,
			records.Int(next(stores)),
			records.Int(next(items)),
			records.Int(next(days)),
			records.Int(units),
			records.Float(float64(units)*float64(next(2000)+100)/100),
		)); err != nil {
			return err
		}
	}
	return nil
}
