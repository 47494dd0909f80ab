// Quickstart: define a tiny star schema, load it into the simulated HDFS,
// and run a star-join query on Clydesdale — the whole public API in one
// sitting.
package main

import (
	"context"
	"fmt"
	"log"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

func main() {
	// 1. A simulated 3-node cluster with an HDFS instance on top.
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{Seed: 1})

	// 2. Schemas: a sales fact table and a product dimension.
	sales := records.NewSchema(
		records.F("product_id", records.KindInt64),
		records.F("amount", records.KindFloat64),
	)
	products := records.NewSchema(
		records.F("id", records.KindInt64),
		records.F("name", records.KindString),
		records.F("category", records.KindString),
	)

	// 3. Load the fact table in CIF (column files, co-located placement)
	// and the dimension as a row table.
	catalog := []struct {
		id       int64
		name     string
		category string
	}{
		{1, "espresso", "drinks"}, {2, "bagel", "food"},
		{3, "latte", "drinks"}, {4, "muffin", "food"},
	}
	_, err := colstore.WriteCIFTable(fs, "/shop/sales", sales, 1024, func(emit func(records.Record) error) error {
		for i := 0; i < 10_000; i++ {
			r := records.Make(sales,
				records.Int(int64(i%4+1)),
				records.Float(float64(i%17)+0.5),
			)
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := colstore.WriteRowTable(fs, "/shop/products", products, func(emit func(records.Record) error) error {
		for _, p := range catalog {
			r := records.Make(products, records.Int(p.id), records.Str(p.name), records.Str(p.category))
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// 4. Describe the star schema and build the engine.
	cat := &core.Catalog{
		FactDir:    "/shop/sales",
		FactSchema: sales,
		DimDirs:    map[string]string{"products": "/shop/products"},
		DimSchemas: map[string]*records.Schema{"products": products},
	}
	engine := core.New(mr.NewEngine(c, fs, mr.Options{}), cat, core.Options{})

	// 5. SELECT p.name, SUM(s.amount) FROM sales s JOIN products p
	//    ON s.product_id = p.id WHERE p.category = 'drinks'
	//    GROUP BY p.name ORDER BY p.name
	q := &core.Query{
		Name: "drinks-revenue",
		Dims: []core.DimSpec{{
			Table:  "products",
			Schema: products,
			FactFK: "product_id",
			DimPK:  "id",
			Pred:   expr.Eq(expr.Col("category"), expr.ConstStr("drinks")),
			Aux:    []string{"name"},
		}},
		AggExpr: expr.Col("amount"),
		AggName: "revenue",
		GroupBy: []string{"name"},
		OrderBy: []core.OrderKey{{Col: "name"}},
	}
	rs, report, err := engine.Run(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("name        revenue")
	for _, row := range rs.Rows {
		fmt.Printf("%-10s %9.1f\n", row.Get("name").Str(), row.Get("revenue").Float64())
	}
	fmt.Printf("\nran as one MapReduce job: %d map tasks, %d probe rows, %v total\n",
		report.Job.Counters.Get(mr.CtrMapTasks),
		report.Job.Counters.Get(core.CtrProbeRows),
		report.Total)
}
