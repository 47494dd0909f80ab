// Weblogs: a clickstream star schema that exercises the operational
// property §2 emphasizes against Llama — rolling in new fact data is cheap
// because CIF never requires the fact table to be kept sorted: new events
// append as fresh partitions while old partitions stay untouched, and the
// next query simply sees more splits.
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

var (
	clickSchema = records.NewSchema(
		records.F("page_id", records.KindInt64),
		records.F("user_id", records.KindInt64),
		records.F("day_id", records.KindInt64),
		records.F("dwell_ms", records.KindInt64),
	)
	pageSchema = records.NewSchema(
		records.F("page_id", records.KindInt64),
		records.F("section", records.KindString),
	)
	userSchema = records.NewSchema(
		records.F("user_id", records.KindInt64),
		records.F("tier", records.KindString),
	)
)

const (
	pages       = 200
	users       = 5_000
	batchClicks = 30_000
)

func main() {
	c := cluster.New(cluster.Testing(4))
	fs := hdfs.New(c, hdfs.Options{Seed: 3})

	// Dimensions.
	if _, err := colstore.WriteRowTable(fs, "/web/page", pageSchema, func(emit func(records.Record) error) error {
		sections := []string{"news", "sports", "tech", "arts"}
		for i := int64(0); i < pages; i++ {
			if err := emit(records.Make(pageSchema, records.Int(i), records.Str(sections[i%4]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := colstore.WriteRowTable(fs, "/web/user", userSchema, func(emit func(records.Record) error) error {
		tiers := []string{"free", "free", "free", "paid"}
		for i := int64(0); i < users; i++ {
			if err := emit(records.Make(userSchema, records.Int(i), records.Str(tiers[i%4]))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// Day 1's clicks land as the initial CIF fact table.
	if _, err := colstore.WriteCIFTable(fs, "/web/clicks", clickSchema, 4096,
		func(emit func(records.Record) error) error { return genClicks(emit, 1) }); err != nil {
		log.Fatal(err)
	}

	cat := &core.Catalog{
		FactDir:    "/web/clicks",
		FactSchema: clickSchema,
		DimDirs:    map[string]string{"page": "/web/page", "user": "/web/user"},
		DimSchemas: map[string]*records.Schema{"page": pageSchema, "user": userSchema},
	}
	engine := core.New(mr.NewEngine(c, fs, mr.Options{}), cat, core.Options{})

	// Dwell time of paid users per section.
	q := &core.Query{
		Name: "paid-dwell-by-section",
		Dims: []core.DimSpec{
			{Table: "page", Schema: pageSchema, FactFK: "page_id", DimPK: "page_id",
				Aux: []string{"section"}},
			{Table: "user", Schema: userSchema, FactFK: "user_id", DimPK: "user_id",
				Pred: expr.Eq(expr.Col("tier"), expr.ConstStr("paid"))},
		},
		AggExpr: expr.Col("dwell_ms"), AggName: "dwell_ms",
		GroupBy: []string{"section"},
		OrderBy: []core.OrderKey{{Col: "dwell_ms", Desc: true}},
	}

	run := func(label string) {
		rs, rep, err := engine.Run(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		parts, _ := colstore.ListPartitions(fs, "/web/clicks")
		fmt.Printf("\n%s (%d CIF partitions, %d rows probed):\n", label,
			len(parts), rep.Job.Counters.Get(core.CtrProbeRows))
		for _, row := range rs.Rows {
			fmt.Printf("  %-8s %12d ms\n", row.Get("section").Str(), int64(row.Get("dwell_ms").Float64()))
		}
	}
	run("after day 1")

	// Days 2 and 3 roll in: append-only, no rewrite of existing partitions.
	for day := int64(2); day <= 3; day++ {
		w, err := colstore.AppendPartitions(fs, "/web/clicks", 4096)
		if err != nil {
			log.Fatal(err)
		}
		if err := genClicks(w.Append, day); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		run(fmt.Sprintf("after day %d roll-in", day))
	}
}

// genClicks produces one day's deterministic batch.
func genClicks(emit func(records.Record) error, day int64) error {
	state := uint64(day * 77)
	next := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64((state >> 33) % uint64(n))
	}
	for i := 0; i < batchClicks; i++ {
		if err := emit(records.Make(clickSchema,
			records.Int(next(pages)),
			records.Int(next(users)),
			records.Int(day),
			records.Int(next(60_000)+500),
		)); err != nil {
			return err
		}
	}
	return nil
}
