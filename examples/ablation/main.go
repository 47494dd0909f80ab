// Ablation: a walk-through of Figure 9 on a small dataset — run the same
// SSB query with each of Clydesdale's techniques disabled in turn and
// compare times and counters, showing what each one buys:
//
//   - columnar storage (CIF)  → bytes read from HDFS
//   - block iteration (B-CIF) → per-record framework overhead
//   - multi-threaded tasks    → hash tables built once per node, not per task
//   - in-mapper combining     → map output records collapse to one per group
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/ssb"
)

func main() {
	gen := ssb.NewBenchGenerator(1, 60_000, 42)
	c := cluster.New(cluster.Testing(4))
	fs := hdfs.New(c, hdfs.Options{Seed: 11})
	fmt.Println("loading SSB dataset (60k fact rows)...")
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true})
	if err != nil {
		log.Fatal(err)
	}
	engine := mr.NewEngine(c, fs, mr.Options{})
	// Warm the node-local dimension caches up front so the one-time copy
	// cost doesn't land on the first configuration measured.
	if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
		log.Fatal(err)
	}
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		log.Fatal(err)
	}

	configs := []struct {
		label  string
		ablate core.Ablate
	}{
		{"full Clydesdale", 0},
		{"- block iteration", core.NoBlockIteration},
		{"- columnar storage", core.NoColumnarStorage},
		{"- multi-threading", core.NoMultiThreading},
		{"- in-mapper combining", core.NoInMapperCombining},
	}

	var baseline time.Duration
	fmt.Printf("\n%-22s %10s %9s %14s %12s %12s\n",
		"configuration", "time", "vs full", "bytes read", "hash builds", "map tasks")
	for i, cfgCase := range configs {
		eng := core.New(engine, lay.Catalog(), core.Options{Ablate: cfgCase.ablate})

		before := fs.Metrics().Snapshot()
		_, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		after := fs.Metrics().Snapshot()

		if i == 0 {
			baseline = rep.Total
		}
		ratio := float64(rep.Total) / float64(baseline)
		bytesRead := (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
		fmt.Printf("%-22s %10s %8.2fx %14d %12d %12d\n",
			cfgCase.label,
			rep.Total.Round(time.Millisecond),
			ratio,
			bytesRead,
			rep.Job.Counters.Get(core.CtrHashTablesBuilt),
			rep.Job.Counters.Get(mr.CtrMapTasks),
		)
	}
	fmt.Println("\nno single technique explains the speedup; they compound (§6.5)")
}
