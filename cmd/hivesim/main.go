// Command hivesim runs one SSB query (or all of them) on the Hive-baseline
// engine — the staged multi-job plans the paper compares against — with
// either the repartition or the mapjoin strategy, printing the result rows
// and a per-stage report.
//
// Usage:
//
//	hivesim -query Q2.1 -strategy mapjoin
//	hivesim -query all -strategy repartition
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

func main() {
	var (
		query    = flag.String("query", "Q2.1", "SSB query name or 'all'")
		sqlText  = flag.String("sql", "", "run an ad-hoc SQL star query instead of a named one")
		strategy = flag.String("strategy", "mapjoin", "join strategy: mapjoin | repartition")
		dimScale = flag.Float64("dimscale", 1, "dimension scale (SF1000 proportions)")
		factRows = flag.Int64("factrows", 60000, "fact rows")
		seed     = flag.Uint64("seed", 42, "generator seed")
		workers  = flag.Int("workers", 4, "simulated worker nodes")
		rowsMax  = flag.Int("rows", 20, "max result rows to print")
	)
	flag.Parse()

	var strat hive.JoinStrategy
	switch *strategy {
	case "mapjoin":
		strat = hive.MapJoin
	case "repartition":
		strat = hive.Repartition
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}

	gen := ssb.NewBenchGenerator(*dimScale, *factRows, *seed)
	c := cluster.New(cluster.Testing(*workers))
	fs := hdfs.New(c, hdfs.Options{Seed: int64(*seed)})
	fmt.Printf("loading SSB dataset (%d fact rows, %d workers)...\n", gen.LineorderRows(), *workers)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{})
	if err != nil {
		fatal(err)
	}
	eng := hive.New(mr.NewEngine(c, fs, mr.Options{}), lay.RCCatalog(), hive.Options{Strategy: strat})

	cat := lay.Catalog()
	var plans []*plan.Logical
	if *sqlText != "" {
		l, err := sql.Parse(*sqlText, cat)
		if err != nil {
			fatal(err)
		}
		l.Name = "ad-hoc"
		plans = []*plan.Logical{l}
	} else {
		queries := ssb.Queries()
		if *query != "all" {
			q, err := ssb.QueryByName(*query)
			if err != nil {
				fatal(err)
			}
			queries = []*ssb.Query{q}
		}
		for _, q := range queries {
			l, err := core.LogicalOf(q, cat)
			if err != nil {
				fatal(err)
			}
			plans = append(plans, l)
		}
	}

	for _, q := range plans {
		fmt.Printf("\n== %s (%s plan)\n", q.Name, strat)
		rs, rep, err := eng.ExecutePlan(context.Background(), q)
		if err != nil {
			fmt.Printf("-- %s FAILED: %v\n", q.Name, err)
			continue
		}
		printed := 0
		for _, r := range rs.Rows {
			if printed >= *rowsMax {
				fmt.Printf("... (%d more rows)\n", len(rs.Rows)-printed)
				break
			}
			fmt.Println(r)
			printed++
		}
		fmt.Printf("-- %s in %v, %d MapReduce stages:\n", q.Name, rep.Total.Round(time.Millisecond), len(rep.Stages))
		for _, st := range rep.Stages {
			fmt.Printf("   %-22s %10v  maps=%d reduces=%d shuffleB=%d\n",
				st.Name, st.Duration.Round(time.Millisecond),
				st.Job.Counters.Get(mr.CtrMapTasks),
				st.Job.Counters.Get(mr.CtrReduceTasks),
				st.Job.Counters.Get(mr.CtrShuffleBytes))
		}
		if strat == hive.MapJoin {
			fmt.Printf("   hash-table loads across tasks: %d\n", rep.Counters.Get(hive.CtrHashLoads))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hivesim:", err)
	os.Exit(1)
}
