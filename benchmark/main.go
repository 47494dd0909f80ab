// Command benchmark is the repository's benchmark: four workloads, eleven
// host-speed-normalised end-to-end metrics with regression bounds, and a
// per-layer ledger measured from outside the program. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics;
// README.md in this directory explains them.
//
//	go run ./benchmark --workload ssb_star --seed 1 --seconds 20 --trace 0
//	go run ./benchmark selfcheck --runs 10
//	go run ./benchmark catalog        (the metric tables of README.md)
//	go run ./benchmark catalog json   (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selfcheck":
			os.Exit(selfcheckMain(os.Args[2:]))
		case "catalog":
			if len(os.Args) > 2 && os.Args[2] == "json" {
				printBenchmarkJSON(os.Stdout)
			} else {
				printCatalog(os.Stdout)
			}
			return
		}
	}
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "ssb_star, hive_shuffle, serve_mix or ingest_live")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the dataset, the query stream and the arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// A wrong answer fails the run through the result line (correct: false,
	// failed > 0), which is what the driver reads; the exit code stays 0 so
	// that the line is not mistaken for the output of a crash.
	printReport(rep)
}

// printReport writes the human-readable table and then, as the last line,
// the result object the driver reads.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  seconds %.0f  trace %v  (nproc %d, %s, commit %s, %d load threads)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.NProc, rep.Host.GoVersion, rep.Host.Commit, rep.Host.LoadThreads)
	fmt.Printf("dataset: %d fact rows, %d customers, %d suppliers, %d parts\n",
		rep.Dataset.FactRows, rep.Dataset.CustomerRows, rep.Dataset.SupplierRows, rep.Dataset.PartRows)
	fmt.Println("metrics:")
	rep.Metrics.printTable(os.Stdout)
	fmt.Println("also measured:")
	rep.Other.printTable(os.Stdout)
	fmt.Printf("sample counts: %v\n", rep.Samples)
	if rep.Trace {
		fmt.Println("self time by span (duration minus what child spans cover), ms:")
		names := make([]string, 0, len(rep.SelfMs))
		for n := range rep.SelfMs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-36s %16.1f\n", n, rep.SelfMs[n])
		}
		printPredictions(rep)
	}
	for _, f := range rep.Flagged {
		fmt.Println("FLAGGED:", f)
	}
	if !rep.Correct {
		fmt.Println("WRONG ANSWERS: the oracle rejected at least one result; see failed")
	}
	line, err := json.Marshal(resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printPredictions sets the traced run's numbers beside what README.md
// ("How the layers interact") predicts for the workload.
func printPredictions(rep *report) {
	v := rep.value
	phases := []string{"map", "combine", "spill", "sort", "shuffle", "reduce", "queue_wait"}
	var total float64
	for _, ph := range phases {
		total += v("mr.phase_" + ph + "_ms")
	}
	back := v("mr.phase_sort_ms") + v("mr.phase_shuffle_ms") + v("mr.phase_reduce_ms") + v("mr.phase_spill_ms") + v("mr.phase_combine_ms")
	fmt.Println("predictions:")
	fmt.Printf("  ledger coverage: bench.span_cover_frac %.3f (want >= 0.95), obs.profile_cover_frac %.3f\n",
		v("bench.span_cover_frac"), v("obs.profile_cover_frac"))
	fmt.Printf("  combine+spill+sort+shuffle+reduce share of task time: %.1f %% (baseline: under 1 %% except hive_shuffle, about 10 %%)\n",
		100*ratio(back, total))
	switch rep.Workload {
	case "ssb_star":
		fmt.Printf("  flights 3-4 are bound by the customer build: core.build_customer_ms %.1f vs core.hash_build_ms_per_query %.1f\n",
			v("core.build_customer_ms"), v("core.hash_build_ms_per_query"))
	case "hive_shuffle":
		fmt.Printf("  Hive repartition over Clydesdale, same queries: %.1fx modeled, %.1fx host (the paper: 5-83x)\n",
			v("hive.modeled_x_clydesdale"), v("hive.host_x_clydesdale"))
	case "serve_mix":
		fmt.Printf("  hit path: sql.parse_us %.0f + plan.fingerprint_us %.0f of serve.hit_p50_us %.0f (%.0f %%)\n",
			v("sql.parse_us"), v("plan.fingerprint_us"), v("serve.hit_p50_us"),
			100*ratio(v("sql.parse_us")+v("plan.fingerprint_us"), v("serve.hit_p50_us")))
		fmt.Printf("  caches: result hit %.3f (0.6-0.75), table hit %.3f (0.7-0.95), table evictions %.0f (> 0)\n",
			v("serve.result_hit_frac"), v("serve.table_hit_frac"), v("serve.table_evictions"))
	case "ingest_live":
		fmt.Printf("  write amplification %.2f, %.0f live partitions, %.0f compactions, %.0f result invalidations\n",
			v("colstore.write_amp"), v("colstore.partitions_live"), v("serve.compactions"), v("serve.result_invalidations"))
	}
	fmt.Printf("  obs.trace_overhead_frac %.3f\n", v("obs.trace_overhead_frac"))
}
