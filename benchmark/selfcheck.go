package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// selfcheck runs every workload several times on the commit at hand,
// alternating seeds from a fixed list, and prints for each end-to-end
// metric the median, the quartiles and the relative spread (interquartile
// distance over median, computed as the driver computes it) beside the
// bound BENCHMARK.json gives it. It exits non-zero if a spread exceeds its
// bound (setup_s excepted, as in the driver's rule), if a run gave a wrong
// answer, or if a run whose host drift exceeded driftLimit went unflagged.

var selfcheckSeeds = []uint64{11, 23, 37, 41, 53, 67, 79, 83, 97, 101, 113, 127}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func selfcheckMain(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	fs.Parse(args)

	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 2
	}
	seconds := float64(bf.RunSeconds)
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	bad := 0
	for _, wl := range bf.Workloads {
		values := make(map[string][]float64)
		for i := 0; i < *runs; i++ {
			seed := selfcheckSeeds[i%len(selfcheckSeeds)]
			rep, err := run(runConfig{workload: wl.Name, seed: seed, seconds: seconds})
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %v\n", wl.Name, seed, err)
				return 1
			}
			drift := rep.value("bench.host_drift")
			fmt.Printf("%s seed %d: correct=%v failed=%d/%d host_drift=%.2f %v\n",
				wl.Name, seed, rep.Correct, rep.Failed, rep.Attempted, drift, rep.Flagged)
			if !rep.Correct || rep.Failed > 0 {
				bad++
			}
			if drift > driftLimit && len(rep.Flagged) == 0 {
				fmt.Printf("  host drift %.2f went unflagged\n", drift)
				bad++
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
			// The raw twins, for judging what normalisation bought.
			for _, name := range []string{"bench.raw_queries_per_s", "bench.raw_query_p50_ms", "bench.host_speed"} {
				if v, ok := rep.Other[name]; ok {
					values[name] = append(values[name], v.Value)
				}
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("\n%s, %d runs of %.0f s\n", wl.Name, *runs, seconds)
		fmt.Printf("  %-36s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, n := range names {
			q1, q2, q3 := quartiles(values[n])
			spread := relSpread(values[n])
			line := fmt.Sprintf("  %-36s %12.4g %12.4g %12.4g %7.1f%%", n, q1, q2, q3, 100*spread)
			if b, ok := bounds[n]; ok {
				line += fmt.Sprintf(" %5.0f%%", 100*b)
				if spread > b && n != "setup_s" {
					line += "  SPREAD EXCEEDS BOUND"
					bad++
				}
			}
			fmt.Println(line)
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d problem(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
