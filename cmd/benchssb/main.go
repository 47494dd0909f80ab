// Command benchssb regenerates the paper's evaluation: Figure 7 (cluster
// A), Figure 8 (cluster B), Figure 9 (feature ablation), Table 1
// (TestDFSIO), and the §6.3 breakdown of query 2.1.
//
// Usage:
//
//	benchssb                         # everything, at the size -h states (bench.Defaults)
//	benchssb -figure 7               # one experiment
//	benchssb -figure breakdown -query Q2.1
//	benchssb -figure breakdown -job-json job.json   # Clydesdale job history as JSON
//	benchssb -figure breakdown -profile-json p.json # correlated query profile as JSON
//	benchssb -factrows 300000 -dimscale 2   # a bigger run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clydesdale/internal/bench"
)

func main() {
	// The flag defaults are the harness's own, so -h states what runs.
	def := bench.Defaults()
	var (
		figure   = flag.String("figure", "all", "experiment: 7 | 8 | 9 | table1 | breakdown | all")
		query    = flag.String("query", "Q2.1", "query for -figure breakdown")
		dimScale = flag.Float64("dimscale", def.DimScale, "dimension scale")
		factRows = flag.Int64("factrows", def.FactRows, "fact rows")
		seed     = flag.Uint64("seed", def.Seed, "generator seed")
		workersA = flag.Int("workers-a", def.WorkersA, "cluster A workers")
		workersB = flag.Int("workers-b", def.WorkersB, "cluster B workers")
		fileMB   = flag.Int64("dfsio-mb", 8, "TestDFSIO file size in MB")
		jobJSON  = flag.String("job-json", "", "with -figure breakdown: write the Clydesdale job result as JSON to this file ('-' for stdout)")
		profJSON = flag.String("profile-json", "", "with -figure breakdown: write the Clydesdale query profile (EXPLAIN ANALYZE) as JSON to this file ('-' for stdout)")
		verbose  = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	h, err := bench.NewHarness(bench.Config{
		DimScale: *dimScale,
		FactRows: *factRows,
		Seed:     *seed,
		WorkersA: *workersA,
		WorkersB: *workersB,
		Verbose:  *verbose,
	})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	run := func(name string, f func() error) {
		if *figure != "all" && *figure != name {
			return
		}
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	run("7", func() error { _, err := h.RunFigure("A", os.Stdout); return err })
	run("8", func() error { _, err := h.RunFigure("B", os.Stdout); return err })
	run("9", func() error { _, err := h.RunFigure9(os.Stdout); return err })
	run("table1", func() error {
		if _, err := h.RunTable1("A", *fileMB, os.Stdout); err != nil {
			return err
		}
		_, err := h.RunTable1("B", *fileMB, os.Stdout)
		return err
	})
	run("breakdown", func() error {
		b, err := h.RunBreakdown(*query, os.Stdout)
		if err != nil {
			return err
		}
		if *jobJSON != "" && b.ClyJob != nil {
			if err := writeTo(*jobJSON, b.ClyJob.WriteJSON); err != nil {
				return err
			}
		}
		if *profJSON != "" {
			if b.ClyProfile == nil {
				return fmt.Errorf("no profile assembled from the Clydesdale trace")
			}
			if err := writeTo(*profJSON, b.ClyProfile.WriteJSON); err != nil {
				return err
			}
			if *profJSON != "-" {
				fmt.Printf("query profile written to %s\n", *profJSON)
			}
		}
		return nil
	})
	fmt.Printf("\nall requested experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
}

// writeTo streams write to the named file, or stdout for "-".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchssb:", err)
	os.Exit(1)
}
