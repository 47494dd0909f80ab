// Package clydesdale_bench holds the top-level benchmarks that regenerate
// every table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus micro-benchmarks for the individual
// techniques. The figure benchmarks print paper-style tables once and
// report the headline metric (average speedup, slowdown factors, MB/s) via
// b.ReportMetric.
package clydesdale_bench

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"clydesdale/internal/bench"
	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// benchCfg sizes the figure benchmarks. Raise FactRows for a larger run
// (e.g. BENCH_FACT_ROWS=300000 go test -bench Figure7); a value that is not
// a positive integer fails the benchmark.
func benchCfg(b *testing.B) bench.Config {
	cfg := bench.Config{DimScale: 1, FactRows: 60_000, Seed: 42, WorkersA: 4, WorkersB: 8}
	if v := os.Getenv("BENCH_FACT_ROWS"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			b.Fatalf("BENCH_FACT_ROWS=%q: want a positive integer", v)
		}
		cfg.FactRows = n
	}
	return cfg
}

// BenchmarkFigure7 regenerates Figure 7: all 13 SSB queries on Clydesdale,
// Hive-repartition and Hive-mapjoin over the cluster A profile. The figure
// table prints on the first iteration; the reported metric is the average
// speedup over Hive's better plan in modeled node-seconds of a warm run.
func BenchmarkFigure7(b *testing.B) {
	h, err := bench.NewHarness(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		w := os.Stdout
		if i > 0 {
			w = nil
		}
		fig, err := h.RunFigure("A", w)
		if err != nil {
			b.Fatal(err)
		}
		avg = fig.AverageSpeedup()
	}
	b.ReportMetric(avg, "avg-node-s-speedup-x")
}

// BenchmarkFigure8 regenerates Figure 8 (cluster B profile: more workers,
// more memory — mapjoin completes everywhere, speedups shrink).
func BenchmarkFigure8(b *testing.B) {
	h, err := bench.NewHarness(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		w := os.Stdout
		if i > 0 {
			w = nil
		}
		fig, err := h.RunFigure("B", w)
		if err != nil {
			b.Fatal(err)
		}
		avg = fig.AverageSpeedup()
	}
	b.ReportMetric(avg, "avg-node-s-speedup-x")
}

// BenchmarkFigure9 regenerates Figure 9: the per-feature ablation, each
// factor a slowdown in modeled node-seconds of a warm run.
func BenchmarkFigure9(b *testing.B) {
	h, err := bench.NewHarness(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	var nb, nc, nm, ni float64
	for i := 0; i < b.N; i++ {
		w := os.Stdout
		if i > 0 {
			w = nil
		}
		abl, err := h.RunFigure9(w)
		if err != nil {
			b.Fatal(err)
		}
		nb, nc, nm, ni = abl.Average()
	}
	b.ReportMetric(nb, "noblock-node-s-slowdown-x")
	b.ReportMetric(nc, "nocolumnar-node-s-slowdown-x")
	b.ReportMetric(nm, "nothreads-node-s-slowdown-x")
	b.ReportMetric(ni, "nocombining-node-s-slowdown-x")
}

// BenchmarkTable1 regenerates Table 1: TestDFSIO on cluster A.
func BenchmarkTable1(b *testing.B) {
	h, err := bench.NewHarness(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	var read, write float64
	for i := 0; i < b.N; i++ {
		w := os.Stdout
		if i > 0 {
			w = nil
		}
		res, err := h.RunTable1("A", 8, w)
		if err != nil {
			b.Fatal(err)
		}
		read, write = res.ReadMBps, res.WriteMBps
	}
	b.ReportMetric(read, "hdfs-read-MB/s")
	b.ReportMetric(write, "hdfs-write-MB/s")
}

// BenchmarkBreakdownQ21 regenerates the §6.3 anatomy of query 2.1.
func BenchmarkBreakdownQ21(b *testing.B) {
	h, err := bench.NewHarness(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		w := os.Stdout
		if i > 0 {
			w = nil
		}
		if _, err := h.RunBreakdown("Q2.1", w); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// A shared environment for the benchmarks below (no modeled-time sleeping:
// pure execution cost).

type queryEnv struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	mr      *mr.Engine
	lay     *ssb.Layout
}

var (
	qenvOnce sync.Once
	qenv     *queryEnv
	qenvErr  error
)

func sharedEnv(b *testing.B) *queryEnv {
	qenvOnce.Do(func() {
		gen := ssb.NewBenchGenerator(1, 60_000, 42)
		c := cluster.New(cluster.Testing(4))
		fs := hdfs.New(c, hdfs.Options{Seed: 5})
		lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{})
		if err != nil {
			qenvErr = err
			return
		}
		e := mr.NewEngine(c, fs, mr.Options{})
		if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
			qenvErr = err
			return
		}
		qenv = &queryEnv{cluster: c, fs: fs, mr: e, lay: lay}
	})
	if qenvErr != nil {
		b.Fatal(qenvErr)
	}
	return qenv
}

// ---------------------------------------------------------------------
// Micro-benchmarks for individual techniques.

// BenchmarkCIFScanPruned scans 4 of 17 fact columns through CIF.
func BenchmarkCIFScanPruned(b *testing.B) {
	env := sharedEnv(b)
	benchScan(b, env, []string{"lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"})
}

// BenchmarkCIFScanAll scans all 17 fact columns (the "columnar off" cost).
func BenchmarkCIFScanAll(b *testing.B) {
	env := sharedEnv(b)
	benchScan(b, env, nil)
}

func benchScan(b *testing.B, env *queryEnv, cols []string) {
	jctx := &mr.JobContext{FS: env.fs, Cluster: env.cluster, Counters: mr.NewCounters()}
	in := &colstore.CIFInput{Dir: env.lay.FactCIF, Columns: cols, Schema: ssb.LineorderSchema}
	splits, err := in.Splits(jctx)
	if err != nil {
		b.Fatal(err)
	}
	node := env.cluster.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, s := range splits {
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, node))
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, _, ok, err := r.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				rows++
			}
			r.Close()
		}
		if rows != 60_000 {
			b.Fatalf("rows = %d", rows)
		}
	}
}

// BenchmarkBlockIteration reads the fact table block-at-a-time (B-CIF).
func BenchmarkBlockIteration(b *testing.B) {
	env := sharedEnv(b)
	jctx := &mr.JobContext{FS: env.fs, Cluster: env.cluster, Counters: mr.NewCounters()}
	in := &colstore.CIFInput{Dir: env.lay.FactCIF, Columns: []string{"lo_orderdate", "lo_revenue"}, Schema: ssb.LineorderSchema, BlockRows: 1024}
	splits, err := in.Splits(jctx)
	if err != nil {
		b.Fatal(err)
	}
	node := env.cluster.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for _, s := range splits {
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, node))
			if err != nil {
				b.Fatal(err)
			}
			br := r.(colstore.BlockReader)
			for {
				blk, ok, err := br.NextBlock()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				for _, v := range blk.Col(blk.Schema().MustIndex("lo_revenue")).Ints {
					sum += v
				}
			}
			r.Close()
		}
		if sum == 0 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkRowIteration reads the same two columns row-at-a-time (CIF).
func BenchmarkRowIteration(b *testing.B) {
	env := sharedEnv(b)
	jctx := &mr.JobContext{FS: env.fs, Cluster: env.cluster, Counters: mr.NewCounters()}
	in := &colstore.CIFInput{Dir: env.lay.FactCIF, Columns: []string{"lo_orderdate", "lo_revenue"}, Schema: ssb.LineorderSchema}
	splits, err := in.Splits(jctx)
	if err != nil {
		b.Fatal(err)
	}
	node := env.cluster.Nodes()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for _, s := range splits {
			r, err := in.Open(s, mr.NewTestTaskContext(jctx, node))
			if err != nil {
				b.Fatal(err)
			}
			for {
				_, rec, ok, err := r.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				sum += rec.Get("lo_revenue").Int64()
			}
			r.Close()
		}
		if sum == 0 {
			b.Fatal("no data")
		}
	}
}

// BenchmarkStagedVsSingleJob compares the §5.1 fallback, one job per
// dimension, against the single-job plan on the same query (the fallback's
// intermediate I/O is the price of its lower memory high-water mark).
func BenchmarkStagedVsSingleJob(b *testing.B) {
	env := sharedEnv(b)
	eng := core.New(env.mr, env.lay.Catalog(), core.Options{})
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		b.Fatal(err)
	}
	l, err := core.LogicalOf(q, env.lay.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	star, err := plan.Lower(l)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []*plan.Physical{star, star.OneStepPerPass()} {
		b.Run(fmt.Sprintf("passes-%d", len(p.Passes)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.RunPlan(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnowflakeLowering measures the snowflake lowering on generated
// schemas (EXPERIMENTS.md "Snowflake lowering"): six GenSnowflake seeds ×
// three random queries at 240 000 fact rows on the repository benchmark's
// cluster shape (4 workers × 2 map slots, I/O slowed 2000×, 1 s task launch
// + 3 s JVM start, no sleeping), each run as the plan Lower builds — one
// join pass per depth level — and as its one-step-per-pass form. ns/op is
// host wall; modeled-s/op the cluster's charged disk, network and task
// overhead. Every answer is held to the logical-plan oracle.
func BenchmarkSnowflakeLowering(b *testing.B) {
	for _, seed := range []uint64{7, 23, 101, 5, 11, 42} {
		shape := cluster.ClusterA()
		shape.Workers, shape.MapSlots = 4, 2
		cl := cluster.New(shape)
		fs := hdfs.New(cl, hdfs.Options{BlockSize: 256 << 10, Seed: int64(seed)})
		snow := ssb.GenSnowflake(seed, 240_000)
		lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
		if err != nil {
			b.Fatal(err)
		}
		cat := lay.Catalog(snow)
		if _, err := core.EnsureCatalogCached(fs, cat); err != nil {
			b.Fatal(err)
		}
		cl.ScaleIO(2000)
		eng := core.New(mr.NewEngine(cl, fs, mr.Options{TaskLaunchOverhead: time.Second, JVMStartup: 3 * time.Second}), cat, core.Options{})
		for qi := int64(0); qi < 3; qi++ {
			l := snow.RandomSnowQuery(qi)
			want, err := refexec.RunLogical(l, snow.Each)
			if err != nil {
				b.Fatal(err)
			}
			lowered, err := plan.Lower(l)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range []struct {
				name string
				p    *plan.Physical
			}{{"lowered", lowered}, {"one-step-per-pass", lowered.OneStepPerPass()}} {
				b.Run(fmt.Sprintf("seed-%d/q%d/%s", seed, qi, v.name), func(b *testing.B) {
					before := cl.TotalStats().ModelTime
					for i := 0; i < b.N; i++ {
						got, _, err := eng.RunPlan(context.Background(), v.p)
						if err != nil {
							b.Fatal(err)
						}
						if ok, why := results.Equivalent(got, want, 1e-9); !ok {
							b.Fatalf("disagrees with the reference: %s", why)
						}
					}
					b.ReportMetric((cl.TotalStats().ModelTime-before).Seconds()/float64(b.N), "modeled-s/op")
				})
			}
		}
	}
}
