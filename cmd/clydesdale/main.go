// Command clydesdale runs one SSB query (or all of them) on the Clydesdale
// engine over a simulated cluster, printing the result rows and an
// execution report (task counts, hash-table builds, probe statistics).
//
// Usage:
//
//	clydesdale -query Q2.1
//	clydesdale -query all -workers 8 -factrows 120000
//	clydesdale -query Q3.1 -no-blockiter -no-columnar -no-multithread -no-inmapper-combine   # ablation modes
//	clydesdale -query Q1.1 -no-prune -no-latemat      # disable scan-side optimizations
//	clydesdale -query Q2.1 -no-code-preds -no-bloom   # disable compressed-execution paths
//	clydesdale -query Q2.1 -timeline                  # per-node span timeline
//	clydesdale -query Q2.1 -explain                   # EXPLAIN ANALYZE profile
//	clydesdale -query Q1.1 -explain -slow-disk node-2:8 -timescale 0.02   # straggler analysis
//	clydesdale -query Q2.1 -trace spans.jsonl         # export spans as JSONL
//	clydesdale -query Q2.1 -json result.json          # job result as JSON
//	clydesdale -query all -serve -concurrency 8       # concurrent serving mode
//	clydesdale -query all -serve -debug-addr localhost:8080   # /metrics /profilez /slo
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// stmt is one bound statement to run and the line that announces it.
type stmt struct {
	desc string
	l    *plan.Logical
}

func main() {
	var (
		query       = flag.String("query", "Q2.1", "SSB query name (Q1.1..Q4.3) or 'all'")
		sqlText     = flag.String("sql", "", "run an ad-hoc SQL star query instead of a named one")
		dimScale    = flag.Float64("dimscale", 1, "dimension scale (SF1000 proportions)")
		factRows    = flag.Int64("factrows", 60000, "fact rows")
		seed        = flag.Uint64("seed", 42, "generator seed")
		workers     = flag.Int("workers", 4, "simulated worker nodes")
		rowsMax     = flag.Int("rows", 20, "max result rows to print")
		noBlock     = flag.Bool("no-blockiter", false, "disable block iteration")
		noCol       = flag.Bool("no-columnar", false, "disable columnar pruning")
		noMT        = flag.Bool("no-multithread", false, "disable multi-threaded map tasks")
		noIMC       = flag.Bool("no-inmapper-combine", false, "disable in-mapper combining (emit one record per joined row)")
		noPrune     = flag.Bool("no-prune", false, "disable zone-map partition pruning")
		noLateMat   = flag.Bool("no-latemat", false, "disable late materialization in block scans")
		noCodePreds = flag.Bool("no-code-preds", false, "disable code-space predicate/probe execution on dictionary columns")
		noBloom     = flag.Bool("no-bloom", false, "disable semi-join bloom filter pushdown into the fact scan")
		tracePath   = flag.String("trace", "", "write spans of every query run to this JSONL file")
		timeline    = flag.Bool("timeline", false, "print a per-node span timeline after each query")
		explain     = flag.Bool("explain", false, "print an EXPLAIN ANALYZE profile after each query")
		explCheck   = flag.Bool("explain-check", false, "with -explain: fail if per-phase walls don't sum to the query wall")
		slowDisk    = flag.String("slow-disk", "", "make one node a straggler, as node:factor (e.g. node-2:8)")
		timeScale   = flag.Float64("timescale", 0, "modeled second → real seconds (0 = no sleeping); needed for wall-clock straggler analysis")
		jsonPath    = flag.String("json", "", "write the last query's job result as JSON to this file ('-' for stdout)")
		serveMode   = flag.Bool("serve", false, "run the queries concurrently through a serving session (shared table cache + admission control)")
		conc        = flag.Int("concurrency", 4, "serving mode: max queries executing simultaneously")
		debugAddr   = flag.String("debug-addr", "", "serving mode: serve /metrics, /profilez, /slo and pprof on this address")
	)
	flag.Parse()

	gen := ssb.NewBenchGenerator(*dimScale, *factRows, *seed)
	ccfg := cluster.Testing(*workers)
	if *timeScale > 0 {
		ccfg.TimeScale = *timeScale
	}
	c := cluster.New(ccfg)
	if *slowDisk != "" {
		node, factorStr, ok := strings.Cut(*slowDisk, ":")
		if !ok {
			fatal(fmt.Errorf("-slow-disk wants node:factor, got %q", *slowDisk))
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || factor <= 0 {
			fatal(fmt.Errorf("-slow-disk factor %q must be a positive number", factorStr))
		}
		n := c.Node(node)
		if n == nil {
			fatal(fmt.Errorf("-slow-disk: no node %q (nodes are node-0..node-%d)", node, *workers-1))
		}
		n.SetDiskSlowdown(factor)
	}
	fs := hdfs.New(c, hdfs.Options{Seed: int64(*seed)})
	fmt.Printf("loading SSB dataset (%d fact rows, %d workers)...\n", gen.LineorderRows(), *workers)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true})
	if err != nil {
		fatal(err)
	}
	var ablate core.Ablate
	for _, f := range []struct {
		off  bool
		flag core.Ablate
	}{
		{*noBlock, core.NoBlockIteration}, {*noCol, core.NoColumnarStorage},
		{*noMT, core.NoMultiThreading}, {*noIMC, core.NoInMapperCombining},
		{*noPrune, core.NoScanPruning}, {*noLateMat, core.NoLateMaterialization},
		{*noCodePreds, core.NoCodeSpacePreds}, {*noBloom, core.NoBloomPushdown},
	} {
		if f.off {
			ablate |= f.flag
		}
	}

	// Observability: one tracer and registry for all runs. The memory sink
	// feeds the timeline and EXPLAIN ANALYZE; the JSONL sink streams the
	// trace to disk.
	if *explCheck {
		*explain = true
	}
	tracing := *timeline || *explain || *tracePath != ""
	var (
		tracer  *obs.Tracer
		memSink *obs.MemorySink
		jsonl   *obs.JSONLSink
		traceF  *os.File
	)
	metrics := obs.NewRegistry()
	if tracing {
		tracer = obs.NewTracer()
		if *timeline || *explain {
			memSink = obs.NewMemorySink()
			tracer.AddSink(memSink)
		}
		if *tracePath != "" {
			traceF, err = os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			jsonl = obs.NewJSONLSink(traceF)
			tracer.AddSink(jsonl)
		}
	}
	fs.Observe(tracer, metrics)

	mreng := mr.NewEngine(c, fs, mr.Options{Tracer: tracer, Metrics: metrics})
	cat := lay.Catalog()
	eng := core.New(mreng, cat, core.Options{Ablate: ablate})

	queries := ssb.Queries()
	if *query != "all" && *sqlText == "" {
		q, err := ssb.QueryByName(*query)
		if err != nil {
			fatal(err)
		}
		queries = []*ssb.Query{q}
	}

	// Everything below runs bound logical plans: a named query lifts into
	// one, a SQL statement parses straight to one (snowflake joins
	// included).
	var stmts []stmt
	if *sqlText != "" {
		l, err := sql.Parse(*sqlText, cat)
		if err != nil {
			fatal(err)
		}
		l.Name = "ad-hoc"
		stmts = []stmt{{"ad-hoc: " + *sqlText, l}}
	} else {
		for _, q := range queries {
			l, err := core.LogicalOf(q, cat)
			if err != nil {
				fatal(err)
			}
			stmts = append(stmts, stmt{q.String(), l})
		}
	}

	if *serveMode {
		runServe(mreng, cat, ablate, stmts, *conc, *rowsMax, *debugAddr)
		return
	}

	var lastJob *mr.JobResult
	for _, st := range stmts {
		l := st.l
		fmt.Printf("\n== %s\n", st.desc)
		phys, err := plan.Lower(l)
		if err != nil {
			fatal(fmt.Errorf("%s: plan: %w", l.Name, err))
		}
		if *explain {
			// The plan about to run: kind, passes and per-step join text.
			// The measured EXPLAIN ANALYZE profile follows after execution.
			if err := plan.Explain(os.Stdout, phys); err != nil {
				fatal(err)
			}
		}
		if memSink != nil {
			memSink.Reset()
		}
		rs, rep, err := eng.RunPlan(context.Background(), phys)
		if err != nil {
			fatal(err)
		}
		lastJob = rep.Job
		printed := 0
		fmt.Println(header(rs.Schema.Names()))
		for _, r := range rs.Rows {
			if printed >= *rowsMax {
				fmt.Printf("... (%d more rows)\n", len(rs.Rows)-printed)
				break
			}
			fmt.Println(r)
			printed++
		}
		ctr := rep.Job.Counters
		fmt.Printf("-- %s in %v: %d map tasks (%d data-local), %d hash builds, %d probe rows, %d emits, sort %v\n",
			l.Name, rep.Total.Round(time.Millisecond),
			ctr.Get(mr.CtrMapTasks), ctr.Get(mr.CtrDataLocalMaps),
			ctr.Get(core.CtrHashTablesBuilt),
			ctr.Get(core.CtrProbeRows), ctr.Get(core.CtrProbeEmits),
			rep.SortTime.Round(time.Microsecond))
		if pruned := ctr.Get(colstore.CtrPartitionsPruned); pruned > 0 {
			fmt.Printf("-- zone maps pruned %d partitions (%d bytes never read)\n",
				pruned, ctr.Get(colstore.CtrBytesSkipped))
		}
		if memSink == nil {
			continue
		}
		p, err := obs.BuildProfile(memSink.Spans(), obs.ProfileOptions{
			Counters: rep.Job.Counters.Snapshot(),
		})
		if err != nil {
			fatal(fmt.Errorf("%s: profile: %w", l.Name, err))
		}
		if *timeline {
			p.WriteTimeline(os.Stdout)
		}
		if *explain {
			fmt.Println()
			p.WriteText(os.Stdout)
			if *explCheck {
				if err := checkProfile(p); err != nil {
					fatal(fmt.Errorf("%s: explain-check: %w", l.Name, err))
				}
				fmt.Printf("-- explain-check ok: %d phase walls sum to %v (query wall %v), %d spans, %d orphans\n",
					len(p.Phases), p.PhaseWallTotal().Round(time.Microsecond),
					p.Wall.Round(time.Microsecond), p.Spans, p.Orphans)
			}
		}
	}

	if tracing {
		fmt.Printf("\n-- metrics\n")
		metrics.WriteText(os.Stdout)
	}
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fatal(err)
		}
		if err := traceF.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
	if *jsonPath != "" && lastJob != nil {
		w := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := lastJob.WriteJSON(w); err != nil {
			fatal(err)
		}
	}
}

// runServe pushes every statement through one serving session at the given
// concurrency, so later queries probe the dimension tables earlier ones
// built, then prints per-query summaries and the session's cache and
// admission statistics.
func runServe(mreng *mr.Engine, cat *core.Catalog, ablate core.Ablate, stmts []stmt, conc, rowsMax int, debugAddr string) {
	sess := serve.New(mreng, cat, serve.Options{
		Engine:        core.Options{Ablate: ablate},
		MaxConcurrent: conc,
	})
	if debugAddr != "" {
		dbg := serve.NewDebugServer(sess)
		if err := dbg.Start(debugAddr); err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug surface on http://%s  (/metrics /profilez /slo /debug/pprof)\n", dbg.Addr())
	}
	fmt.Printf("\nserving %d queries (max %d concurrent)...\n", len(stmts), conc)
	type outcome struct {
		rs    *results.ResultSet
		rep   *core.Report
		err   error
		total time.Duration
	}
	outs := make([]outcome, len(stmts))
	var wg sync.WaitGroup
	wallStart := time.Now()
	for i, st := range stmts {
		wg.Add(1)
		go func(i int, l *plan.Logical) {
			defer wg.Done()
			start := time.Now()
			rs, rep, err := sess.QueryPlan(context.Background(), l)
			outs[i] = outcome{rs: rs, rep: rep, err: err, total: time.Since(start)}
		}(i, st.l)
	}
	wg.Wait()
	wall := time.Since(wallStart)

	for i, st := range stmts {
		o := outs[i]
		if o.err != nil {
			fatal(fmt.Errorf("%s: %w", st.l.Name, o.err))
		}
		fmt.Printf("\n== %s\n", st.desc)
		printed := 0
		fmt.Println(header(o.rs.Schema.Names()))
		for _, r := range o.rs.Rows {
			if printed >= rowsMax {
				fmt.Printf("... (%d more rows)\n", len(o.rs.Rows)-printed)
				break
			}
			fmt.Println(r)
			printed++
		}
		ctr := o.rep.Job.Counters
		fmt.Printf("-- %s in %v (wall %v): %d map tasks, %d hash builds, %d probe rows\n",
			st.l.Name, o.rep.Total.Round(time.Millisecond), o.total.Round(time.Millisecond),
			ctr.Get(mr.CtrMapTasks), ctr.Get(core.CtrHashTablesBuilt), ctr.Get(core.CtrProbeRows))
	}

	st := sess.Stats()
	fmt.Printf("\n-- serving session: %d queries in %v wall\n", len(stmts), wall.Round(time.Millisecond))
	fmt.Printf("   table cache: %d builds, %d hits, %d misses, %d evictions, %d bytes resident\n",
		st.Builds, st.Hits, st.Misses, st.Evictions, st.ResidentBytes)
	fmt.Printf("   admission:   %d admitted, %d rejected, peak %d concurrent\n",
		st.Admitted, st.Rejected, st.PeakConcurrent)
	fmt.Printf("   result cache: %d hits (%d by subsumption), %d misses, %d invalidated, %d bytes resident\n",
		st.ResultHits+st.ResultSubsumedHits, st.ResultSubsumedHits, st.ResultMisses,
		st.ResultInvalidations, st.ResultBytes)
	if err := sess.Close(); err != nil {
		fatal(err)
	}
}

// checkProfile enforces the profile invariants `make profile-smoke` relies
// on: the per-phase exclusive walls partition the query wall (within 1% or
// 1ms, whichever is larger), the tree is complete, and nothing was dropped.
func checkProfile(p *obs.Profile) error {
	total := p.PhaseWallTotal()
	diff := total - p.Wall
	if diff < 0 {
		diff = -diff
	}
	tol := p.Wall / 100
	if tol < time.Millisecond {
		tol = time.Millisecond
	}
	if diff > tol {
		return fmt.Errorf("phase walls sum to %v but query wall is %v (diff %v > tolerance %v)",
			total, p.Wall, diff, tol)
	}
	if p.Root == nil || p.Root.Span.Name != obs.PhaseQuery {
		return fmt.Errorf("profile root is not a query span")
	}
	if p.Orphans > 0 {
		return fmt.Errorf("%d orphan spans re-attached under the root", p.Orphans)
	}
	if p.Dropped > 0 {
		return fmt.Errorf("%d spans dropped from the trace", p.Dropped)
	}
	return nil
}

func header(names []string) string {
	out := "["
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += n
	}
	return out + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clydesdale:", err)
	os.Exit(1)
}
