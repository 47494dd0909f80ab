// Package hive implements the baseline the paper compares against (§6.1):
// a Hive-0.7-style SQL engine that compiles a star query into a *sequence*
// of MapReduce jobs — one two-way join per dimension table, each writing
// its intermediate result back to HDFS, followed by a group-by job and an
// order-by job. Two join strategies are provided:
//
//   - Repartition join (Hive's "common join"): both sides are tagged,
//     shuffled on the join key, and joined in the reducers. Robust, but the
//     whole fact stream crosses the network every stage.
//   - Mapjoin (broadcast join): the driver builds a hash table of the
//     filtered dimension, broadcasts it through the distributed cache, and
//     map-only tasks probe it. Every map task re-loads and deserializes the
//     hash table (no JVM reuse) and every concurrently running task holds
//     its own copy, which is what runs the memory-constrained cluster out
//     of memory on queries with large dimension hash tables (§6.4).
//
// The engine is deliberately faithful to the baseline's pathologies; it
// shares the plan IR (internal/plan), storage (RCFile fact table, row-
// format dimensions) and MapReduce substrate with Clydesdale so that the
// comparison isolates the plan and execution-strategy differences.
package hive

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// JoinStrategy selects the baseline's join plan.
type JoinStrategy int

// Available strategies.
const (
	Repartition JoinStrategy = iota
	MapJoin
)

// String names the strategy.
func (s JoinStrategy) String() string {
	if s == MapJoin {
		return "mapjoin"
	}
	return "repartition"
}

// Hive-specific counters.
const (
	CtrStages           = "HIVE_STAGES"
	CtrHashBroadcasts   = "HIVE_MAPJOIN_BROADCASTS"
	CtrHashLoads        = "HIVE_MAPJOIN_HASH_LOADS"
	CtrHashLoadNanos    = "HIVE_MAPJOIN_HASH_LOAD_NANOS"
	CtrIntermediateRows = "HIVE_INTERMEDIATE_ROWS"
	CtrDriverBuildNanos = "HIVE_DRIVER_HASH_BUILD_NANOS"
)

// Options configures the baseline engine.
type Options struct {
	Strategy JoinStrategy
	// Reducers for join and group-by stages; <= 0 uses one per worker.
	Reducers int
}

// tmpRoot is where intermediate tables go.
const tmpRoot = "/tmp/hive"

// Engine executes star queries with Hive-style staged plans.
type Engine struct {
	mr   *mr.Engine
	cat  *core.Catalog // FactDir should point at the RCFile fact table
	opts Options
	seq  atomic.Int64
}

// New creates a baseline engine.
func New(mrEngine *mr.Engine, cat *core.Catalog, opts Options) *Engine {
	if opts.Reducers <= 0 {
		opts.Reducers = len(mrEngine.Cluster().Nodes())
	}
	return &Engine{mr: mrEngine, cat: cat, opts: opts}
}

// StageReport describes one MapReduce job of the plan.
type StageReport struct {
	Name     string
	Kind     string // "join", "groupby", "orderby"
	Duration time.Duration
	Job      *mr.JobResult
}

// Report describes one executed query.
type Report struct {
	Query    string
	Strategy JoinStrategy
	Stages   []StageReport
	Counters *mr.Counters // merged across stages
	Total    time.Duration
}

// Execute binds a star query into the shared logical IR and runs it with
// the staged plan.
func (e *Engine) Execute(ctx context.Context, q *core.Query) (*results.ResultSet, *Report, error) {
	l, err := core.LogicalOf(q, e.cat)
	if err != nil {
		return nil, nil, err
	}
	return e.ExecutePlan(ctx, l)
}

// ExecutePlan runs a bound logical plan — star or snowflake — as a sequence
// of two-way join jobs in the shape's bind order, then the group-by and
// order-by jobs, and returns the ordered result.
func (e *Engine) ExecutePlan(ctx context.Context, l *plan.Logical) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sp, err := e.lower(l)
	if err != nil {
		return nil, nil, err
	}
	report := &Report{Query: sp.name, Strategy: e.opts.Strategy, Counters: mr.NewCounters()}
	defer e.cleanup(sp)

	cur := stageInput{dir: e.cat.FactDir, schema: sp.factRead, isFact: true}
	for i := range sp.joins {
		st := &sp.joins[i]
		stStart := time.Now()
		var res *mr.JobResult
		if e.opts.Strategy == MapJoin {
			res, err = e.runMapJoinStage(ctx, sp, st, cur)
		} else {
			res, err = e.runRepartitionStage(ctx, sp, st, cur)
		}
		if err != nil {
			return nil, report, fmt.Errorf("hive: %s stage %d (%s): %w", sp.name, i+1, st.spec.Table, err)
		}
		report.Stages = append(report.Stages, StageReport{
			Name: "join-" + st.spec.Table, Kind: "join", Duration: time.Since(stStart), Job: res,
		})
		report.Counters.Merge(res.Counters)
		report.Counters.Add(CtrStages, 1)
		cur = stageInput{dir: st.outDir, schema: st.outSchema}
	}

	// Group-by stage.
	gbStart := time.Now()
	gbOut, gbRes, err := e.runGroupByStage(ctx, sp, cur)
	if err != nil {
		return nil, report, fmt.Errorf("hive: %s group-by: %w", sp.name, err)
	}
	report.Stages = append(report.Stages, StageReport{
		Name: "groupby", Kind: "groupby", Duration: time.Since(gbStart), Job: gbRes,
	})
	report.Counters.Merge(gbRes.Counters)
	report.Counters.Add(CtrStages, 1)

	rs := e.collect(sp, gbOut)

	// Order-by stage: Hive runs a single-reducer MapReduce job; its cost is
	// modeled by the job below, and the driver applies the final ordering
	// to the collected rows.
	if sp.hasOrderBy {
		obStart := time.Now()
		obRes, err := e.runOrderByStage(ctx, sp, rs)
		if err != nil {
			return nil, report, fmt.Errorf("hive: %s order-by: %w", sp.name, err)
		}
		report.Stages = append(report.Stages, StageReport{
			Name: "orderby", Kind: "orderby", Duration: time.Since(obStart), Job: obRes,
		})
		report.Counters.Merge(obRes.Counters)
		report.Counters.Add(CtrStages, 1)
	}
	orders := make([]results.Order, 0, len(sp.orders))
	for _, o := range sp.orders {
		orders = append(orders, results.Order{Col: o.Col, Desc: o.Desc})
	}
	if len(orders) > 0 {
		if err := rs.Sort(orders); err != nil {
			return nil, report, err
		}
	}
	report.Total = time.Since(start)
	return rs, report, nil
}

// collect converts group-by output pairs to a result set.
func (e *Engine) collect(sp *stagedPlan, out *mr.MemoryOutput) *results.ResultSet {
	schema := sp.resultSchema
	rs := &results.ResultSet{Schema: schema}
	pairs := out.Pairs()
	if len(pairs) == 0 && len(sp.groupBy) == 0 {
		rs.Rows = append(rs.Rows, records.Make(schema, records.Float(0)))
		return rs
	}
	for _, kv := range pairs {
		vals := make([]records.Value, 0, schema.Len())
		vals = append(vals, kv.Key.Values()...)
		vals = append(vals, records.Float(kv.Value.At(0).Float64()))
		rs.Rows = append(rs.Rows, records.Make(schema, vals...))
	}
	return rs
}

func (e *Engine) cleanup(sp *stagedPlan) {
	for _, st := range sp.joins {
		e.mr.FS().DeletePrefix(st.outDir)
	}
	e.mr.FS().DeletePrefix(sp.tmpDir)
}
