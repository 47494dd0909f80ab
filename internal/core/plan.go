package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// PlanStats checks that l lowers and returns the empty argument plan.Choose
// takes; the repository benchmark's plan.choose_ms probe
// (benchmark/probes.go) is its one caller.
func (e *Engine) PlanStats(l *plan.Logical) (*plan.Stats, error) {
	_, err := plan.Lower(l)
	return &plan.Stats{}, err
}

// RunPlan pins the vector the plan's shape reads, executes the plan over it
// (RunPlanAt) and releases the pin.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Physical) (*results.ResultSet, *Report, error) {
	if p == nil || p.Shape == nil {
		return nil, nil, fmt.Errorf("core: RunPlan needs a physical plan with a shape")
	}
	pin, err := e.Pin(p.Shape)
	if err != nil {
		return nil, nil, err
	}
	defer pin.Release()
	return e.RunPlanAt(ctx, p, pin)
}

// RunPlanAt executes a physical plan over a pinned vector: one job per
// pass. Every job of the plan, and every table built or scanned for it,
// reads that one vector. A plan whose pass holds more hash tables than node
// memory re-runs over the same vector with one step per pass — the §5.1
// fallback, one table resident at a time — and the report says so
// (Report.Passes).
func (e *Engine) RunPlanAt(ctx context.Context, p *plan.Physical, pin *Pin) (rs *results.ResultSet, rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, done := e.traceRoot(ctx, p.Shape.Name, pin.Read)
	defer func() { done(rep, err) }()
	rs, rep, err = e.run(ctx, p, pin)
	if err != nil && errors.Is(err, ErrOOM) && ctx.Err() == nil && len(p.Passes) < len(p.Steps) {
		rs, rep, err = e.run(ctx, p.OneStepPerPass(), pin)
	}
	if rep != nil {
		rep.Read = pin.Read
	}
	return rs, rep, err
}

// stagedSeq numbers the intermediate directories of multi-pass runs.
var stagedSeq atomic.Int64

// run executes p as lowered, with no fallback: one MapReduce job per pass,
// each the star-join runner over the pass's dimensions — so with
// Clydesdale's per-node shared hash tables (built from the local dimension
// cache, one task per node, JVM reuse), unlike Hive's broadcast mapjoin.
// The first pass scans the fact table; the last (of a star, the only one)
// folds its joined rows into grouped partial sums that its reducers finish
// (Figure 4); every pass before it is map-only and carries its joined rows
// through an HDFS intermediate to the next. A snowflake plan has one pass
// per depth level: every table of a level probes a key an earlier level
// carried. Cut one step per pass it is the paper's §5.1 fallback: "for the
// rare case where the cluster nodes have little memory or for unusual
// datasets with extremely large dimension tables, one could reduce the
// memory footprint by joining with a single hash table at a time. A
// subsequent pass over the intermediate joined result can be made to join
// with the remaining dimension tables." Memory high-water per node is the
// largest pass, not the sum of the tables.
func (e *Engine) run(ctx context.Context, p *plan.Physical, pin *Pin) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh := p.Shape
	passes := p.PassSteps()
	dims := pin.DimSpecs(p.Steps)
	dirs := make([]string, len(dims))
	keys := make([]string, len(dims))
	for i := range dims {
		var err error
		if dirs[i], err = e.cat.DimDir(dims[i].Table); err != nil {
			return nil, nil, err
		}
		keys[i] = TableKey(dirs[i], &dims[i])
	}
	if err := e.ensureCached(ctx, dims, dirs); err != nil {
		return nil, nil, err
	}
	// Only depth-1 FKs are fact columns, so only those dimensions — whichever
	// pass joins them — may feed the fact scan's prune hints, blooms and
	// eager-read set.
	var head []DimSpec
	for i := range p.Steps {
		if p.Steps[i].Depth == 1 {
			head = append(head, dims[i])
		}
	}
	var tmp string
	if len(passes) > 1 {
		tmp = fmt.Sprintf("/tmp/clydesdale/%s-staged-%d", sh.Name, stagedSeq.Add(1))
		defer e.mr.FS().DeletePrefix(tmp)
	}

	// The first pass applies the fact predicate; every later pass reads the
	// previous pass's row-format intermediate, which nothing rolls into.
	var input mr.InputFormat = e.factScan(sh, head, pin)
	factPred := sh.FactPred
	sums := &mr.MemoryOutput{}
	var res *mr.JobResult
	for i, steps := range passes {
		n := len(steps)
		runner := &starJoinRunner{eng: e, dims: dims[:n], dirs: dirs[:n], keys: keys[:n], factPred: factPred}
		dims, dirs, keys = dims[n:], dirs[n:], keys[n:]
		job := &mr.Job{
			Name:         fmt.Sprintf("clydesdale-%s-pass-%d", sh.Name, i+1),
			Conf:         e.mapJoinConf(),
			Input:        input,
			NewMapRunner: func() mr.MapRunner { return runner },
		}
		if i == len(passes)-1 {
			runner.agg, runner.out = sh.Agg, sh.GroupSchema()
			job.Output = sums
			e.sumJob(job, sh)
		} else {
			runner.out = steps[len(steps)-1].Out
			dir := fmt.Sprintf("%s/pass-%d", tmp, i+1)
			job.Output = &colstore.RowOutput{Dir: dir, Schema: runner.out}
			input, factPred = &colstore.RowInput{Dir: dir, Schema: runner.out}, nil
		}
		before := res
		var err error
		if res, err = e.submit(ctx, job, runner); err != nil {
			tables := make([]string, len(steps))
			for j := range steps {
				tables[j] = steps[j].Table
			}
			return nil, nil, fmt.Errorf("core: %s pass %d of %d (%s): %w", sh.Name, i+1, len(passes), strings.Join(tables, ", "), err)
		}
		if before != nil {
			res.Counters.Merge(before.Counters)
		}
	}
	return finish(sh, sums, &Report{Job: res, Passes: len(passes)}, start)
}

// submit runs one pass's job with the table cache its tasks share: the one
// the engine was given, else (multi-threading on) one made for this job and
// closed when the job returns, whatever it returns. A table so lives as long
// as its job (§5.2): every pass of a plan, and of the one-step-per-pass
// re-run after ErrOOM, starts with no byte reserved.
func (e *Engine) submit(ctx context.Context, job *mr.Job, runner *starJoinRunner) (*mr.JobResult, error) {
	runner.tables = e.opts.Tables
	if runner.tables == nil && !e.opts.Ablate.Has(NoMultiThreading) {
		c := e.mr.Cluster()
		runner.tables = NewTableCache(c, c.Config().MemoryPerNode)
		defer runner.tables.Close()
	}
	return e.mr.Submit(ctx, job)
}
