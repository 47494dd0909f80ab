package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// stagedSeq numbers the intermediate directories of staged runs.
var stagedSeq atomic.Int64

// runStaged executes a multi-pass plan: one map-only MapReduce job per pass
// — the star-join runner over the pass's dimensions, so with Clydesdale's
// per-node shared hash tables (built from the local dimension cache, one
// task per node, JVM reuse), unlike Hive's broadcast mapjoin — each writing
// its carried rows to an HDFS intermediate, followed by an aggregation job.
// A snowflake plan has one pass per depth level: every table of a level
// probes a key an earlier level carried. Cut one step per pass it is the
// paper's §5.1 fallback: "for the rare case where the cluster nodes have
// little memory or for unusual datasets with extremely large dimension
// tables, one could reduce the memory footprint by joining with a single
// hash table at a time. A subsequent pass over the intermediate joined
// result can be made to join with the remaining dimension tables." Memory
// high-water per node is the largest pass, not the sum of the tables.
func (e *Engine) runStaged(ctx context.Context, p *plan.Physical, pin *Pin) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh := p.Shape
	passes := p.PassSteps()
	if len(passes) == 0 {
		return nil, nil, fmt.Errorf("core: staged plan for %s has no joins", sh.Name)
	}
	dims := pin.DimSpecs(p.Steps)
	if err := e.ensureCached(ctx, dims); err != nil {
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

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-staged-%d", sh.Name, stagedSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	// The first pass scans the fact table and applies the fact predicate;
	// every later pass reads the previous pass's row-format intermediate,
	// which nothing rolls into.
	var input mr.InputFormat = e.factScan(sh, head, pin)
	factPred := sh.FactPred
	var inter *colstore.RowInput

	counters := mr.NewCounters()
	for i, steps := range passes {
		passDims := dims[:len(steps)]
		dims = dims[len(steps):]
		out := steps[len(steps)-1].Out
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i+1)
		res, err := e.runJoinPass(ctx, fmt.Sprintf("clydesdale-staged-%s-pass-%d", sh.Name, i+1), input,
			&colstore.RowOutput{Dir: outDir, Schema: out},
			newRowRunner(e, passDims, factPred, out))
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s staged pass %d (%s): %w", sh.Name, i+1, steps[0].Table, err)
		}
		counters.Merge(res.Counters)
		inter = &colstore.RowInput{Dir: outDir, Schema: out}
		input, factPred = inter, nil
	}

	out, res, err := e.runAggJob(ctx, "clydesdale-staged-agg-"+sh.Name, sh, inter)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s staged aggregation: %w", sh.Name, err)
	}
	counters.Merge(res.Counters)
	job := &mr.JobResult{JobID: "staged", Counters: counters, Duration: time.Since(start)}
	return finish(sh, out, &Report{Job: job, Staged: true, Passes: len(passes)}, start)
}
